import os
import subprocess
import sys
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import spatialcox.whittle
from oracles import (affine_objective, dense_mode_losses, dense_refine_example1,
                     field_with_periodogram, grid_has_torus_zero, grid_min_triple_loss,
                     example2_objective, normalize_c2, padded_trig_moments, periodogram_moments,
                     rational_density, slsqp_affine_fit, slsqp_example2_fit,
                     stencil_objective_example1)
from spatialcox import (BasisSpec, CoeffField, FrequencyGrid, Periodogram,
                        Sarh1Params, SpectralModel, ThetaEstimate, cov_from_spectrum, estimate,
                        family_triples, is_causal, periodogram, simulate_sarh1, trig_moments,
                        whittle_loss)
from spatialcox.errors import ParameterDomainError, SingularSpectrumError
from spatialcox.pipeline import DEFAULT_TRUE_PMF
from spatialcox.sarh import (_GRAM, CAUSAL_FACES, TRIPLE_BOX, _face_margins, _gram_form,
                             _inverse_functional, c2_innovation_var, family_jacobian)
from spatialcox.whittle import TIE_BREAK, _example1_pieces, _fit_trust_region, _local_model

TWO_PI_SQ = (2 * np.pi) ** 2
EXAMPLE1_M2 = SpectralModel("example1", n_modes=2)


def model_periodogram(model, theta, dims):
    """Noise-free periodogram: I := F_{., theta} on the Fourier grid."""
    grid = FrequencyGrid(dims)
    w1, w2 = grid.meshes()
    return Periodogram(grid, model.density(theta, w1, w2).astype(complex))


def model_field(model, theta, dims):
    """The field whose periodogram is the noise-free one, as the fit takes it."""
    return field_with_periodogram(model_periodogram(model, theta, dims))


# --- spectral density -------------------------------------------------------


def test_density_white_noise_is_flat():
    # innovation sd 1: F = 1 / (2 pi)^2, whose integral over the torus is 1
    model = SpectralModel("custom", n_modes=1, theta_box=[[-1, 1]] * 3)
    w = np.linspace(-np.pi, np.pi, 9)
    vals = model.density(np.zeros(3), w, w)[:, 0]
    np.testing.assert_allclose(vals, 1.0 / TWO_PI_SQ, rtol=1e-14)


def test_density_example1_origin_closed_form():
    model = SpectralModel("example1", n_modes=2)
    s2 = 1.0 / TWO_PI_SQ
    expected = s2 / (1 - 2 / np.pi**2 + 1 / np.pi**4) ** 2
    got = model.density([1.0], 0.0, 0.0)[0]
    assert got == pytest.approx(expected, rel=1e-12)


def test_density_even_in_omega():
    model = SpectralModel("example2", n_modes=3)
    th = [1.0, 1.6, 1.5, 1.2]
    rng = np.random.default_rng(2)
    for _ in range(10):
        w1, w2 = rng.uniform(-np.pi, np.pi, 2)
        a = model.density(th, w1, w2)
        b = model.density(th, -w1, -w2)
        np.testing.assert_allclose(a, b, rtol=1e-13)


def test_density_matches_oracle():
    model = SpectralModel("example1", n_modes=3)
    w1, w2 = np.meshgrid(np.linspace(-3, 3, 7), np.linspace(-3, 3, 7), indexing="ij")
    dens = model.density([1.3], w1, w2)
    for k in range(1, 4):
        direct = rational_density(model.eig_triples([1.3])[k - 1],
                                  model.sigma2([1.3])[k - 1], w1, w2)
        np.testing.assert_allclose(dens[:, :, k - 1], direct, rtol=1e-12)


# --- C2 normalization -------------------------------------------------------


def test_c2_white_noise():
    model = SpectralModel("custom", n_modes=2, theta_box=[[-1, 1]] * 6)
    s2 = normalize_c2(model, np.zeros(6))
    np.testing.assert_allclose(s2, 1.0 / TWO_PI_SQ, rtol=1e-12)


def test_c2_grid_refinement():
    model = SpectralModel("example1", n_modes=1)
    a = normalize_c2(model, [1.0], grid_size=512)
    b = normalize_c2(model, [1.0], grid_size=1024)
    assert abs(a[0] - b[0]) < 1e-7


def test_c2_defining_property():
    model = SpectralModel("example1", n_modes=3)
    for theta in (0.8, 1.0, 2.0, 3.5):
        s2 = normalize_c2(model, [theta])
        n = 512
        w = -np.pi + 2 * np.pi * np.arange(n) / n
        w1, w2 = np.meshgrid(w, w, indexing="ij")
        dens = np.stack([rational_density(triple, s, w1, w2) for triple, s in
                         zip(model.eig_triples([theta]), s2)], axis=-1)
        integral = np.log(TWO_PI_SQ * dens).mean(axis=(0, 1)) * TWO_PI_SQ
        assert np.all(np.abs(integral) < 1e-6)


def test_c2_closed_form_agrees_with_quadrature():
    # includes the |l1| > 1 part of the example-1 box and a free-L3 triple
    m1 = SpectralModel("example1", n_modes=2)
    for theta in (1.0, 3.5):
        np.testing.assert_allclose(m1.sigma2([theta]), normalize_c2(m1, [theta]),
                                   rtol=1e-9)
    m2 = SpectralModel("custom", n_modes=1, theta_box=[[-1, 1]] * 3)
    th = np.array([0.4, 0.3, -0.05])
    np.testing.assert_allclose(m2.sigma2(th), normalize_c2(m2, th), rtol=1e-9)


def test_c2_singularity_error():
    model = SpectralModel("custom", n_modes=1, theta_box=[[-2, 2]] * 3)
    with pytest.raises(SingularSpectrumError):
        normalize_c2(model, np.array([1.0, 0.0, 0.0]))  # unit root at omega_1 = 0


# --- loss -------------------------------------------------------------------


def test_loss_at_matching_spectrum_is_one():
    model = SpectralModel("example1", n_modes=4)
    fld = model_field(model, [1.2], (16, 12))
    assert whittle_loss(model, [1.2], fld) == pytest.approx(1.0, abs=1e-14)


def test_loss_scales_linearly():
    model = SpectralModel("example1", n_modes=2)
    params = Sarh1Params("example1", [1.0], 2)
    fld = simulate_sarh1(params, (24, 24), seed=5)
    base = whittle_loss(model, [1.0], fld)
    scaled = CoeffField(np.sqrt(3.0) * fld.data, fld.basis)  # a periodogram 3 times fld's
    assert whittle_loss(model, [1.0], scaled) == pytest.approx(3.0 * base, rel=1e-12)


def test_fast_path_equals_dense():
    params = Sarh1Params("example2", [1.0, 1.6, 1.5, 1.2], 5)
    fld = simulate_sarh1(params, (20, 28), seed=6)
    pg = periodogram(fld)
    gram = trig_moments(fld)[:, _GRAM]
    for family, theta in (("example2", [0.9, 1.5, 1.4, 1.1]),
                          ("example1", [2.2]),
                          ("triple", [0.3, 0.2, -0.05])):
        model = SpectralModel(family, n_modes=5)
        dense = dense_mode_losses(model, theta, pg)
        fast = _inverse_functional(model.eig_triples(theta), gram)
        np.testing.assert_allclose(fast, dense, rtol=1e-11)


@settings(deadline=None, max_examples=80)
@given(dims=st.tuples(st.integers(1, 9), st.integers(1, 9)), n_modes=st.integers(1, 4),
       seed=st.integers(0, 2**32 - 1))
def test_field_moments_match_periodogram_moments(dims, n_modes, seed):
    # Parseval: the periodogram's cosine averages are the field's circular lag
    # sums over N (2 pi)^2; on a side of 1 or 2 a lag wraps onto itself
    rng = np.random.default_rng(seed)
    scale = 10.0 ** rng.uniform(-3, 3, n_modes)
    fld = CoeffField(rng.normal(size=dims + (n_modes,)) * scale, BasisSpec(1.0, n_modes))
    direct = trig_moments(fld)
    ref = periodogram_moments(periodogram(fld))
    assert direct.shape == ref.shape == (n_modes, 5)
    assert np.all(np.abs(direct - ref) <= 1e-12 * ref[:, :1])


def _layout(values, layout):
    # the same values in another memory layout: C order, the mode-major view that
    # simulate_sarh1 returns, Fortran order, or negative strides on every axis
    if layout == "mode_major":
        return np.moveaxis(np.ascontiguousarray(np.moveaxis(values, 2, 0)), 0, 2)
    if layout == "fortran":
        return np.asfortranarray(values)
    if layout == "negative_stride":
        return values[::-1, ::-1, ::-1].copy()[::-1, ::-1, ::-1]
    return values


@settings(deadline=None, max_examples=80)
@given(dims=st.tuples(st.integers(1, 9), st.integers(1, 9)), n_modes=st.integers(1, 4),
       layout=st.sampled_from(["C", "mode_major", "fortran", "negative_stride"]),
       seed=st.integers(0, 2**32 - 1))
def test_trig_moments_match_the_padded_copy_at_any_strides(dims, n_modes, layout, seed):
    # the lag sums read slices of the field where it lies, the wrap row, column and
    # corner included; on a side of 1 or 2 a lag wraps onto itself
    rng = np.random.default_rng(seed)
    values = rng.normal(size=dims + (n_modes,)) * 10.0 ** rng.uniform(-3, 3, n_modes)
    data = _layout(values, layout)
    fld = CoeffField(data, BasisSpec(1.0, n_modes))
    assert fld.data.strides == data.strides and np.array_equal(data, values)
    got, want = trig_moments(fld), padded_trig_moments(values)
    assert np.all(np.abs(got - want) <= 1e-12 * want[:, :1])


@pytest.mark.parametrize("layout", ["C", "mode_major"])
def test_trig_moments_make_no_copy_of_the_field(layout):
    # the lag sums read the field where it lies: any copy of it would peak above its bytes
    values = np.random.default_rng(4).normal(size=(120, 120, 10))
    fld = CoeffField(_layout(values, layout), BasisSpec(1.0, 10))
    tracemalloc.start()
    try:
        trig_moments(fld)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < values.nbytes / 10, peak / values.nbytes


@settings(deadline=None, max_examples=60)
@given(st.data())
def test_whittle_loss_matches_dense_oracle(data):
    # random non-negative periodograms on small grids; example1 spans its
    # whole box (from theta = pi on, mode 1 is not causal), triple is causal
    family = data.draw(st.sampled_from(["example1", "example2", "triple"]))
    n_modes = data.draw(st.integers(1, 4))
    dims = data.draw(st.tuples(st.integers(2, 9), st.integers(2, 9)))
    model = SpectralModel(family, n_modes=n_modes)
    theta = np.array([data.draw(st.floats(lo, hi)) for lo, hi in model.theta_box])
    if family == "triple":
        assume(np.all(CAUSAL_FACES @ theta < 1.0))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    pg = Periodogram(FrequencyGrid(dims), rng.exponential(size=dims + (n_modes,)).astype(complex))
    dense = dense_mode_losses(model, theta, pg).max()
    fld = field_with_periodogram(pg)
    assert whittle_loss(model, theta, fld) == pytest.approx(dense, rel=1e-9)


def test_loss_monte_carlo_near_one_and_locally_minimal():
    model = SpectralModel("example1", n_modes=10)
    params = Sarh1Params("example1", [1.0], 10)
    at_true, wins = [], 0
    for seed in range(20):
        fld = simulate_sarh1(params, (256, 256), seed=42_000 + seed)
        g = trig_moments(fld)[:, _GRAM]
        l0 = _inverse_functional(model.eig_triples([1.0]), g).max()
        lm = _inverse_functional(model.eig_triples([0.7]), g).max()
        lp = _inverse_functional(model.eig_triples([1.3]), g).max()
        at_true.append(l0)
        wins += (l0 < lm) and (l0 < lp)
    assert abs(np.mean(at_true) - 1.0) < 0.05
    assert wins >= 18


def test_loss_domain_errors():
    model = SpectralModel("example1", n_modes=2)
    fld = model_field(model, [1.0], (8, 8))
    with pytest.raises(ParameterDomainError):
        whittle_loss(model, [5.0], fld)
    other = SpectralModel("example1", n_modes=3)
    with pytest.raises(ParameterDomainError):
        whittle_loss(other, [1.0], fld)


def test_loss_theta_outside_the_box_rejected():
    # (0.99, 0, 0) is a causal triple, outside the family's box: the box check raises
    model = SpectralModel("triple", n_modes=3)
    fld = simulate_sarh1(Sarh1Params("triple", [0.5, 0.3, -0.1], 3), (16, 16), seed=1)
    with pytest.raises(ParameterDomainError, match="outside the parameter box"):
        whittle_loss(model, (0.99, 0.0, 0.0), fld)


@pytest.mark.parametrize("theta", [[1.0], [1.0, 1.6]])
def test_loss_theta_of_wrong_length_rejected(theta):
    # checked before the box, which reads theta elementwise
    model = SpectralModel("example2", n_modes=2)
    fld = model_field(model, [1.0, 1.6, 1.5, 1.2], (8, 8))
    with pytest.raises(ParameterDomainError, match="length"):
        whittle_loss(model, theta, fld)


@pytest.mark.parametrize("call", [trig_moments, lambda pg: whittle_loss(EXAMPLE1_M2, [1.0], pg),
                                  lambda pg: estimate(EXAMPLE1_M2, pg)],
                         ids=["trig_moments", "whittle_loss", "estimate"])
def test_periodogram_sample_rejected(call):
    # the sample is the field; a periodogram enters the fit as a field
    # (field_with_periodogram), never as itself
    with pytest.raises(TypeError, match="CoeffField"):
        call(model_periodogram(EXAMPLE1_M2, [1.0], (8, 8)))


# --- estimation -------------------------------------------------------------


@pytest.mark.parametrize("family, theta, name, value", [
    ("triple", [0.5, 0.3, -0.1], "IP_MAX_ITER", 1),       # the interior-point cap
    ("triple", [0.5, 0.3, -0.1], "_IP_ALPHA", 1e300),     # a line search with no step
    ("example2", [1.0, 1.6, 1.5, 1.2], "TR_MAX_ITER", 1),  # the trust-region cap
], ids=["ip_cap", "ip_line_search", "tr_cap"])
def test_estimate_reports_a_fit_that_stops_short(family, theta, name, value):
    # each loop that can stop before its rule is met returns converged=False, and a
    # point of the box
    model = SpectralModel(family, n_modes=3)
    fld = simulate_sarh1(Sarh1Params(family, theta, 3), (16, 16), seed=2)
    with mock.patch.object(spatialcox.whittle, name, value):
        fit = estimate(model, fld)
    assert not fit.converged and model.contains(fit.theta_hat)
    assert estimate(model, fld).converged

def test_estimate_noise_free_recovers_theta():
    model = SpectralModel("example1", n_modes=6)
    fit = estimate(model, model_field(model, [1.7], (32, 32)))
    assert abs(fit.theta_hat[0] - 1.7) < 1e-4
    assert abs(fit.loss_at_min - 1.0) < 1e-3
    assert fit.converged


def test_estimate_respects_box_and_beats_bracketing_grid():
    model = SpectralModel("example1", n_modes=3)
    params = Sarh1Params("example1", [1.0], 3)
    fld = simulate_sarh1(params, (32, 32), seed=8)
    fit = estimate(model, fld)
    assert model.contains(fit.theta_hat)
    assert fit.loss_at_min == whittle_loss(model, fit.theta_hat, fld)
    grid_losses = [whittle_loss(model, [t], fld) for t in np.linspace(0.7, 4.0, 64)]
    assert fit.loss_at_min <= min(grid_losses) + 1e-9
    assert fit.n_loss_evals > 0


def test_estimate_is_pure_function_of_periodogram():
    model = SpectralModel("example1", n_modes=3)
    params = Sarh1Params("example1", [1.0], 3)
    fld = simulate_sarh1(params, (32, 32), seed=9)
    a = estimate(model, fld)
    b = estimate(model, fld)
    np.testing.assert_array_equal(a.theta_hat, b.theta_hat)
    assert a.loss_at_min == b.loss_at_min


@pytest.mark.parametrize("family, theta", [("example1", [1.0]),
                                           ("example2", [1.0, 1.6, 1.5, 1.2]),
                                           ("triple", [0.4, 0.3, -0.1])])
def test_estimate_from_field_matches_periodogram(family, theta):
    # the fit reads the field only through its periodogram: another field with
    # the same periodogram gives the same fit
    fld = simulate_sarh1(Sarh1Params(family, theta, 5), (48, 40), seed=17)
    model = SpectralModel(family, n_modes=5)
    from_field = estimate(model, fld)
    from_pgram = estimate(model, field_with_periodogram(periodogram(fld)))
    np.testing.assert_allclose(from_field.theta_hat, from_pgram.theta_hat, rtol=0, atol=1e-6)
    assert from_field.loss_at_min == pytest.approx(from_pgram.loss_at_min, rel=1e-10)


def test_estimate_json_roundtrip(tmp_path):
    model = SpectralModel("example1", n_modes=2)
    fit = estimate(model, model_field(model, [1.1], (8, 8)))
    path = tmp_path / "est.json"
    fit.to_json(path)
    import json
    back = json.loads(path.read_text())
    assert back["family"] == "example1"
    assert back["theta_hat"][0] == pytest.approx(fit.theta_hat[0])
    assert set(back) == {"family", "theta_hat", "loss_at_min", "n_loss_evals", "converged",
                         "runtime_s"}


@pytest.mark.parametrize("family", ["example1", "triple"])
def test_overflowing_field_rejected_before_the_fit(family):
    # finite values whose squares overflow: the moments would be inf and nan,
    # which made the triple fit return loss_at_min = nan and example1 end in
    # numpy's LinAlgError
    rng = np.random.default_rng(5)
    fld = CoeffField(1e200 * rng.normal(size=(8, 8, 2)), BasisSpec(1.0, 2))
    with pytest.raises(ParameterDomainError, match="not finite"):
        trig_moments(fld)
    with pytest.raises(ParameterDomainError, match="not finite"):
        estimate(SpectralModel(family, n_modes=2), fld)


def test_estimate_json_rejects_non_finite_values():
    fit = ThetaEstimate(np.array([np.nan, 0.0, 0.0]), float("nan"), 1, False, "triple")
    with pytest.raises(ValueError, match="JSON"):
        fit.to_json()


def test_fit_with_fixed_noise_sd_recovers_theta():
    # a known innovation sd is a factor on the data: the field of the density
    # of innovation sd 2, read from the oracle, divided by 2 fits the true
    # theta at loss 1
    model = SpectralModel("example1", n_modes=3)
    grid = FrequencyGrid((32, 32))
    w1, w2 = grid.meshes()
    values = np.stack([rational_density(t, 4.0 / TWO_PI_SQ, w1, w2)
                       for t in family_triples("example1", [1.7], 3)], axis=-1)
    fld = field_with_periodogram(Periodogram(grid, values.astype(complex)))
    fit = estimate(model, CoeffField(fld.data / 2.0, fld.basis))
    assert abs(fit.theta_hat[0] - 1.7) < 1e-4
    assert fit.loss_at_min == pytest.approx(1.0, abs=1e-3)


# --- example1: the exact fit from polynomial roots -------------------------

# random sub-boxes of example1's box, and two fixed ones: one holding theta = pi,
# where mode 1 leaves the causal set, and one wholly above it
_RANDOM_BOXES = np.sort(np.random.default_rng(71).uniform(0.7, 4.0, size=(6, 2)), axis=1)
EXAMPLE1_BOXES = [*_RANDOM_BOXES.tolist(), [3.0, 3.3], [3.2, 4.0], [0.7, 4.0]]


def _example1_field(name):
    if name == "model-3.6":  # noise-free, beyond pi
        return model_field(SpectralModel("example1", n_modes=6), [3.6], (24, 24))
    theta, seed = {"sim-1.0": (1.0, 72), "sim-3.0": (3.0, 73)}[name]
    return simulate_sarh1(Sarh1Params("example1", [theta], 6), (32, 32), seed=seed)


@pytest.mark.parametrize("name", ["sim-1.0", "sim-3.0", "model-3.6"])
def test_example1_fit_matches_dense_oracle(name):
    fld = _example1_field(name)
    moments = periodogram_moments(periodogram(fld))
    for box in EXAMPLE1_BOXES:
        fit = estimate(SpectralModel("example1", n_modes=6, theta_box=[box]), fld)
        theta, best = dense_refine_example1(moments, box, TIE_BREAK)
        mine = stencil_objective_example1(moments, fit.theta_hat, TIE_BREAK)[0]
        assert mine <= best + 1e-12 * abs(best), (name, box)
        assert abs(fit.theta_hat[0] - theta) <= 1e-6, (name, box)
        assert fit.converged and fit.n_loss_evals >= 3  # the box ends, then theta_hat


@pytest.mark.parametrize("box", [[0.7, 4.0], [3.0, 3.3], [3.2, 4.0], [1.0, 2.0]])
def test_example1_piece_variance_is_monomial(box):
    # inside each piece of the s = theta^2 box, coef s^power is c2_innovation_var
    model = SpectralModel("example1", n_modes=10, theta_box=[box])
    _, edges, coef, power = _example1_pieces(model)
    assert edges[0] == pytest.approx(box[0] ** 2) and edges[-1] == pytest.approx(box[1] ** 2)
    assert (np.pi**2 in edges) == (box[0] < np.pi < box[1])
    for p in range(len(edges) - 1):
        for s in np.linspace(edges[p], edges[p + 1], 7)[1:-1]:
            var = c2_innovation_var(family_triples("example1", [np.sqrt(s)], 10))
            np.testing.assert_allclose(coef[p] * s ** power[p], var, rtol=1e-12)


@pytest.mark.parametrize("box", [[0.7, 4.0], [3.2, 4.0]])
def test_example1_zero_field_fits_lower_box_end(box):
    # a flat loss of 0: every theta ties, and the tie goes to the least one
    fld = CoeffField(np.zeros((16, 16, 4)), BasisSpec(1.0, 4))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        fit = estimate(SpectralModel("example1", n_modes=4, theta_box=[box]), fld)
    assert fit.theta_hat[0] == box[0]
    assert fit.loss_at_min == 0.0


def test_example1_repeated_column_field_fits():
    # every mode the same column: equal moments, so no polynomial vanishes
    one = simulate_sarh1(Sarh1Params("example1", [1.0], 1), (30, 30), seed=74)
    fld = CoeffField(np.repeat(one.data, 10, axis=2), BasisSpec(1.0, 10))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        fit = estimate(SpectralModel("example1", n_modes=10), fld)
    assert np.isfinite(fit.theta_hat).all() and np.isfinite(fit.loss_at_min)
    theta, _ = dense_refine_example1(periodogram_moments(periodogram(fld)), [0.7, 4.0],
                                     TIE_BREAK)
    assert abs(fit.theta_hat[0] - theta) <= 1e-6


# --- affine families: one convex solve over the causal tetrahedron ----------

BAND_TRIPLE = [0.6, 0.5, 0.0]  # l1 + l2 + l3 = 1.1: D vanishes on the torus


def test_triple_fit_of_band_periodogram_is_causal():
    wide = SpectralModel("triple", n_modes=3, theta_box=[[-2, 2]] * 3)
    fit = estimate(SpectralModel("triple", n_modes=3), model_field(wide, BAND_TRIPLE, (32, 32)))
    assert fit.converged
    assert np.max(CAUSAL_FACES @ fit.theta_hat) <= 1 + 1e-9


@pytest.mark.parametrize("family", ["custom", "realdata_pmf"])
def test_affine_family_fit_recovers_pmf_triples(family):
    lam = family_triples("realdata_pmf", DEFAULT_TRUE_PMF, 10)
    fld = simulate_sarh1(Sarh1Params("custom", lam.ravel(), 10), (64, 64), seed=3)
    model = SpectralModel(family, n_modes=10)
    fit = estimate(model, fld)
    lam_hat = model.eig_triples(fit.theta_hat)
    rel = np.linalg.norm(lam_hat - lam, axis=1) / np.linalg.norm(lam, axis=1)
    assert fit.converged
    assert np.median(rel) <= 0.15, rel
    assert np.all(lam_hat @ CAUSAL_FACES.T <= 1 + 1e-9)
    # one Newton step per interior-point iteration, each loss evaluation exact:
    # iterations and line-search trials together stay far below one per
    # coordinate and iteration
    assert fit.n_loss_evals <= 100, fit.n_loss_evals


def test_box_without_causal_point_rejected():
    model = SpectralModel("triple", n_modes=2, theta_box=[[0.9, 0.95]] * 3)
    fld = model_field(SpectralModel("example1", n_modes=2), [1.0], (8, 8))
    with pytest.raises(ParameterDomainError):
        estimate(model, fld)


def _affine_case(name):
    """(model, field) of the seeded triple, custom and realdata_pmf fits and the
    band triple's noise-free field fitted by a causal triple."""
    if name == "band":
        wide = SpectralModel("triple", n_modes=3, theta_box=[[-2, 2]] * 3)
        return SpectralModel("triple", n_modes=3), model_field(wide, BAND_TRIPLE, (32, 32))
    if name == "triple":
        fld = simulate_sarh1(Sarh1Params("triple", [0.4, 0.3, -0.1], 5), (48, 40), seed=17)
        return SpectralModel("triple", n_modes=5), fld
    lam = family_triples("realdata_pmf", DEFAULT_TRUE_PMF, 10)
    fld = simulate_sarh1(Sarh1Params("custom", lam.ravel(), 10), (64, 64), seed=3)
    return SpectralModel(name, n_modes=10), fld


@pytest.mark.parametrize("name", ["triple", "custom", "realdata_pmf", "band"])
def test_affine_fit_not_above_slsqp_oracle(name):
    # the interior-point optimum against the linprog check and SLSQP solve of
    # the same epigraph program, at SLSQP's tightest useful ftol
    model, fld = _affine_case(name)
    moments = periodogram_moments(periodogram(fld))
    fit = estimate(model, fld)
    oracle, _ = slsqp_affine_fit(model, moments, TIE_BREAK, ftol=1e-14)
    assert fit.converged
    assert (affine_objective(model, moments, fit.theta_hat, TIE_BREAK)
            <= affine_objective(model, moments, oracle, TIE_BREAK) + 1e-12)
    assert np.max(model.eig_triples(fit.theta_hat) @ CAUSAL_FACES.T) <= 1 + 1e-9
    assert model.contains(fit.theta_hat)


@pytest.mark.parametrize("name", ["triple", "custom", "realdata_pmf", "band"])
def test_affine_fit_independent_of_its_start(name):
    # the convex program has one optimum: the box centre and another strictly
    # causal start reach it within 1e-8
    model, fld = _affine_case(name)
    gram = trig_moments(fld)[:, _GRAM]
    rng = np.random.default_rng(81)
    box = model.theta_box
    start = box.mean(axis=1) + 0.1 * (box[:, 1] - box[:, 0]) * rng.uniform(-1, 1, len(box))
    assert np.all(is_causal(model.eig_triples(start)))
    centre, _, ok_centre = _fit_trust_region(model, gram)
    other, _, ok_other = _fit_trust_region(model, gram, start=start)
    assert ok_centre and ok_other
    np.testing.assert_allclose(other, centre, rtol=0, atol=1e-8)


def test_affine_fit_leaves_unread_coordinates_at_the_box_midpoint():
    # at 4 modes no mode is in the pmf group (7, 9), so its deltas (coordinates 2, 5
    # and 8) enter no loss: they come back at the box midpoint from any start, and
    # the read ones agree within 1e-8
    model = SpectralModel("realdata_pmf", n_modes=4)
    fld = simulate_sarh1(Sarh1Params("realdata_pmf", DEFAULT_TRUE_PMF, 4), (24, 24), seed=5)
    gram = trig_moments(fld)[:, _GRAM]
    centre, _, ok_centre = _fit_trust_region(model, gram)
    other, _, ok_other = _fit_trust_region(model, gram, start=np.full(9, 0.05))
    assert ok_centre and ok_other
    unread = [2, 5, 8]
    read = np.setdiff1d(np.arange(9), unread)
    np.testing.assert_array_equal(centre[unread], other[unread])
    np.testing.assert_array_equal(centre[unread], model.theta_box[unread].mean(axis=1))
    np.testing.assert_allclose(other[read], centre[read], rtol=0, atol=1e-8)


@pytest.mark.parametrize("box", [[[0.2, 0.95], [0.2, 0.95], [-0.9, 0.9]],
                                 [[-0.9, -0.2], [0.2, 0.9], [-0.9, 0.3]]])
def test_affine_fit_from_phase_one_start(box):
    # box centres outside the causal set: (0.575, 0.575, 0) and (-0.55, 0.55, -0.3);
    # a phase I finds a strictly causal start
    model = SpectralModel("triple", n_modes=2, theta_box=box)
    fld = simulate_sarh1(Sarh1Params("custom", [0.5, 0.3, -0.1, 0.2, 0.6, 0.1], 2), (12, 12),
                         seed=21)
    assert not is_causal(model.theta_box.mean(axis=1))[0]
    moments = periodogram_moments(periodogram(fld))
    fit = estimate(model, fld)
    oracle, _ = slsqp_affine_fit(model, moments, TIE_BREAK, ftol=1e-14)
    assert fit.converged and model.contains(fit.theta_hat)
    assert np.max(CAUSAL_FACES @ fit.theta_hat) < 1.0
    assert (affine_objective(model, moments, fit.theta_hat, TIE_BREAK)
            <= affine_objective(model, moments, oracle, TIE_BREAK) + 1e-12)


def test_box_touching_causal_set_on_its_boundary_rejected():
    # the box meets the closed tetrahedron at (0.5, 0.5, 0) alone, a triple whose
    # D vanishes at w = 0: no strictly causal start, so no fit
    model = SpectralModel("triple", n_modes=2, theta_box=[[0.5, 0.9], [0.5, 0.9], [0.0, 0.9]])
    fld = model_field(SpectralModel("example1", n_modes=2), [1.0], (8, 8))
    with pytest.raises(ParameterDomainError, match="causal"):
        estimate(model, fld)


@pytest.mark.parametrize("family", ["triple", "custom"])
def test_affine_fit_is_scale_free(family):
    # the losses scale with the field's variance and the fit normalizes them:
    # a field times 1e-100, 1 or 1e100 has one theta_hat
    base = simulate_sarh1(Sarh1Params("custom", [0.5, 0.3, -0.1, 0.2, 0.6, 0.1], 2), (12, 12),
                          seed=21)
    model = SpectralModel(family, n_modes=2)
    fits = [estimate(model, CoeffField(c * base.data, base.basis)) for c in (1e-100, 1.0, 1e100)]
    assert all(fit.converged for fit in fits)
    for fit in fits[::2]:
        np.testing.assert_allclose(fit.theta_hat, fits[1].theta_hat, rtol=0, atol=1e-10)


@pytest.mark.parametrize("family", ["custom", "realdata_pmf"])
@pytest.mark.parametrize("n_modes", [2, 4])
def test_affine_fit_of_rank_one_moments_converges(family, n_modes):
    # a constant field's moments are rank one: every loss vanishes on the face
    # l1 + l2 + l3 = 1, where the interior-point gap stalls.  These fits used to end
    # unconverged after 315-438 evaluations with the sup loss already below 4e-13
    fit = estimate(SpectralModel(family, n_modes=n_modes),
                   CoeffField(np.ones((8, 8, n_modes)), BasisSpec(1.0, n_modes)))
    assert fit.converged
    assert fit.n_loss_evals <= 260
    assert fit.loss_at_min <= 1e-12


@pytest.mark.parametrize("seed", [21, 22, None])
def test_triple_fit_not_above_dense_grid_oracle(seed):
    # seeded fields of two causal modes, and (None) the band triple's spectrum
    if seed is None:
        wide = SpectralModel("triple", n_modes=2, theta_box=[[-2, 2]] * 3)
        pg = model_periodogram(wide, BAND_TRIPLE, (12, 12))
        fld = field_with_periodogram(pg)
    else:
        params = Sarh1Params("custom", [0.5, 0.3, -0.1, 0.2, 0.6, 0.1], 2)
        fld = simulate_sarh1(params, (12, 12), seed=seed)
        pg = periodogram(fld)
    fit = estimate(SpectralModel("triple", n_modes=2), fld)
    w1, w2 = pg.grid.meshes()
    assert fit.loss_at_min <= grid_min_triple_loss(pg.values.real, w1, w2, TRIPLE_BOX) + 1e-9


def test_loss_lower_bound_on_theta_grid():
    # with I := F_{theta0}, the grid-minimal loss sits at theta0 and equals 1
    model = SpectralModel("example1", n_modes=4)
    fld = model_field(model, [2.0], (24, 24))
    grid = np.linspace(0.7, 4.0, 34)
    losses = [whittle_loss(model, [t], fld) for t in grid]
    k = int(np.argmin(losses))
    assert abs(grid[k] - 2.0) < 0.11
    assert losses[k] >= 1.0 - 1e-12
    assert min(losses) == pytest.approx(1.0, abs=1e-3)


def test_cbn_ratio_integrals_finite():
    n = 64
    w = -np.pi + 2 * np.pi * np.arange(n) / n
    w1, w2 = np.meshgrid(w, w, indexing="ij")
    m1 = SpectralModel("example1", n_modes=3)
    thetas1 = [[0.7], [1.0], [2.5], [4.0]]
    for ta in thetas1:
        for tb in thetas1:
            ratio = m1.density(ta, w1, w2) / m1.density(tb, w1, w2)
            assert np.all(np.isfinite(ratio.mean(axis=(0, 1))))
    m2 = SpectralModel("example2", n_modes=3)
    thetas2 = [[0.7, 1.3, 1.2, 0.9], [1.0, 1.6, 1.5, 1.2], [1.3, 1.9, 1.8, 1.5]]
    for ta in thetas2:
        for tb in thetas2:
            ratio = m2.density(ta, w1, w2) / m2.density(tb, w1, w2)
            assert np.all(np.isfinite(ratio.mean(axis=(0, 1))))


# --- point-spectra model ----------------------------------------------------

REFERENCE_FIT_THETA = np.array([0.56, 0.08, 0.189,
                           0.28, 0.0, 0.0785,
                           0.0033, 0.4444, 0.1230])

# reference point-spectra estimates from an external fit of this family,
# frozen as fixtures (rows p=1..10, columns i=1..3); the data behind them is
# not distributed, so they are pinned values, not recomputed ones
REPORTED_SPECTRA = np.array([
    [0.6578, 0.2801, 0.4493],
    [0.5534, 0.2878, -0.0102],
    [0.6583, 0.2812, 0.4482],
    [0.5547, 0.2873, -0.0091],
    [0.6595, 0.2841, 0.4456],
    [0.5572, 0.2860, -0.0061],
    [0.7490, 0.3525, 0.1316],
    [0.5620, 0.2819, 0.0021],
    [0.7507, 0.3614, 0.1211],
    [0.5678, 0.2634, 0.0398],
])


REFERENCE_TRIPLES = family_triples("realdata_pmf", REFERENCE_FIT_THETA, 10)


def test_pmf_triple_layout():
    lam = REFERENCE_TRIPLES[0]
    assert lam[0] == pytest.approx(0.56 + 0.08)   # 0.64, vs 0.6578 reported
    assert lam[1] == pytest.approx(0.28)
    lam2 = REFERENCE_TRIPLES[1]
    assert lam2[0] == pytest.approx(0.56)         # even p: base value only
    lam7 = REFERENCE_TRIPLES[6]
    assert lam7[0] == pytest.approx(0.56 + 0.189)
    assert lam7[2] == pytest.approx(0.0033 + 0.1230)


def test_pmf_even_modes_reduce_to_base():
    for p in (2, 4, 6, 8, 10):
        assert tuple(REFERENCE_TRIPLES[p - 1]) == (0.56, 0.28, 0.0033)


def test_reported_spectra_fixture_values():
    # the literal point-spectra formula does not reproduce the reported rows
    # exactly (0.64 vs 0.6578 at p=1), so the frozen table is the ground
    # truth for spectra built from reported values
    assert REPORTED_SPECTRA[1, 2] == pytest.approx(-0.0102)
    assert REPORTED_SPECTRA[0, 0] == pytest.approx(0.6578)
    assert abs(REFERENCE_TRIPLES[0, 0] - REPORTED_SPECTRA[0, 0]) < 0.02
    # by the exact torus criterion |c| <= 2|d| the reported rows of the even
    # modes are causal, while those of the odd modes vanish on the torus
    # (c - 2|d| = -0.41 at p = 1).  The grid minimum of |D| stays above 1e-3
    # on a 256^2 grid, but the grid check with its spacing threshold agrees.
    _, _, lo, hi = _face_margins(REPORTED_SPECTRA)
    torus_zero = ~(np.sign(lo) * np.sign(hi) > 0)  # c -+ 2d not of one strict sign
    odd, even = REPORTED_SPECTRA[0::2], REPORTED_SPECTRA[1::2]
    assert np.all(is_causal(even)) and not np.any(torus_zero[1::2])
    assert np.all(torus_zero[0::2]) and not np.any(is_causal(odd))
    for row, zero in zip(REPORTED_SPECTRA, torus_zero):
        assert grid_has_torus_zero(tuple(row)) == zero


def test_realdata_pmf_spectrum_values_and_errors():
    # the odd reference triples lie in the torus-zero band, where the
    # C2 prefactor is a quadrature, so read the even mode 2 (causal)
    model = SpectralModel("realdata_pmf", n_modes=2)
    val = model.density(REFERENCE_FIT_THETA, 0.0, 0.0)[1]
    triple = REFERENCE_TRIPLES[1]
    d = abs(1 - triple[0] - triple[1] - triple[2]) ** 2
    assert val == pytest.approx((1 / TWO_PI_SQ) / d, rel=1e-10)
    # base triple (1.2, 0.3, 0): |c| <= 2|d|, no covariance exists
    with pytest.raises(SingularSpectrumError):
        cov_from_spectrum(model, np.array([1.2, 0, 0, 0.3, 0, 0, 0.0, 0, 0]), [(0, 0)])


def test_estimate_realdata_pmf_recovers_triples():
    theta_true = np.array([0.30, 0.10, 0.05, 0.22, 0.06, -0.04, -0.08, -0.03, 0.03])
    lam_true = family_triples("realdata_pmf", theta_true, 10)
    params = Sarh1Params("custom", lam_true.ravel(), 10)
    fld = simulate_sarh1(params, (96, 96), seed=404)
    model = SpectralModel("realdata_pmf", n_modes=10)
    fit = estimate(model, fld)
    lam_hat = model.eig_triples(fit.theta_hat)
    assert lam_hat.shape == (10, 3)
    rel = np.linalg.norm(lam_hat - lam_true, axis=1) / np.linalg.norm(lam_true, axis=1)
    assert np.median(rel) < 0.25
    assert fit.loss_at_min > 0
    # reconstruction consistency: theta_hat reproduces lam_hat through the model
    lam_back = family_triples("realdata_pmf", fit.theta_hat, 10)
    np.testing.assert_allclose(lam_back, lam_hat, atol=1e-12)


# --- example2: the trust-region loop ---------------------------------------


@pytest.mark.parametrize("seed", range(10))
def test_example2_fit_not_above_slsqp_oracle(seed):
    # the trust-region optimum against SLSQP's solve of the same epigraph program
    # at its tightest useful ftol, on seeded fields
    model = SpectralModel("example2", n_modes=4)
    fld = simulate_sarh1(Sarh1Params("example2", [1.0, 1.6, 1.5, 1.2], 4), (32, 32), seed=seed)
    moments = trig_moments(fld)
    fit = estimate(model, fld)
    oracle, _ = slsqp_example2_fit(model, moments, 1e-14, TIE_BREAK)
    assert fit.converged and model.contains(fit.theta_hat)
    assert (example2_objective(moments, fit.theta_hat, TIE_BREAK)
            <= example2_objective(moments, oracle, TIE_BREAK) + 1e-12)


def test_example2_noise_free_fits_bound_their_evaluations():
    # criterion 7's noise-free spectra bind every mode with a zero gradient, where
    # the inner solves need most evaluations: each fit converges within 400 of
    # them (338 at most, against 36-48 for SLSQP) and recovers theta* within 1e-5
    rng = np.random.default_rng(77)
    rng.random((10, 1))  # criterion 7's example1 draws come first
    model = SpectralModel("example2", n_modes=10)
    box = model.theta_box
    for _ in range(10):
        theta_star = box[:, 0] + rng.random(4) * (box[:, 1] - box[:, 0])
        fit = estimate(model, model_field(model, theta_star, (64, 64)))
        assert fit.converged and fit.n_loss_evals <= 400, fit.n_loss_evals
        assert np.max(np.abs(fit.theta_hat - theta_star)) <= 1e-5


# --- the local models of the trust-region fit -------------------------------


@pytest.mark.parametrize("family", ["example2", "triple", "custom", "realdata_pmf"])
def test_mode_loss_jacobian_matches_central_differences(family):
    # interior theta in the causal set, where sigma2 is the model's own: the local
    # model's value is the loss, its gradient the central difference of the losses, P is
    # J' G[1:, 1:] J with J the central difference of the triples, and the model at
    # theta + d is the Gram form at the linearised triples l + J d, which for the affine
    # families are the triples at theta + d
    rng = np.random.default_rng(61)
    n_modes = 4
    fld = simulate_sarh1(Sarh1Params("example2", [1.0, 1.6, 1.5, 1.2], n_modes), (20, 24),
                         seed=62)
    gram = trig_moments(fld)[:, _GRAM]
    model = SpectralModel(family, n_modes=n_modes)
    box = model.theta_box
    read = np.ones(len(box), dtype=bool)
    centre, half = box.mean(axis=1), (box[:, 1] - box[:, 0]) / 2
    scale = 0.9 if family == "example2" else 0.15  # affine: |l1| + |l2| + |l3| < 1
    for _ in range(3):
        theta = centre + scale * half * rng.uniform(-1, 1, size=centre.size)
        triples = model.eig_triples(theta)
        assert np.all(is_causal(triples))
        (c, b, p), _ = _local_model(model, gram, theta, read)
        np.testing.assert_allclose(TWO_PI_SQ * c, _inverse_functional(triples, gram), rtol=1e-12)
        h = 1e-5 * np.maximum(1.0, np.abs(theta))
        steps = [h[j] * e for j, e in enumerate(np.eye(theta.size))]
        fd = np.stack([(_inverse_functional(model.eig_triples(theta + e), gram)
                        - _inverse_functional(model.eig_triples(theta - e), gram)) / (2 * h[j])
                       for j, e in enumerate(steps)], axis=1) / TWO_PI_SQ
        np.testing.assert_allclose(b, fd, rtol=1e-6, atol=1e-9 * np.abs(fd).max())
        jac = np.stack([(model.eig_triples(theta + e) - model.eig_triples(theta - e)) / (2 * h[j])
                        for j, e in enumerate(steps)], axis=2)
        np.testing.assert_allclose(p, np.einsum("kiq,kij,kjr->kqr", jac, gram[:, 1:, 1:], jac),
                                   rtol=1e-7, atol=1e-9 * np.abs(p).max())
        d = 0.1 * half * rng.uniform(-1, 1, size=centre.size)
        linear = triples + family_jacobian(family, theta, n_modes) @ d
        if family != "example2":
            np.testing.assert_allclose(linear, model.eig_triples(theta + d), rtol=0, atol=1e-15)
        np.testing.assert_allclose(c + (b + p @ d) @ d, _gram_form(linear, gram)[0],
                                   rtol=1e-12)


@settings(deadline=None, max_examples=40)
@given(family=st.sampled_from(["example2", "triple", "custom", "realdata_pmf"]),
       dims=st.tuples(st.integers(1, 6), st.integers(1, 6)),
       seed=st.integers(0, 2**32 - 1), u=st.lists(st.floats(0.0, 1.0), min_size=12, max_size=12))
def test_local_model_curvature_is_psd_without_clipping(family, dims, seed, u):
    # P_k = J_k' G_k[1:, 1:] J_k with G_k PSD for any field's moments, at any theta of the box
    n_modes = 4
    model = SpectralModel(family, n_modes=n_modes)
    box = model.theta_box
    theta = box[:, 0] + np.resize(u, len(box)) * (box[:, 1] - box[:, 0])
    fld = CoeffField(np.random.default_rng(seed).standard_normal(dims + (n_modes,)),
                     BasisSpec(1.0, n_modes))
    (_, _, p), _ = _local_model(model, trig_moments(fld)[:, _GRAM], theta,
                                np.ones(len(box), dtype=bool))
    scale = np.abs(p).max(axis=(1, 2))
    np.testing.assert_allclose(p, p.transpose(0, 2, 1), rtol=0, atol=1e-15 * scale.max())
    assert np.all(np.linalg.eigvalsh(p).min(axis=1) >= -1e-12 * scale)


def test_estimate_leaves_out_numpy_ma():
    # np.unique's masked-array test imported numpy.ma on the first estimate, about 13 ms
    # and 1 MiB: an example1 and a realdata_pmf fit, in a fresh interpreter
    code = ("import sys\n"
            "from spatialcox import Sarh1Params, SpectralModel, estimate, simulate_sarh1\n"
            "fld = simulate_sarh1(Sarh1Params('example1', [1.0], 4), (16, 16), seed=1)\n"
            "for family in ('example1', 'realdata_pmf'):\n"
            "    estimate(SpectralModel(family, 4), fld)\n"
            "print('numpy.ma' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
    assert out.stdout.strip() == "False"
