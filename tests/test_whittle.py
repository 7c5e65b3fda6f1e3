import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from oracles import (dense_mode_losses, grid_has_torus_zero, grid_min_triple_loss,
                     normalize_c2, rational_density)
from spatialcox import (EstimateOptions, FrequencyGrid, Periodogram, Sarh1Params,
                        SpectralModel, cov_from_spectrum, estimate, family_triples, is_causal,
                        periodogram, simulate_sarh1, trig_moments, whittle_loss)
from spatialcox.errors import ParameterDomainError, SingularSpectrumError
from spatialcox.pipeline import DEFAULT_TRUE_PMF
from spatialcox.sarh import CAUSAL_FACES, TRIPLE_BOX, _has_torus_zero
from spatialcox.whittle import _mode_losses_fast, _mode_losses_with_grad

TWO_PI_SQ = (2 * np.pi) ** 2


def model_periodogram(model, theta, dims):
    """Noise-free periodogram: I := F_{., theta} on the Fourier grid."""
    grid = FrequencyGrid(dims)
    w1, w2 = grid.meshes()
    return Periodogram(grid, model.density(theta, w1, w2).astype(complex))


# --- spectral density -------------------------------------------------------


def test_density_white_noise_is_flat():
    # innovation sd 1: F = 1 / (2 pi)^2, whose integral over the torus is 1
    model = SpectralModel("custom", n_modes=1, theta_box=[[-1, 1]] * 3,
                          noise_sd=np.array([1.0]))
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
        dens = model.density([theta], w1, w2, unit_sigma=True) * s2
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
    model = SpectralModel("custom", n_modes=1, theta_box=[[-2, 2]] * 3,
                          noise_sd=None)
    with pytest.raises(SingularSpectrumError):
        normalize_c2(model, np.array([1.0, 0.0, 0.0]))  # unit root at omega_1 = 0


# --- loss -------------------------------------------------------------------


def test_loss_at_matching_spectrum_is_one():
    model = SpectralModel("example1", n_modes=4)
    pg = model_periodogram(model, [1.2], (16, 12))
    assert whittle_loss(model, [1.2], pg) == pytest.approx(1.0, abs=1e-14)


def test_loss_scales_linearly():
    model = SpectralModel("example1", n_modes=2)
    params = Sarh1Params("example1", [1.0], 2)
    fld = simulate_sarh1(params, (24, 24), burn_in=20, seed=5)
    pg = periodogram(fld)
    base = whittle_loss(model, [1.0], pg)
    scaled = Periodogram(pg.grid, 3.0 * pg.values)
    assert whittle_loss(model, [1.0], scaled) == pytest.approx(3.0 * base, rel=1e-12)


def test_fast_path_equals_dense():
    params = Sarh1Params("example2", [1.0, 1.6, 1.5, 1.2], 5)
    fld = simulate_sarh1(params, (20, 28), burn_in=20, seed=6)
    pg = periodogram(fld)
    moments = trig_moments(pg)
    for family, theta in (("example2", [0.9, 1.5, 1.4, 1.1]),
                          ("example1", [2.2]),
                          ("triple", [0.3, 0.2, -0.05])):
        model = SpectralModel(family, n_modes=5)
        dense = dense_mode_losses(model, theta, pg)
        fast = _mode_losses_fast(model, theta, moments)
        np.testing.assert_allclose(fast, dense, rtol=1e-11)


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
    assert whittle_loss(model, theta, pg) == pytest.approx(dense, rel=1e-9)


def test_loss_monte_carlo_near_one_and_locally_minimal():
    model = SpectralModel("example1", n_modes=10)
    params = Sarh1Params("example1", [1.0], 10)
    at_true, wins = [], 0
    for seed in range(20):
        fld = simulate_sarh1(params, (256, 256), burn_in=100, seed=42_000 + seed)
        pg = periodogram(fld)
        m = trig_moments(pg)
        l0 = _mode_losses_fast(model, [1.0], m).max()
        lm = _mode_losses_fast(model, [0.7], m).max()
        lp = _mode_losses_fast(model, [1.3], m).max()
        at_true.append(l0)
        wins += (l0 < lm) and (l0 < lp)
    assert abs(np.mean(at_true) - 1.0) < 0.05
    assert wins >= 18


def test_loss_domain_errors():
    model = SpectralModel("example1", n_modes=2)
    pg = model_periodogram(model, [1.0], (8, 8))
    with pytest.raises(ParameterDomainError):
        whittle_loss(model, [5.0], pg)
    other = SpectralModel("example1", n_modes=3)
    with pytest.raises(ParameterDomainError):
        whittle_loss(other, [1.0], pg)


# --- estimation -------------------------------------------------------------


def test_estimate_noise_free_recovers_theta():
    model = SpectralModel("example1", n_modes=6)
    pg = model_periodogram(model, [1.7], (32, 32))
    fit = estimate(model, pg, EstimateOptions(loss_tol=1e-12, max_evals=2000))
    assert abs(fit.theta_hat[0] - 1.7) < 1e-4
    assert abs(fit.loss_at_min - 1.0) < 1e-3
    assert fit.converged


def test_estimate_respects_box_and_beats_bracketing_grid():
    model = SpectralModel("example1", n_modes=3)
    params = Sarh1Params("example1", [1.0], 3)
    pg = periodogram(simulate_sarh1(params, (32, 32), burn_in=20, seed=8))
    fit = estimate(model, pg)
    assert model.contains(fit.theta_hat)
    assert fit.loss_at_min == whittle_loss(model, fit.theta_hat, pg)
    grid_losses = [whittle_loss(model, [t], pg) for t in np.linspace(0.7, 4.0, 64)]
    assert fit.loss_at_min <= min(grid_losses) + 1e-9
    assert fit.n_loss_evals > 0


def test_estimate_is_pure_function_of_periodogram():
    model = SpectralModel("example1", n_modes=3)
    params = Sarh1Params("example1", [1.0], 3)
    pg = periodogram(simulate_sarh1(params, (32, 32), burn_in=20, seed=9))
    a = estimate(model, pg)
    b = estimate(model, pg)
    np.testing.assert_array_equal(a.theta_hat, b.theta_hat)
    assert a.loss_at_min == b.loss_at_min


def test_estimate_json_roundtrip(tmp_path):
    model = SpectralModel("example1", n_modes=2)
    pg = model_periodogram(model, [1.1], (8, 8))
    fit = estimate(model, pg)
    path = tmp_path / "est.json"
    fit.to_json(path)
    import json
    back = json.loads(path.read_text())
    assert back["family"] == "example1"
    assert back["theta_hat"][0] == pytest.approx(fit.theta_hat[0])
    assert set(back) == {"family", "theta_hat", "loss_at_min", "n_loss_evals", "converged",
                         "runtime_s"}


@pytest.mark.parametrize("family, theta", [("example1", [1.2]), ("triple", [0.3, 0.2, 0.0])])
def test_zero_noise_sd_rejected_by_fit(family, theta):
    # a zero innovation sd makes the mode's density vanish, so I / F is undefined
    model = SpectralModel(family, n_modes=2, noise_sd=[1.0, 0.0])
    pg = model_periodogram(SpectralModel(family, n_modes=2), theta, (8, 8))
    with pytest.raises(SingularSpectrumError):
        estimate(model, pg)
    with pytest.raises(SingularSpectrumError):
        whittle_loss(model, theta, pg)


def test_fit_with_fixed_noise_sd_recovers_theta():
    # noise_sd is the innovation sd: a periodogram of innovation sd 2 fitted
    # with noise_sd = 2 gives the true theta at loss 1
    model = SpectralModel("example1", n_modes=3, noise_sd=[2.0, 2.0, 2.0])
    pg = model_periodogram(model, [1.7], (32, 32))
    scaled = model_periodogram(SpectralModel("example1", n_modes=3), [1.7], (32, 32))
    np.testing.assert_allclose(pg.values, 4.0 * scaled.values, rtol=1e-14)
    fit = estimate(model, pg, EstimateOptions(loss_tol=1e-12, max_evals=2000))
    assert abs(fit.theta_hat[0] - 1.7) < 1e-4
    assert fit.loss_at_min == pytest.approx(1.0, abs=1e-3)


# --- affine families: one convex solve over the causal tetrahedron ----------

BAND_TRIPLE = [0.6, 0.5, 0.0]  # l1 + l2 + l3 = 1.1: D vanishes on the torus
AFFINE_OPTS = EstimateOptions(loss_tol=1e-10, max_evals=3000)


def test_triple_fit_of_band_periodogram_is_causal():
    wide = SpectralModel("triple", n_modes=3, theta_box=[[-2, 2]] * 3)
    pg = model_periodogram(wide, BAND_TRIPLE, (32, 32))
    fit = estimate(SpectralModel("triple", n_modes=3), pg, AFFINE_OPTS)
    assert fit.converged
    assert np.max(CAUSAL_FACES @ fit.theta_hat) <= 1 + 1e-9


@pytest.mark.parametrize("family", ["custom", "realdata_pmf"])
def test_affine_family_fit_recovers_pmf_triples(family):
    lam = family_triples("realdata_pmf", DEFAULT_TRUE_PMF, 10)
    fld = simulate_sarh1(Sarh1Params("custom", lam.ravel(), 10), (64, 64), burn_in=60,
                         seed=3)
    model = SpectralModel(family, n_modes=10)
    fit = estimate(model, periodogram(fld), AFFINE_OPTS)
    lam_hat = model.eig_triples(fit.theta_hat)
    rel = np.linalg.norm(lam_hat - lam, axis=1) / np.linalg.norm(lam, axis=1)
    assert fit.converged
    assert np.median(rel) <= 0.15, rel
    assert np.all(lam_hat @ CAUSAL_FACES.T <= 1 + 1e-9)
    # exact gradients: one loss evaluation per SLSQP step, not one per coordinate
    assert fit.n_loss_evals <= 100, fit.n_loss_evals


def test_box_without_causal_point_rejected():
    model = SpectralModel("triple", n_modes=2, theta_box=[[0.9, 0.95]] * 3)
    pg = model_periodogram(SpectralModel("example1", n_modes=2), [1.0], (8, 8))
    with pytest.raises(ParameterDomainError):
        estimate(model, pg)


@pytest.mark.parametrize("seed", [21, 22, None])
def test_triple_fit_not_above_dense_grid_oracle(seed):
    # seeded fields of two causal modes, and (None) the band triple's spectrum
    if seed is None:
        wide = SpectralModel("triple", n_modes=2, theta_box=[[-2, 2]] * 3)
        pg = model_periodogram(wide, BAND_TRIPLE, (12, 12))
    else:
        params = Sarh1Params("custom", [0.5, 0.3, -0.1, 0.2, 0.6, 0.1], 2)
        pg = periodogram(simulate_sarh1(params, (12, 12), burn_in=30, seed=seed))
    fit = estimate(SpectralModel("triple", n_modes=2), pg, AFFINE_OPTS)
    w1, w2 = pg.grid.meshes()
    assert fit.loss_at_min <= grid_min_triple_loss(pg.diag_real(), w1, w2, TRIPLE_BOX) + 1e-9


def test_loss_lower_bound_on_theta_grid():
    # with I := F_{theta0}, the grid-minimal loss sits at theta0 and equals 1
    model = SpectralModel("example1", n_modes=4)
    pg = model_periodogram(model, [2.0], (24, 24))
    grid = np.linspace(0.7, 4.0, 34)
    losses = [whittle_loss(model, [t], pg) for t in grid]
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
    odd, even = REPORTED_SPECTRA[0::2], REPORTED_SPECTRA[1::2]
    assert np.all(is_causal(even)) and not np.any(_has_torus_zero(even))
    assert np.all(_has_torus_zero(odd)) and not np.any(is_causal(odd))
    for row in REPORTED_SPECTRA:
        assert grid_has_torus_zero(tuple(row)) == _has_torus_zero(row)[0]


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
    params = Sarh1Params("custom", lam_true.ravel(), 10, noise_sd=np.ones(10))
    fld = simulate_sarh1(params, (96, 96), burn_in=60, seed=404)
    pg = periodogram(fld)
    model = SpectralModel("realdata_pmf", n_modes=10)
    fit = estimate(model, pg, EstimateOptions(loss_tol=1e-10, max_evals=3000))
    lam_hat = model.eig_triples(fit.theta_hat)
    assert lam_hat.shape == (10, 3)
    rel = np.linalg.norm(lam_hat - lam_true, axis=1) / np.linalg.norm(lam_true, axis=1)
    assert np.median(rel) < 0.25
    assert fit.loss_at_min > 0
    # reconstruction consistency: theta_hat reproduces lam_hat through the model
    lam_back = family_triples("realdata_pmf", fit.theta_hat, 10)
    np.testing.assert_allclose(lam_back, lam_hat, atol=1e-12)


# --- exact gradients of the per-mode losses ---------------------------------


@pytest.mark.parametrize("family", ["example2", "triple", "custom", "realdata_pmf"])
def test_mode_loss_jacobian_matches_central_differences(family):
    # interior theta in the causal set, where sigma2 is the model's own
    rng = np.random.default_rng(61)
    n_modes = 4
    fld = simulate_sarh1(Sarh1Params("example2", [1.0, 1.6, 1.5, 1.2], n_modes), (20, 24),
                         burn_in=20, seed=62)
    moments = trig_moments(periodogram(fld))
    model = SpectralModel(family, n_modes=n_modes)
    box = model.theta_box
    centre, half = box.mean(axis=1), (box[:, 1] - box[:, 0]) / 2
    scale = 0.9 if family == "example2" else 0.15  # affine: |l1| + |l2| + |l3| < 1
    for _ in range(3):
        theta = centre + scale * half * rng.uniform(-1, 1, size=centre.size)
        assert np.all(is_causal(model.eig_triples(theta)))
        losses, jac = _mode_losses_with_grad(model, theta, moments)
        np.testing.assert_allclose(losses, _mode_losses_fast(model, theta, moments), rtol=1e-12)
        h = 1e-5 * np.maximum(1.0, np.abs(theta))
        fd = np.stack([(_mode_losses_fast(model, theta + h[j] * e, moments)
                        - _mode_losses_fast(model, theta - h[j] * e, moments)) / (2 * h[j])
                       for j, e in enumerate(np.eye(theta.size))], axis=1)
        np.testing.assert_allclose(jac, fd, rtol=1e-6, atol=1e-9 * np.abs(fd).max())
