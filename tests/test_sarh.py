import os
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from oracles import (bidisk_min_gap, crude_sum_margins, eigenvalues_example1,
                     eigenvalues_example2, exact_axis_cov, exact_face_margins, grid_has_torus_zero,
                     log_denominator_mean, naive_sarh, pmf_triple_scalar, quadrature_sigma2_c2,
                     rational_density, scatter_sarh1, separable_cov,
                     torus_min_abs_denominator)
from spatialcox import (Sarh1Params, TestFunction, c2_innovation_var, cov_from_spectrum, cov_map,
                        empirical_cov, family_triples, fejer_smoothed_inverse, is_causal,
                        periodogram, simulate_sarh1, SpectralModel)
from spatialcox.errors import ParameterDomainError, StationarityError
from spatialcox import sarh
from spatialcox.sarh import CAUSAL_FACES, _causal_frame, _face_margins


def test_example1_eigenvalues_at_truth():
    l1, l2, l3 = family_triples("example1", [1.0], 1)[0]
    assert l1 == pytest.approx(0.1013211836, abs=1e-9)
    assert l2 == pytest.approx(0.1013211836, abs=1e-9)
    assert l3 == pytest.approx(-0.0102659813, abs=1e-9)


def test_example1_decay_in_k():
    vals = family_triples("example1", [1.0], 1000)[[0, 9, 99, 999]]
    assert np.all(np.diff(np.abs(vals), axis=0) <= 0)
    assert np.all(np.abs(vals[-1]) < 2e-4)


def test_example1_closed_form_oracle():
    l1, l2, l3 = family_triples("example1", [2.0], 2)[1]
    assert l1 == pytest.approx(4.0 / (np.pi**2 * 2**1.1), rel=1e-12)
    assert l2 == pytest.approx(4.0 / (np.pi**2 * 2**1.2), rel=1e-12)
    assert l3 == pytest.approx(-l1 * l2, rel=1e-12)


def test_example1_domain():
    with pytest.raises(ParameterDomainError):
        family_triples("example1", [0.5], 1)
    with pytest.raises(ParameterDomainError):
        family_triples("example1", [4.5], 1)


def test_example2_eigenvalues_at_truth():
    l1, l2, l3 = family_triples("example2", [1.0, 1.6, 1.5, 1.2], 1)[0]
    assert l1 == pytest.approx(0.384615384615, abs=1e-9)
    assert l2 == pytest.approx(0.681818181818, abs=1e-9)
    assert l3 == pytest.approx(-0.262237762238, abs=1e-9)


def test_example2_composition_identity_and_k10():
    rng = np.random.default_rng(0)
    for _ in range(5):
        th = np.array([0.7, 1.3, 1.2, 0.9]) + rng.random(4) * np.array([0.6, 0.6, 0.6, 0.6])
        lam = family_triples("example2", th, 10)
        for k in (1, 3, 10):
            l1, l2, l3 = lam[k - 1]
            assert l3 == pytest.approx(-l1 * l2, rel=1e-14)
    l1, l2, l3 = family_triples("example2", [1.0, 1.6, 1.5, 1.2], 10)[9]
    assert l1 == pytest.approx(1.0 / 11.6, rel=1e-12)
    assert l2 == pytest.approx(1.5 / 11.2, rel=1e-12)


def test_example2_domain():
    with pytest.raises(ParameterDomainError):
        family_triples("example2", [0.5, 1.6, 1.5, 1.2], 1)


def test_stationarity_example1():
    triples = family_triples("example1", [1.0], 10)
    assert np.all(is_causal(triples))
    margins = crude_sum_margins(triples)
    assert margins[0] == pytest.approx(1.0 - 0.2129083495, abs=1e-9)
    assert np.all(np.diff(margins) > 0)


def test_stationarity_custom_violation():
    # (0.6, 0.5, 0): c = 1.11 <= 2|d| = 1.2, so D vanishes on the unit torus
    triples = family_triples("custom", [0.6, 0.5, 0.0], 1)
    assert not is_causal(triples)[0]
    assert grid_has_torus_zero(triples[0])
    assert crude_sum_margins(triples)[0] <= 0


def test_stationarity_example2_true_values_fails_crude_bound():
    # the sum bound rejects mode 1, yet every mode is causal
    triples = family_triples("example2", [1.0, 1.6, 1.5, 1.2], 10)
    margins = crude_sum_margins(triples)
    assert margins[0] == pytest.approx(1.0 - 1.3286713286713288, abs=1e-9)
    assert np.all(margins[1:] > 0)
    assert np.all(is_causal(triples))


def test_simulate_degenerate_ar_is_iid():
    # innovation sds (1, 2): the unit field times the sds
    params = Sarh1Params("custom", [0.0, 0.0, 0.0, 0.0, 0.0, 0.0], 2)
    fld = simulate_sarh1(params, (200, 200), seed=42)
    var = (fld.data * [1.0, 2.0]).var(axis=(0, 1))
    assert abs(var[0] - 1.0) < 0.05
    assert abs(var[1] - 4.0) < 0.2


def _fail(*args):
    raise AssertionError("the other simulation kernel ran")


# the anti-diagonal bounds of the sweep bind differently on each shape; the
# separable triples (l3 == -l1*l2 exactly) take the AR(1) passes instead, which
# round differently from the site recursion: by ulps of the field's scale, so a
# cell near zero differs by more than 1e-13 of itself
_SHAPES = {"12x9": (12, 9), "9x12": (9, 12), "2x2": (2, 2), "2x7": (2, 7), "31x3": (31, 3)}
_KERNEL_CASES = {
    "": ("custom", [0.5, 0.3, -0.2, -0.4, 0.2, 0.1, 0.3, -0.6, 0.05], "_ar1_passes"),
    "-example1": ("example1", [1.0], "_sweep"),
    "-example2": ("example2", [1.0, 1.6, 1.5, 1.2], "_sweep"),
    "-custom_separable": ("custom", [0.5, 0.4, -0.2, -0.6, 0.5, 0.3, 0.25, -0.8, 0.2],
                          "_sweep")}


@pytest.mark.parametrize("dims, family, theta, other", [
    pytest.param(shape, *case, id=shape_id + case_id)
    for case_id, case in _KERNEL_CASES.items() for shape_id, shape in _SHAPES.items()])
def test_simulate_matches_naive_recursion(dims, family, theta, other, monkeypatch):
    monkeypatch.setattr(sarh, other, _fail)
    fast = simulate_sarh1(Sarh1Params(family, theta, 3), dims, seed=7)
    slow = naive_sarh(family_triples(family, theta, 3), dims, 7)
    if other == "_ar1_passes":
        np.testing.assert_array_equal(fast.data, slow)
    else:
        np.testing.assert_allclose(fast.data, slow, rtol=1e-13, atol=1e-13 * np.abs(slow).max())


# every family: example1, example2 and the separable triple take the AR(1) passes, the
# others the edge chains and the sweep
_FAMILY_CASES = {
    "example1": ("example1", [1.0]),
    "example2": ("example2", [1.0, 1.6, 1.5, 1.2]),
    "triple_separable": ("triple", [0.5, -0.4, 0.2]),
    "triple": ("triple", [0.5, 0.3, -0.1]),
    "custom": ("custom", [0.5, 0.3, -0.2, -0.4, 0.2, 0.1, 0.3, -0.6, 0.05, 0.1, 0.1, 0.1]),
    "realdata_pmf": ("realdata_pmf", [0.32, 0.08, 0.04, 0.26, 0.04, -0.04, -0.10, -0.02, 0.04]),
}


@pytest.mark.parametrize("dims", [(2, 2), (2, 5), (7, 3), (16, 16), (40, 25)],
                         ids=lambda d: f"{d[0]}x{d[1]}")
@pytest.mark.parametrize("family, theta", list(_FAMILY_CASES.values()), ids=list(_FAMILY_CASES))
def test_simulate_equals_the_scatter_draw_bit_for_bit(family, theta, dims):
    # the mode-major buffer takes the stream in the order of one (n1, n2) draw per mode,
    # and its filters do the scatter layout's operations in the same order
    params = Sarh1Params(family, theta, 4)
    fld = simulate_sarh1(params, dims, seed=11)
    want = scatter_sarh1(params.model.eig_triples(params.theta), dims, 11)
    assert fld.data.shape == want.shape
    assert fld.data.tobytes() == want.tobytes()


@pytest.mark.parametrize("family, theta", [("example1", [1.0]), ("triple", [0.5, 0.3, -0.1])],
                         ids=["passes", "sweep"])
def test_simulate_ignores_burn_in(family, theta):
    # no margin is simulated, so every burn_in gives the same field bit for bit
    params = Sarh1Params(family, theta, 3)
    want = simulate_sarh1(params, (9, 7), seed=5).data
    for burn_in in (0, 20, 100):
        got = simulate_sarh1(params, (9, 7), burn_in=burn_in, seed=5).data
        np.testing.assert_array_equal(got, want)


# one separable triple (the AR(1) passes) and two that are not (the sweep)
@pytest.mark.parametrize("triple", [(0.6, -0.5, 0.3), (0.5, 0.45, 0.0), (-0.3, 0.6, 0.25)],
                         ids=["separable", "near_band", "mixed_signs"])
def test_simulated_field_has_the_exact_stationary_law(triple):
    # 20,000 independent 6x8 fields, one per mode: the corner, the edges and the
    # interior each have variance R_0, and lag-one pairs within the column 0
    # chain, the row 0 chain, across the corner and inside have the covariances
    # of cov_from_spectrum, within 3 standard errors.  A zero-started 6x8 field
    # of (0.5, 0.45, 0) has variance 2.68 at (5, 5) against R_0 = 3.21
    n = 20_000
    params = Sarh1Params("triple", triple, n)
    x = simulate_sarh1(params, (6, 8), seed=123).data
    r = cov_from_spectrum(params.model, params.theta, [(0, 0), (1, 0), (0, 1), (1, 1), (1, -1)])
    r = dict(zip(["0", "10", "01", "11", "1-1"], r[:, 0]))
    inner = x[1:, 1:]
    checks = {
        "corner variance": (x[0, 0] ** 2, r["0"]),
        "edge variance": ((np.concatenate([x[1:, 0], x[0, 1:]]) ** 2).mean(axis=0), r["0"]),
        "interior variance": ((inner**2).mean(axis=(0, 1)), r["0"]),
        "column 0 lag (1, 0)": ((x[1:, 0] * x[:-1, 0]).mean(axis=0), r["10"]),
        "row 0 lag (0, 1)": ((x[0, 1:] * x[0, :-1]).mean(axis=0), r["01"]),
        "across the corner lag (1, -1)": (x[1, 0] * x[0, 1], r["1-1"]),
        "interior lag (1, 0)": ((inner[1:] * inner[:-1]).mean(axis=(0, 1)), r["10"]),
        "interior lag (0, 1)": ((inner[:, 1:] * inner[:, :-1]).mean(axis=(0, 1)), r["01"]),
        "interior lag (1, 1)": ((inner[1:, 1:] * inner[:-1, :-1]).mean(axis=(0, 1)), r["11"]),
        "interior lag (1, -1)": ((inner[1:, :-1] * inner[:-1, 1:]).mean(axis=(0, 1)), r["1-1"]),
    }
    for name, (per_field, want) in checks.items():
        se = per_field.std(ddof=1) / np.sqrt(n)
        assert abs(per_field.mean() - want) < 3 * se, (name, per_field.mean(), want, se)


def test_face_margins_are_exact_near_a_face():
    # 1 - (l1 + l2 + l3) with the sum rounded first gave m0 = 1.0000000000287557e-06
    # at (0.5, 0.399999, 0.1), a relative error of 2.8e-11
    for triple in [(0.5, 0.399999, 0.1), (0.5, 0.4999999999, 0.0)]:
        np.testing.assert_allclose(_face_margins([triple])[1][0], exact_face_margins(triple),
                                   rtol=2.0**-52, atol=0)


@pytest.mark.parametrize("kwargs", [{"dims": (12.7, 8)}, {"dims": (8, 8, 3)}, {"dims": 8},
                                    {"dims": (1, 8)}, {"burn_in": 2.5}, {"burn_in": -1},
                                    {"seed": -1}, {"seed": 1.5}, {"dims": (np.nan, 8)},
                                    {"seed": np.inf}, {"n_modes": 2.5}, {"n_modes": np.nan}],
                         ids=["dims_float", "dims_three", "dims_scalar", "dims_one",
                              "burn_in_float", "burn_in_negative", "seed_negative",
                              "seed_float", "dims_nan", "seed_inf", "n_modes_float",
                              "n_modes_nan"])
def test_simulate_rejects_bad_arguments_at_the_boundary(kwargs):
    # a float side used to be truncated, a third dim ignored, and a float
    # burn-in or seed or a negative seed to fail inside numpy; n_modes = 2.5
    # used to build three modes and end in a bare ValueError
    args = {"dims": (8, 8), "burn_in": 2, "seed": 0, "n_modes": 2, **kwargs}
    with pytest.raises(ParameterDomainError):
        simulate_sarh1(Sarh1Params("example1", [1.0], args.pop("n_modes")), **args)


def test_simulate_accepts_numpy_integers():
    params = Sarh1Params("example1", [1.0], 2)
    got = simulate_sarh1(params, np.array([6, 5]), burn_in=np.int64(3), seed=np.uint32(4))
    np.testing.assert_array_equal(got.data, simulate_sarh1(params, (6, 5), 3, 4).data)
    # integral floats are the same integers
    np.testing.assert_array_equal(got.data, simulate_sarh1(params, (6.0, 5.0), 3.0, 4.0).data)


def test_import_leaves_out_scipy():
    # no module of the package imports scipy
    code = ("import sys, spatialcox; "
            "print([m for m in sys.modules if m.split('.')[0] == 'scipy'])")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
    assert out.stdout.strip() == "[]"


def test_simulate_peak_memory_is_its_output():
    # the field's finiteness check forms no mask (an eighth of the output, 1.126x
    # with one); what remains above the output is numpy's per-line ufunc buffers of
    # the AR(1) passes, about 66 kB at 200^2 x 10
    params = Sarh1Params("example1", [1.0], 10)
    simulate_sarh1(params, (200, 200), seed=1)
    tracemalloc.start()
    try:
        out = simulate_sarh1(params, (200, 200), seed=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.05 * out.data.nbytes, peak / out.data.nbytes


def test_simulate_reproducible():
    params = Sarh1Params("example1", [1.3], 4)
    a = simulate_sarh1(params, (20, 30), seed=99)
    b = simulate_sarh1(params, (20, 30), seed=99)
    np.testing.assert_array_equal(a.data, b.data)
    c = simulate_sarh1(params, (20, 30), seed=100)
    assert not np.array_equal(a.data, c.data)


def test_simulate_autocovariance_ratio_spectral_inversion_oracle():
    # lag-(1,0)/lag-(0,0) against the ratio from numerically inverting the
    # spectral density on a 512^2 grid; Monte Carlo over 10 fields, 3 SE band
    model = SpectralModel("example1", n_modes=1)
    r0, r1 = cov_from_spectrum(model, [1.0], [(0, 0), (1, 0)], grid_size=512)
    target = float(r1[0] / r0[0])
    params = Sarh1Params("example1", [1.0], 1)
    ratios = []
    for rep in range(10):
        fld = simulate_sarh1(params, (150, 150), seed=500 + rep)
        cov = empirical_cov(fld, (1, 0))
        ratios.append(cov.at(1, 0)[0, 0] / cov.at(0, 0)[0, 0])
    ratios = np.array(ratios)
    se = ratios.std(ddof=1) / np.sqrt(len(ratios))
    assert abs(ratios.mean() - target) < 3 * se
    # the separable closed form agrees with the spectral inversion
    assert target == pytest.approx(eigenvalues_example1(1.0, 1)[0], abs=1e-10)


def test_simulate_zero_mean_and_mode_independence():
    params = Sarh1Params("example1", [1.0], 3)
    fld = simulate_sarh1(params, (300, 300), seed=2024)
    n = 300 * 300
    for k in range(3):
        x = fld.data[:, :, k]
        assert abs(x.mean()) < 3.0 * x.std() / np.sqrt(n) * 1.3  # AR inflation factor
    for a in range(3):
        for b in range(a + 1, 3):
            xa, xb = fld.data[:, :, a].ravel(), fld.data[:, :, b].ravel()
            cross = np.mean(xa * xb)
            se = np.std(xa * xb) / np.sqrt(n)
            assert abs(cross) < 3 * se


def test_example2_true_values_simulate_without_warning():
    params = Sarh1Params("example2", [1.0, 1.6, 1.5, 1.2], 2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        fld = simulate_sarh1(params, (16, 16), seed=1)
    assert np.all(np.isfinite(fld.data))


def test_unit_root_rejected_with_mode_index():
    params = Sarh1Params("custom", [1.0, 0.0, 0.0, 0.1, 0.1, 0.0], 2)
    with pytest.raises(StationarityError) as err:
        simulate_sarh1(params, (8, 8), seed=0)
    assert err.value.mode == 1


@pytest.mark.parametrize("theta", [[0.1, 1.2, 0.0], [0.0, 0.0, 0.0, 0.1, 1.2, 0.0]])
def test_non_causal_triple_off_the_torus_rejected(theta):
    # (0.1, 1.2, 0) has no zero on the torus (c = -0.43 < -2|d| = -0.2) but
    # one inside the bidisk; the recursion would grow like 1.2^j
    m = len(theta) // 3
    params = Sarh1Params("custom", theta, m)
    assert torus_min_abs_denominator(family_triples("custom", theta, m)[-1]) > 0.05
    with pytest.raises(StationarityError) as err:
        simulate_sarh1(params, (8, 8), seed=0)
    assert err.value.mode == m


def test_example1_beyond_pi_rejected():
    # l1 = theta^2 / pi^2 > 1 on mode 1 once theta > pi; at 3.8 the torus
    # grid check found no zero, so the field used to grow without bound
    with pytest.raises(StationarityError) as err:
        simulate_sarh1(Sarh1Params("example1", [3.8], 3), (8, 8), seed=0)
    assert err.value.mode == 1


def test_c2_innovation_sd_is_one_for_example_families():
    p1 = Sarh1Params("example1", [1.0], 5)
    np.testing.assert_array_equal(c2_innovation_var(p1.model.eig_triples(p1.theta)), 1.0)
    p2 = Sarh1Params("example2", [1.0, 1.6, 1.5, 1.2], 5)
    np.testing.assert_array_equal(c2_innovation_var(p2.model.eig_triples(p2.theta)), 1.0)
    # any causal-stationary triple is innovation-normalized already: the
    # bidisk-zero-free polynomial has vanishing log integral, so sd = 1
    assert c2_innovation_var([[0.4, 0.3, -0.05]])[0] == 1.0
    # a non-causal factor lifts it: |l1| > 1 gives sd = |l1|
    assert np.sqrt(c2_innovation_var([[1.2, 0.0, 0.0]]))[0] == pytest.approx(1.2, abs=1e-9)


def test_spectral_consistency_of_simulator():
    # averaged periodogram over replicates tracks the model density in
    # relative L1; 100 replicates put the expected distance near 0.08,
    # comfortably under the 10% band (20 replicates would sit near 0.18
    # by the half-normal mean of the periodogram's exponential scatter)
    params = Sarh1Params("example1", [1.0], 1)
    model = SpectralModel("example1", n_modes=1)
    acc = None
    reps = 100
    for rep in range(reps):
        fld = simulate_sarh1(params, (128, 128), seed=31_000 + rep)
        i_diag = periodogram(fld).values.real[:, :, 0]
        acc = i_diag if acc is None else acc + i_diag
    avg = acc / reps
    grid = periodogram(simulate_sarh1(params, (128, 128), seed=0)).grid
    w1, w2 = grid.meshes()
    dens = model.density([1.0], w1, w2)[:, :, 0]
    rel_l1 = np.abs(avg - dens).sum() / dens.sum()
    assert rel_l1 < 0.10
    # oracle cross-check of the density evaluation itself
    direct = rational_density(eigenvalues_example1(1.0, 1), 1.0 / (2 * np.pi) ** 2, w1, w2)
    np.testing.assert_allclose(dens, direct, rtol=1e-12)


def test_simulated_variance_matches_separable_closed_form():
    params = Sarh1Params("example1", [1.0], 1)
    fld = simulate_sarh1(params, (250, 250), seed=77)
    l1, l2, _ = eigenvalues_example1(1.0, 1)
    target = separable_cov(l1, l2, 0, 0, innovation_var=1.0)
    sample = fld.data.var()
    assert abs(sample - target) / target < 0.05


# --- the eigenvalue-family layer against its scalar, grid and quadrature oracles

TWO_PI_SQ = (2 * np.pi) ** 2
triples_in_cube = st.tuples(*[st.floats(-2.0, 2.0)] * 3)


@settings(deadline=None)
@given(triples_in_cube)
@example((0.1, 1.2, 0.0))
@example((0.6, 0.5, 0.0))
@example((0.4, 0.3, -0.05))
@example((0.9, 0.0, 0.0))
@example((0.5, 0.5, 0.0))  # on the face l1 + l2 + l3 = 1
@example((0.5, 0.5, -7.307419739137539e-273))  # a tiny step inside it
def test_is_causal_matches_bidisk_root_oracle(triple):
    # the grid minimum bounds the true minimum from above, so a grid gap <= 0
    # already proves a zero in the closed bidisk; but a gap within rounding of 0,
    # as at (0.5, 0.5, -7.3e-273) whose gap rounds to 0 and whose margins are all
    # positive, proves nothing, and there the exact margins decide
    gap = bidisk_min_gap(triple)
    if abs(gap) <= 1e-12:
        assert is_causal(np.array([triple]))[0] == (min(exact_face_margins(triple)) > 0)
        return
    assume(gap <= 0.0 or gap > 0.05)
    assert is_causal(np.array([triple]))[0] == (gap > 0)


def _region(triple):
    # the branch c2_innovation_var takes: c -+ 2d are the face-margin products
    # m0 m1 and m2 m3, read from the same margins, so a triple on a face that
    # rounds into the band is classified as the code classifies it
    m = _face_margins([triple])[1][0]
    lo, hi = m[0] * m[1], m[2] * m[3]
    return "A" if lo >= 0 and hi >= 0 else ("B" if lo <= 0 and hi <= 0 else "band")


@settings(deadline=None)
@given(triples_in_cube)
@example((0.4, 0.3, -0.05))
@example((1.2, 0.0, 0.0))
@example((0.1, 1.2, 0.0))
@example((0.6, 0.5, 0.0))
def test_c2_innovation_var_matches_quadrature_oracle(triple):
    l1, l2, l3 = triple
    got = c2_innovation_var([triple])[0] / TWO_PI_SQ
    want = quadrature_sigma2_c2(l1, l2, l3)
    region = _region(triple)
    if region == "band":  # same rectangle rule, bit for bit
        assume(abs(l3 + l1 * l2) >= 1e-12)
        assert got == want
        return
    # off the band the rectangle rule converges geometrically at the rate
    # below, so the closed form must match it to rounding
    if region == "A":
        rate = min(abs(l1), 1 / abs(l1)) if l1 else 0.0
    else:
        rate = min(abs(l2), abs(l3)) / max(abs(l2), abs(l3))
    assume(rate < 0.98)
    assert got == pytest.approx(want, rel=1e-13)
    sd = np.sqrt(np.exp(log_denominator_mean(*triple)))
    assert np.sqrt(c2_innovation_var([triple]))[0] == pytest.approx(sd, rel=1e-13)


@pytest.mark.parametrize("triple, region, var", [
    ((0.4, 0.3, -0.05), "A", 1.0),      # causal
    ((1.2, 0.0, 0.0), "A", 1.44),       # |l1| > 1
    ((1.5, 1.2, -1.8), "B", 3.24),      # separable with |l1|, |l2| > 1
    ((0.1, 1.2, 0.0), "B", 1.44),       # non-causal, no torus zero
    ((0.6, 0.5, 0.0), "band", None),    # torus zero
])
def test_c2_closed_form_in_each_region(triple, region, var):
    assert _region(triple) == region
    got = c2_innovation_var([triple])[0]
    if var is None:
        assert got == quadrature_sigma2_c2(*triple) * TWO_PI_SQ
    else:
        assert got == pytest.approx(var, rel=1e-15)
        assert got == pytest.approx(quadrature_sigma2_c2(*triple) * TWO_PI_SQ, rel=1e-13)


def _near_face_triples(n, seed):
    # uniform draws in the cube projected onto a random face of the causal
    # tetrahedron, then 1 to 8 ulps inward on every coordinate
    rng = np.random.default_rng(seed)
    t = rng.uniform(-1.0, 1.0, (n, 3))
    face = CAUSAL_FACES[rng.integers(0, 4, n)]
    t += ((1.0 - np.einsum("ki,ki->k", t, face)) / 3.0)[:, None] * face
    steps = rng.integers(1, 9, n)[:, None]
    for j in range(8):
        t = np.where(steps > j, np.nextafter(t, -face * np.inf), t)
    return t


def test_causal_triples_near_a_face_are_regular():
    # every torus question reads the same face margins, so a triple is_causal
    # accepts has no torus zero, a C2 variance of exactly 1 and covariances
    # (no SingularSpectrumError), however close it lies to a face; the lags
    # (0, 0) and (1, 0) lie on the closed-form column z2 = 0, so no sweep runs
    quoted = [(0.9534693105267749, -0.37276420641605035, 0.41929489588927504),
              (-0.9802709739304512, 0.3947756295642039, 0.41450465563375266)]
    batch = _near_face_triples(20_000, seed=19)
    triples = np.vstack([quoted, batch[is_causal(batch)]])
    assert triples.shape[0] > 10_000 and np.all(is_causal(triples))
    _, _, lo, hi = _face_margins(triples)
    assert np.all((lo > 0) & (hi > 0))
    c, frame, scale, _ = _causal_frame(triples)
    assert not c.any() and np.array_equal(frame, triples) and np.all(scale == 1.0)
    np.testing.assert_array_equal(c2_innovation_var(triples), 1.0)
    model = SpectralModel("custom", n_modes=triples.shape[0])
    r0, r1 = cov_from_spectrum(model, triples.ravel(), [(0, 0), (1, 0)])
    assert np.all(np.isfinite(r0)) and np.all(np.isfinite(r1)) and np.all(r0 > 0)
    # R(1, 0) = rho R(0, 0) and R_0, against the closed form of the z1 axis in 50-digit
    # decimals (the z2 axis of the transposed triple); in floats, 2d / (c + sqrt(lo hi))
    # with d = l1 + l2 l3 is off by up to 1.8e-13 of rho here
    want = np.array([[exact_axis_cov((l2, l1, l3), lag) for lag in (0, 1)]
                     for l1, l2, l3 in triples])
    rho = want[:, 1] / want[:, 0]
    assert np.all(np.abs(r1 - rho * r0) <= 1e-13 * r0)
    assert np.all(np.abs(r0 - want[:, 0]) <= 1e-13 * want[:, 0])
    for triple in quoted:
        (r,) = cov_from_spectrum(SpectralModel("triple", n_modes=1), np.array(triple), [(0, 0)])
        assert np.isfinite(r[0]) and r[0] > 0


@settings(deadline=None)
@given(st.floats(0.7, 4.0), st.integers(1, 40))
def test_example1_family_matches_scalar_oracle(theta, m):
    want = np.array([eigenvalues_example1(theta, k) for k in range(1, m + 1)])
    np.testing.assert_allclose(family_triples("example1", [theta], m), want, rtol=1e-15, atol=0)


@settings(deadline=None)
@given(st.tuples(*[st.floats(lo, hi) for lo, hi in
                   [(0.7, 1.3), (1.3, 1.9), (1.2, 1.8), (0.9, 1.5)]]), st.integers(1, 40))
def test_example2_family_matches_scalar_oracle(theta, m):
    want = np.array([eigenvalues_example2(theta, k) for k in range(1, m + 1)])
    np.testing.assert_allclose(family_triples("example2", theta, m), want, rtol=1e-15, atol=0)


@settings(deadline=None)
@given(st.lists(st.floats(-0.9, 0.9), min_size=9, max_size=9), st.integers(1, 12))
def test_pmf_family_matches_scalar_oracle(theta, m):
    want = np.array([pmf_triple_scalar(theta, p) for p in range(1, m + 1)])
    np.testing.assert_array_equal(family_triples("realdata_pmf", theta, m), want)
    np.testing.assert_array_equal(SpectralModel("realdata_pmf", m).eig_triples(theta), want)


def test_jacobian_of_example1_or_an_unknown_family_rejected():
    # only example2 and the affine families have a Jacobian; example1 is fitted exactly
    for family in ("example1", "no_such_family"):
        with pytest.raises(ParameterDomainError, match=f"no Jacobian for family '{family}'"):
            sarh.family_jacobian(family, [1.0], 3)


@pytest.mark.parametrize("family, n_modes", [("triple", 3), ("custom", 4), ("realdata_pmf", 4),
                                             ("realdata_pmf", 10)])
def test_affine_jacobian_is_the_unit_vector_stack_read_only(family, n_modes):
    # the affine families' J is built once per (family, n_modes): the triples at
    # the unit vectors, bit for bit, shared and not writable
    q = len(sarh.default_box(family, n_modes))
    want = np.stack([family_triples(family, e, n_modes) for e in np.eye(q)], axis=-1)
    jac = sarh.family_jacobian(family, None, n_modes)
    np.testing.assert_array_equal(jac, want)
    assert sarh.family_jacobian(family, np.zeros(q), np.int64(n_modes)) is jac
    with pytest.raises(ValueError, match="read-only"):
        jac[0, 0, 0] = 1.0


def test_family_theta_length_checked():
    for family, theta in [("example1", [1.0, 2.0]), ("example2", [1.0, 1.6, 1.5]),
                          ("triple", [0.1, 0.2]), ("custom", [0.1] * 5),
                          ("realdata_pmf", [0.1] * 8)]:
        with pytest.raises(ParameterDomainError):
            family_triples(family, theta, 2)
    with pytest.raises(ParameterDomainError):
        family_triples("nope", [1.0], 2)


# --- one model type: SpectralModel checks its box once


@pytest.mark.parametrize("family, n_modes", [("example1", 0), ("example1", -1), ("custom", 0)])
def test_model_without_modes_rejected_at_construction(family, n_modes):
    with pytest.raises(ParameterDomainError, match="n_modes must be an integer >= 1"):
        SpectralModel(family, n_modes)
    with pytest.raises(ParameterDomainError, match="n_modes must be an integer >= 1"):
        Sarh1Params(family, [1.0] if family == "example1" else [], n_modes)


@pytest.mark.parametrize("box", [[[0.7, 4.0], [0.7, 4.0]], [[2.0, 2.0]], [[3.0, 1.0]]],
                         ids=["wrong_size", "degenerate", "reversed"])
def test_bad_theta_box_rejected_at_construction(box):
    with pytest.raises(ParameterDomainError):
        SpectralModel("example1", 2, theta_box=box)


@pytest.mark.parametrize("box", [[[-np.inf, np.inf]] * 3, [[0.0, np.inf]] * 3],
                         ids=["infinite", "half_infinite"])
def test_non_finite_theta_box_rejected_at_construction(box):
    # such a box used to construct, and estimate then returned a NaN or inf theta_hat
    with pytest.raises(ParameterDomainError, match="3 finite intervals"):
        SpectralModel("triple", 2, theta_box=box)


# one non-finite coordinate per family, each inside the family box otherwise
_NON_FINITE_THETA = {"example1": [np.nan], "example2": [1.0, np.nan, 1.5, 1.2],
                     "triple": [np.nan, 0.0, 0.0], "custom": [0.1] * 5 + [np.inf],
                     "realdata_pmf": [0.1] * 8 + [-np.inf]}


@pytest.mark.parametrize("family", list(_NON_FINITE_THETA))
def test_non_finite_theta_rejected_at_the_model_boundary(family):
    # every theta passes family_triples: a NaN triple theta used to build
    # Sarh1Params and then raise StationarityError in simulate, make sigma2 and
    # fejer_smoothed_inverse NaN, and make cov_map raise SingularSpectrumError
    theta, model = _NON_FINITE_THETA[family], SpectralModel(family, 2)
    for call in (lambda: family_triples(family, theta, 2), lambda: Sarh1Params(family, theta, 2),
                 lambda: model.sigma2(theta),
                 lambda: fejer_smoothed_inverse(model, theta, 1, (2, 2), (0.0, 0.0)),
                 lambda: cov_map(model, theta, TestFunction([1.0, 0.5]), (1, 1))):
        with pytest.raises(ParameterDomainError, match=f"{family} theta must be finite"):
            call()


@pytest.mark.parametrize("family, box", [
    ("example1", [[0.5, 4.5]]), ("example1", [[0.6, 2.0]]), ("example1", [[1.0, 4.1]]),
    ("example2", [[0.7, 1.3], [1.3, 1.9], [1.2, 1.8], [0.9, 1.6]]),
    ("example2", [[0.6, 1.3], [1.3, 1.9], [1.2, 1.8], [0.9, 1.5]])],
    ids=["example1_both", "example1_low", "example1_high", "example2_high", "example2_low"])
def test_box_outside_the_family_box_rejected_at_construction(family, box):
    # the triples of example1 and example2 are defined on THETA_BOX_EXAMPLE1/2
    # only, so a wider box used to construct and then fail inside the fit
    with pytest.raises(ParameterDomainError, match=f"{family} theta box leaves"):
        SpectralModel(family, 3, theta_box=box)


def test_box_inside_the_family_box_accepted():
    for family, box in (("example1", [[0.8, 1.5]]), ("example1", [[0.7, 4.0]]),
                        ("example2", [[0.8, 1.2], [1.4, 1.8], [1.3, 1.7], [1.0, 1.4]])):
        np.testing.assert_array_equal(SpectralModel(family, 3, theta_box=box).theta_box, box)


@pytest.mark.parametrize("s", [0.5, 1.0, 3.0])
def test_white_noise_has_one_variance_in_simulation_and_model(s):
    # a white-noise mode of innovation sd s is the unit one times s: it
    # simulates with variance s^2, and its model covariance R_0 is s^2 times 1
    (r0,) = cov_from_spectrum(SpectralModel("custom", 1), np.zeros(3), [(0, 0)])
    assert s**2 * r0[0] == pytest.approx(s**2, rel=1e-12)
    params = Sarh1Params("custom", np.zeros(3), 1)
    x = s * simulate_sarh1(params, (200, 200), seed=11).data
    assert x.var() == pytest.approx(s**2, rel=0.03)  # 4e4 draws: sd of var/s^2 ~ 0.007


@pytest.mark.parametrize("family, theta", [
    ("example1", [1.0]), ("example2", [1.0, 1.6, 1.5, 1.2]), ("triple", [0.3, 0.2, -0.1]),
    ("custom", [0.3, 0.2, -0.1] * 3), ("realdata_pmf", [0.32, 0.08, 0.04, 0.26, 0.04, -0.04,
                                                          -0.1, -0.02, 0.04])])
def test_simulate_accepts_every_family(family, theta):
    params = Sarh1Params(family, theta, 3)
    fld = simulate_sarh1(params, (6, 5), seed=1)
    assert fld.data.shape == (6, 5, 3)
    # the field is that of the family's triples, drawn with unit innovations
    want = naive_sarh(family_triples(family, theta, 3), (6, 5), 1)
    np.testing.assert_allclose(fld.data, want, atol=1e-12)
