import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from oracles import (bidisk_min_gap, crude_sum_margins, eigenvalues_example1,
                     eigenvalues_example2, grid_has_torus_zero, log_denominator_mean,
                     naive_sarh, pmf_triple_scalar, quadrature_sigma2_c2, rational_density,
                     separable_cov, torus_min_abs_denominator)
from spatialcox import (Sarh1Params, c2_innovation_var, cov_from_spectrum, empirical_cov,
                        family_triples, is_causal, periodogram, simulate_sarh1, SpectralModel)
from spatialcox.errors import ParameterDomainError, StationarityError


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


def test_simulate_zero_noise():
    params = Sarh1Params("example1", [1.0], 2, noise_sd=[0.0, 0.0])
    fld = simulate_sarh1(params, (8, 8), burn_in=10, seed=3)
    assert np.all(fld.data == 0.0)


def test_simulate_degenerate_ar_is_iid():
    params = Sarh1Params("custom", [0.0, 0.0, 0.0, 0.0, 0.0, 0.0], 2,
                         noise_sd=[1.0, 2.0])
    fld = simulate_sarh1(params, (200, 200), burn_in=5, seed=42)
    var = fld.data.var(axis=(0, 1))
    assert abs(var[0] - 1.0) < 0.05
    assert abs(var[1] - 4.0) < 0.2


def test_simulate_matches_naive_recursion():
    triples = family_triples("example1", [1.0], 3)
    params = Sarh1Params("example1", [1.0], 3, noise_sd=[1.0, 1.0, 1.0])
    fast = simulate_sarh1(params, (12, 9), burn_in=6, seed=7)
    slow = naive_sarh(triples, [1.0, 1.0, 1.0], (12, 9), 6, 7)
    np.testing.assert_allclose(fast.data, slow, atol=1e-12)


def test_simulate_reproducible():
    params = Sarh1Params("example1", [1.3], 4)
    a = simulate_sarh1(params, (20, 30), burn_in=15, seed=99)
    b = simulate_sarh1(params, (20, 30), burn_in=15, seed=99)
    np.testing.assert_array_equal(a.data, b.data)
    c = simulate_sarh1(params, (20, 30), burn_in=15, seed=100)
    assert not np.array_equal(a.data, c.data)


def test_simulate_autocovariance_ratio_spectral_inversion_oracle():
    # lag-(1,0)/lag-(0,0) against the ratio from numerically inverting the
    # spectral density on a 512^2 grid; Monte Carlo over 10 fields, 3 SE band
    model = SpectralModel("example1", n_modes=1)
    (r0, r1), _ = cov_from_spectrum(model, [1.0], [(0, 0), (1, 0)], grid_size=512)
    target = float(r1[0] / r0[0])
    params = Sarh1Params("example1", [1.0], 1)
    ratios = []
    for rep in range(10):
        fld = simulate_sarh1(params, (150, 150), burn_in=60, seed=500 + rep)
        cov = empirical_cov(fld, (1, 0))
        ratios.append(cov.at(1, 0)[0, 0] / cov.at(0, 0)[0, 0])
    ratios = np.array(ratios)
    se = ratios.std(ddof=1) / np.sqrt(len(ratios))
    assert abs(ratios.mean() - target) < 3 * se
    # the separable closed form agrees with the spectral inversion
    assert target == pytest.approx(eigenvalues_example1(1.0, 1)[0], abs=1e-10)


def test_simulate_zero_mean_and_mode_independence():
    params = Sarh1Params("example1", [1.0], 3)
    fld = simulate_sarh1(params, (300, 300), burn_in=80, seed=2024)
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
        fld = simulate_sarh1(params, (16, 16), burn_in=10, seed=1)
    assert np.all(np.isfinite(fld.data))


def test_unit_root_rejected_with_mode_index():
    params = Sarh1Params("custom", [1.0, 0.0, 0.0, 0.1, 0.1, 0.0], 2,
                         noise_sd=[1.0, 1.0])
    with pytest.raises(StationarityError) as err:
        simulate_sarh1(params, (8, 8), burn_in=4, seed=0)
    assert err.value.mode == 1


@pytest.mark.parametrize("theta", [[0.1, 1.2, 0.0], [0.0, 0.0, 0.0, 0.1, 1.2, 0.0]])
def test_non_causal_triple_off_the_torus_rejected(theta):
    # (0.1, 1.2, 0) has no zero on the torus (c = -0.43 < -2|d| = -0.2) but
    # one inside the bidisk; the recursion would grow like 1.2^j
    m = len(theta) // 3
    params = Sarh1Params("custom", theta, m, noise_sd=np.ones(m))
    assert torus_min_abs_denominator(family_triples("custom", theta, m)[-1]) > 0.05
    with pytest.raises(StationarityError) as err:
        simulate_sarh1(params, (8, 8), burn_in=4, seed=0)
    assert err.value.mode == m


def test_example1_beyond_pi_rejected():
    # l1 = theta^2 / pi^2 > 1 on mode 1 once theta > pi; at 3.8 the torus
    # grid check found no zero, so the field used to grow without bound
    with pytest.raises(StationarityError) as err:
        simulate_sarh1(Sarh1Params("example1", [3.8], 3), (8, 8), burn_in=4, seed=0)
    assert err.value.mode == 1


def test_c2_innovation_sd_is_one_for_example_families():
    p1 = Sarh1Params("example1", [1.0], 5)
    np.testing.assert_array_equal(p1.model.innovation_var(p1.theta), 1.0)
    p2 = Sarh1Params("example2", [1.0, 1.6, 1.5, 1.2], 5)
    np.testing.assert_array_equal(p2.model.innovation_var(p2.theta), 1.0)
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
        fld = simulate_sarh1(params, (128, 128), burn_in=60, seed=31_000 + rep)
        i_diag = periodogram(fld).diag_real()[:, :, 0]
        acc = i_diag if acc is None else acc + i_diag
    avg = acc / reps
    grid = periodogram(simulate_sarh1(params, (128, 128), burn_in=1, seed=0)).grid
    w1, w2 = grid.meshes()
    dens = model.density([1.0], w1, w2)[:, :, 0]
    rel_l1 = np.abs(avg - dens).sum() / dens.sum()
    assert rel_l1 < 0.10
    # oracle cross-check of the density evaluation itself
    direct = rational_density(eigenvalues_example1(1.0, 1), 1.0 / (2 * np.pi) ** 2, w1, w2)
    np.testing.assert_allclose(dens, direct, rtol=1e-12)


def test_simulated_variance_matches_separable_closed_form():
    params = Sarh1Params("example1", [1.0], 1)
    fld = simulate_sarh1(params, (250, 250), burn_in=80, seed=77)
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
def test_is_causal_matches_bidisk_root_oracle(triple):
    # the grid minimum bounds the true minimum from above, so a grid gap <= 0
    # already proves a zero in the closed bidisk
    gap = bidisk_min_gap(triple)
    assume(gap <= 0.0 or gap > 0.05)
    assert is_causal(np.array([triple]))[0] == (gap > 0)


def _region(triple):
    l1, l2, l3 = triple
    c, d = 1 + l1**2 - l2**2 - l3**2, l1 + l2 * l3
    return "A" if c >= 2 * abs(d) else ("B" if c <= -2 * abs(d) else "band")


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


def test_family_theta_length_checked():
    for family, theta in [("example1", [1.0, 2.0]), ("example2", [1.0, 1.6, 1.5]),
                          ("triple", [0.1, 0.2]), ("custom", [0.1] * 5),
                          ("realdata_pmf", [0.1] * 8)]:
        with pytest.raises(ParameterDomainError):
            family_triples(family, theta, 2)
    with pytest.raises(ParameterDomainError):
        family_triples("nope", [1.0], 2)


# --- one model type: SpectralModel checks noise_sd once, in one unit


@pytest.mark.parametrize("noise_sd", [[1.0, 1.0, 1.0], [1.0], [1.0, np.nan],
                                      [1.0, -0.5], [np.inf, 1.0]],
                         ids=["too_long", "too_short", "nan", "negative", "inf"])
def test_bad_noise_sd_rejected_at_construction(noise_sd):
    with pytest.raises(ParameterDomainError):
        SpectralModel("example1", 2, noise_sd=noise_sd)
    with pytest.raises(ParameterDomainError):
        Sarh1Params("example1", [1.0], 2, noise_sd=noise_sd)


@pytest.mark.parametrize("box", [[[0.7, 4.0], [0.7, 4.0]], [[2.0, 2.0]], [[3.0, 1.0]]],
                         ids=["wrong_size", "degenerate", "reversed"])
def test_bad_theta_box_rejected_at_construction(box):
    with pytest.raises(ParameterDomainError):
        SpectralModel("example1", 2, theta_box=box)


@pytest.mark.parametrize("s", [0.5, 1.0, 3.0])
def test_white_noise_has_one_variance_in_simulation_and_model(s):
    # noise_sd is the innovation sd of the recursion: a white-noise mode
    # simulates with variance s^2, and its model covariance R_0 is s^2
    model = SpectralModel("custom", 1, noise_sd=[s])
    (r0,), _ = cov_from_spectrum(model, np.zeros(3), [(0, 0)])
    assert r0[0] == pytest.approx(s**2, rel=1e-12)
    params = Sarh1Params("custom", np.zeros(3), 1, noise_sd=[s])
    x = simulate_sarh1(params, (200, 200), burn_in=0, seed=11).data
    assert x.var() == pytest.approx(s**2, rel=0.03)  # 4e4 draws: sd of var/s^2 ~ 0.007


@pytest.mark.parametrize("family, theta", [
    ("example1", [1.0]), ("example2", [1.0, 1.6, 1.5, 1.2]), ("triple", [0.3, 0.2, -0.1]),
    ("custom", [0.3, 0.2, -0.1] * 3), ("realdata_pmf", [0.32, 0.08, 0.04, 0.26, 0.04, -0.04,
                                                          -0.1, -0.02, 0.04])])
def test_simulate_accepts_every_family(family, theta):
    params = Sarh1Params(family, theta, 3)
    fld = simulate_sarh1(params, (6, 5), burn_in=4, seed=1)
    assert fld.data.shape == (6, 5, 3)
    # the field is that of the family's triples, drawn with unit innovations
    want = naive_sarh(family_triples(family, theta, 3), np.ones(3), (6, 5), 4, 1)
    np.testing.assert_allclose(fld.data, want, atol=1e-12)
