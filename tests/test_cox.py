import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import double_sum_count_moments, exact_count_variance, rect_sites
from spatialcox import (BasisSpec, BorelRect, CoeffField, Sarh1Params, SpectralModel,
                        TestFunction, cov_map, count_moments, cox_intensity,
                        ls_count_predictor, pair_correlation, predict_field,
                        product_density_n, sample_counts, simulate_sarh1)
from spatialcox.cox import _kept_rect, _lag_rect
from spatialcox.errors import (BoundaryError, InvalidCovarianceError, LagUnavailableError,
                               OverflowGuardError, ParameterDomainError)


@pytest.fixture
def field3():
    rng = np.random.default_rng(30)
    return CoeffField(rng.normal(size=(6, 6, 3)), BasisSpec(1.0, 3))


def log_intensity(field, site, phi):
    # ln(lambda_z)(phi) = <X_z, phi>: the log of the count predictor over z's unit cell
    return np.log(ls_count_predictor(field, BorelRect(site[0], site[0], site[1], site[1]), phi))


def test_log_intensity_basis_vector(field3):
    phi = TestFunction([0.0, 1.0, 0.0])
    assert log_intensity(field3, (2, 4), phi) == pytest.approx(field3.data[2, 4, 1], rel=1e-15)
    assert log_intensity(field3, (2, 4), TestFunction([0, 0, 0])) == 0.0


def test_log_intensity_matches_dot(field3):
    rng = np.random.default_rng(1)
    phi = TestFunction(rng.normal(size=3))
    got = log_intensity(field3, (5, 0), phi)
    assert got == pytest.approx(float(np.dot(field3.data[5, 0], phi.coefficients)))


def test_log_intensity_dimension_mismatch(field3):
    with pytest.raises(ParameterDomainError):
        log_intensity(field3, (0, 0), TestFunction([1.0, 2.0]))


def test_cox_intensity_values():
    assert cox_intensity(0.0) == 1.0
    assert cox_intensity(2.0) == pytest.approx(np.e)
    with pytest.raises(InvalidCovarianceError):
        cox_intensity(-0.1)


_LAGS_3X3 = [(z1, z2) for z1 in range(-2, 3) for z2 in range(-2, 3)]


@pytest.mark.parametrize("call", [
    lambda: cox_intensity(np.nan), lambda: cox_intensity(np.inf),
    lambda: count_moments(BorelRect(0, 2, 0, 2),
                          {**dict.fromkeys(_LAGS_3X3, 0.1), (1, 0): np.nan}),
    lambda: count_moments(BorelRect(0, 2, 0, 2), {**dict.fromkeys(_LAGS_3X3, 0.1),
                                                  (0, 0): np.inf}),
    lambda: product_density_n([(0, 0), (1, 0)], {(0, 0): 0.1, (1, 0): np.nan, (-1, 0): 0.0}),
], ids=["intensity_nan", "intensity_inf", "count_lag_nan", "count_variance_inf",
        "product_density_nan"])
def test_non_finite_covariance_rejected(call):
    # each used to return NaN or inf: the test cov0 < 0 lets NaN through
    with pytest.raises(InvalidCovarianceError, match="finite"):
        call()


def test_pair_correlation_identities():
    assert pair_correlation(0.0) == 1.0
    r0 = 0.8
    assert pair_correlation(r0) >= 1.0
    # rho^(2) / rho^2 == g
    cov = {(0, 0): r0, (1, 0): 0.3, (-1, 0): 0.3}
    rho2 = product_density_n([(0, 0), (1, 0)], cov)
    rho = cox_intensity(r0)
    assert rho2 / rho**2 == pytest.approx(pair_correlation(0.3), rel=1e-12)


def test_product_density_small_n():
    cov = {(0, 0): 0.5}
    rho = cox_intensity(0.5)
    # the sum over i != j makes the n=1 case the intensity itself
    assert product_density_n([(3, 3)], cov) == pytest.approx(rho)
    # independence: all covariances zero -> rho^n
    cov0 = {(z1, z2): (0.7 if (z1, z2) == (0, 0) else 0.0)
            for z1 in range(-2, 3) for z2 in range(-2, 3)}
    rho = cox_intensity(0.7)
    got = product_density_n([(0, 0), (1, 1), (2, 0)], cov0)
    assert got == pytest.approx(rho**3, rel=1e-12)


def test_product_density_missing_lag():
    with pytest.raises(LagUnavailableError):
        product_density_n([(0, 0), (5, 5)], {(0, 0): 0.1})


def test_count_moments_degenerate_poisson():
    rect = BorelRect(0, 2, 0, 2)
    cov = {(z1, z2): 0.0 for z1 in range(-2, 3) for z2 in range(-2, 3)}
    mean, var = count_moments(rect, cov)
    assert mean == 9.0 and var == pytest.approx(9.0, abs=1e-9)
    single = BorelRect(1, 1, 2, 2)
    cov1 = {(0, 0): 0.4}
    mean1, _ = count_moments(single, cov1)
    assert mean1 == pytest.approx(cox_intensity(0.4))


@settings(deadline=None)
@given(st.integers(0, 3), st.integers(1, 7), st.integers(0, 3), st.integers(1, 7),
       st.integers(0, 2**32 - 1), st.booleans())
def test_count_moments_matches_double_sum_oracle(a1, n1, a2, n2, seed, drop_lag):
    rect = BorelRect(a1, a1 + n1 - 1, a2, a2 + n2 - 1)
    rng = np.random.default_rng(seed)
    lags = [(z1, z2) for z1 in range(1 - n1, n1) for z2 in range(1 - n2, n2)]
    cov = dict(zip(lags, rng.uniform(-1.0, 1.0, len(lags)).tolist()))
    cov[(0, 0)] = float(rng.uniform(0.0, 2.0))
    if drop_lag:
        del cov[lags[int(rng.integers(len(lags)))]]
        with pytest.raises(KeyError):
            double_sum_count_moments(rect, cov)
        with pytest.raises(LagUnavailableError):
            count_moments(rect, cov)
        return
    mean, var = count_moments(rect, cov)
    want_mean, want_var = double_sum_count_moments(rect, cov)
    assert mean == want_mean
    assert var == pytest.approx(want_var, rel=1e-10)


def _geometric_cov(n1, n2, scale):
    return {(z1, z2): scale * 0.5 ** (abs(z1) + abs(z2))
            for z1 in range(1 - n1, n1) for z2 in range(1 - n2, n2)}


def _random_cov(n1, n2, seed):
    rng = np.random.default_rng(seed)
    cov = {(z1, z2): float(rng.uniform(-0.3, 0.3))
           for z1 in range(1 - n1, n1) for z2 in range(1 - n2, n2)}
    cov[(0, 0)] = 0.5
    return cov


@pytest.mark.parametrize("rect, cov", [
    (BorelRect(0, 59, 0, 59), _geometric_cov(60, 60, 1e-3)),
    (BorelRect(0, 59, 0, 59), _geometric_cov(60, 60, 1e-8)),
    (BorelRect(3, 14, 5, 45), _geometric_cov(12, 41, 1e-2)),
    (BorelRect(0, 24, 0, 24), _random_cov(25, 25, 47)),
], ids=["60x60-1e-3", "60x60-1e-8", "12x41-1e-2", "25x25-random"])
def test_count_variance_is_correct_to_rounding(rect, cov):
    # with small covariances the variance is near the mean, so a form that subtracts two
    # terms near (|B| rho)^2 loses digits; the sum of pairs expm1(...) onto the mean must not
    _, var = count_moments(rect, cov)
    assert var == pytest.approx(exact_count_variance(rect, cov), rel=1e-14, abs=0)


def test_ls_predictor_values(field3):
    zero = CoeffField(np.zeros((4, 4, 2)), BasisSpec(1.0, 2))
    phi = TestFunction([1.0, 0.5])
    rect = BorelRect(0, 3, 0, 3)
    assert ls_count_predictor(zero, rect, phi) == 16.0
    data = np.zeros((2, 2, 1))
    data[1, 1, 0] = np.log(3.0)
    fld = CoeffField(data, BasisSpec(1.0, 1))
    assert ls_count_predictor(fld, BorelRect(1, 1, 1, 1),
                              TestFunction([1.0])) == pytest.approx(3.0)
    # arbitrary rectangle matches the per-cell sum
    phi3 = TestFunction([0.3, -0.2, 0.9])
    rect3 = BorelRect(1, 4, 2, 5)
    direct = sum(np.exp(log_intensity(field3, s, phi3)) for s in rect_sites(rect3))
    assert ls_count_predictor(field3, rect3, phi3) == pytest.approx(direct, rel=1e-12)


def test_ls_predictor_overflow_guard():
    data = np.full((2, 2, 1), 800.0)
    fld = CoeffField(data, BasisSpec(1.0, 1))
    with pytest.raises(OverflowGuardError) as err:
        ls_count_predictor(fld, BorelRect(0, 1, 0, 1), TestFunction([1.0]))
    assert err.value.max_exponent == pytest.approx(800.0)


@pytest.mark.parametrize("r0, expo", [(800.0, 1600.0), (1500.0, 750.0)])
def test_count_moments_overflow_guard(r0, expo):
    # each returned (4.7e174, nan) and (inf, nan): the variance term
    # exp(2 R_0) overflows, and inf - inf is NaN; at R_0 = 1500 the intensity
    # overflows first
    cov = dict.fromkeys(_LAGS_3X3, r0)
    with pytest.raises(OverflowGuardError) as err:
        count_moments(BorelRect(0, 2, 0, 2), cov)
    assert err.value.max_exponent == pytest.approx(expo)


def test_count_moments_overflow_after_the_guard():
    # every exponent 2 R_0 = 699 passes the guard, but the 1.2e6 site pairs of
    # the 1100-cell rectangle, each near exp(699), sum past the float range
    rect = BorelRect(0, 0, 0, 1099)
    cov = {(0, z2): 349.5 for z2 in range(-1099, 1100)}
    with pytest.raises(OverflowGuardError, match="overflow") as err:
        count_moments(rect, cov)
    assert err.value.max_exponent == pytest.approx(699.0)


@pytest.mark.parametrize("call, expo", [
    (lambda: cox_intensity(1500.0), 750.0),
    (lambda: pair_correlation(800.0), 800.0),
    (lambda: product_density_n([(0, 0), (1, 0)], {(0, 0): 800.0, (1, 0): 0.0,
                                                  (-1, 0): 0.0}), 800.0),
], ids=["intensity", "pair_correlation", "product_density"])
def test_moment_exponents_guarded(call, expo):
    # these returned inf, inf and raised the builtin OverflowError of float **
    with pytest.raises(OverflowGuardError) as err:
        call()
    assert err.value.max_exponent == pytest.approx(expo)


def test_product_density_exponent_is_the_whole_sum():
    # R_0 = 1500 with R_(1,0) = -1500: each factor rho = exp(750) overflows,
    # but the density exp((2 R_0 + 2 R_(1,0)) / 2) is 1
    cov = {(0, 0): 1500.0, (1, 0): -1500.0, (-1, 0): -1500.0}
    assert product_density_n([(0, 0), (1, 0)], cov) == 1.0


def test_sample_counts_reproducible_and_lln(field3):
    phi = TestFunction([0.2, 0.1, -0.3])
    rect = BorelRect(0, 5, 0, 5)
    a = sample_counts(field3, rect, phi, seed=123)
    assert a == sample_counts(field3, rect, phi, seed=123)
    mean = ls_count_predictor(field3, rect, phi)
    draws = np.array([sample_counts(field3, rect, phi, seed=50_000 + i)
                      for i in range(30_000)])
    assert abs(draws.mean() - mean) / mean < 0.01


def test_sample_counts_refuses_a_mean_numpy_cannot_draw():
    # every exponent is 45 <= EXP_GUARD, but the mean 4 e^45 = 1.4e20 is above the
    # 9.22e18 that numpy's Poisson sampler takes: this ended in a bare
    # "ValueError: lam value too large"
    fld = CoeffField(np.full((4, 4, 1), 45.0), BasisSpec(1.0, 1))
    rect, phi = BorelRect(0, 1, 0, 1), TestFunction([1.0])
    with pytest.raises(OverflowGuardError, match=r"Poisson mean 1\.397e\+20") as err:
        sample_counts(fld, rect, phi, seed=0)
    assert err.value.max_exponent == pytest.approx(45.0 + np.log(4.0))
    # a mean just below the limit is drawn
    one = CoeffField(np.full((1, 1, 1), 43.0), BasisSpec(1.0, 1))
    assert sample_counts(one, BorelRect(0, 0, 0, 0), phi, seed=0) > 0


def test_ls_predictor_sum_overflow_guard():
    # each exponent 700 passes the guard, but 40,000 cells of e^700 sum past the
    # float range: the predictor returned inf
    fld = CoeffField(np.full((200, 200, 1), 700.0), BasisSpec(1.0, 1))
    with pytest.raises(OverflowGuardError, match="overflows over 40000 cells") as err:
        ls_count_predictor(fld, BorelRect(0, 199, 0, 199), TestFunction([1.0]))
    assert err.value.max_exponent == 700.0


def test_conditional_mean_equals_variance(field3):
    phi = TestFunction([0.2, 0.1, -0.3])
    rect = BorelRect(0, 5, 0, 5)
    draws = np.array([sample_counts(field3, rect, phi, seed=90_000 + i)
                      for i in range(40_000)])
    ratio = draws.var(ddof=1) / draws.mean()
    assert 0.97 < ratio < 1.03


def _field(data):
    data = np.asarray(data, dtype=float)
    return CoeffField(data, BasisSpec(1.0, data.shape[2]))


def test_plug_in_predict_identities():
    model = SpectralModel("custom", n_modes=2, theta_box=[[-1, 1]] * 6)
    rng = np.random.default_rng(4)
    x = rng.normal(size=(3, 4, 2))
    np.testing.assert_array_equal(predict_field(_field(x), model, np.zeros(6)).data, 0.0)
    theta = np.array([0.2, 0.3, -0.1, 0.2, 0.3, -0.1])
    v = np.broadcast_to([1.5, -2.0], (3, 4, 2))
    out = predict_field(_field(v), model, theta).data
    np.testing.assert_allclose(out[1:, 1:], (0.2 + 0.3 - 0.1) * v[1:, 1:], rtol=1e-14)
    # linearity in the field
    y = rng.normal(size=x.shape)
    pred = [predict_field(_field(f), model, theta).data for f in (x, y, x + 2.0 * y)]
    np.testing.assert_allclose(pred[2], pred[0] + 2.0 * pred[1], rtol=1e-12, atol=1e-15)


def test_predict_rejects_mismatched_mode_counts(field3):
    # a typed error, not numpy's broadcast ValueError
    with pytest.raises(ParameterDomainError, match="model and field mode counts differ"):
        predict_field(field3, SpectralModel("example1", n_modes=2), [1.0])


def test_predict_boundary_error(field3):
    # the first row and column lack quarter-plane neighbours and stay zero;
    # an interior site is l1 X(i-1, j) + l2 X(i, j-1) + l3 X(i-1, j-1)
    model = SpectralModel("example1", n_modes=3)
    full = predict_field(field3, model, [1.0]).data
    assert np.all(full[0] == 0.0) and np.all(full[:, 0] == 0.0)
    l1, l2, l3 = model.eig_triples([1.0]).T
    x = field3.data
    np.testing.assert_allclose(full[2, 2], l1 * x[1, 2] + l2 * x[2, 1] + l3 * x[1, 1],
                               atol=1e-15)
    # a count rectangle reaching past the lattice is a typed boundary error
    with pytest.raises(BoundaryError):
        ls_count_predictor(field3, BorelRect(4, 6, 0, 1), TestFunction([1.0, 0.0, 0.0]))
    with pytest.raises(ParameterDomainError):
        BorelRect(2, 1, 0, 0)


def test_plug_in_prediction_beats_zero_predictor():
    model = SpectralModel("example1", n_modes=1)
    params = Sarh1Params("example1", [1.0], 1)
    sq_pred, sq_zero = 0.0, 0.0
    for seed in range(20):
        fld = simulate_sarh1(params, (60, 60), seed=7_000 + seed)
        pred = predict_field(fld, model, [1.0])
        err = fld.data[1:, 1:] - pred.data[1:, 1:]
        sq_pred += float(np.sum(err**2))
        sq_zero += float(np.sum(fld.data[1:, 1:] ** 2))
    assert sq_pred < sq_zero


def test_pair_correlation_decays_to_one_at_long_range():
    model = SpectralModel("example1", n_modes=2)
    phi = TestFunction([1.0, 0.0])
    cmap = cov_map(model, [1.0], phi, (50, 0))
    assert pair_correlation(cmap[(50, 0)]) == pytest.approx(1.0, abs=1e-12)
    assert pair_correlation(cmap[(0, 0)]) > 1.0


def test_cov_map_rejects_negative_lags_and_mismatched_phi():
    # typed errors, not an empty map or numpy's matmul ValueError
    model = SpectralModel("example1", n_modes=2)
    with pytest.raises(ParameterDomainError, match=">= 0"):
        cov_map(model, [1.0], TestFunction([1.0, 0.5]), (-1, 2))
    with pytest.raises(ParameterDomainError, match="phi holds 3 coefficients for a model of 2"):
        cov_map(model, [1.0], TestFunction([1.0, 0.5, 0.2]), (1, 1))


def test_cov_map_rejects_non_integral_lags():
    # (1.9, 0.5) used to truncate through int() to (1, 0), a map of three lags
    model = SpectralModel("example1", n_modes=2)
    with pytest.raises(ParameterDomainError, match=r"max_lag\[0\] must be an integer >= 0"):
        cov_map(model, [1.0], TestFunction([1.0, 0.5]), (1.9, 0.5))
    assert len(cov_map(model, [1.0], TestFunction([1.0, 0.5]), (np.int64(1), 2.0))) == 15


def test_cov_map_keys_run_z1_major():
    cmap = cov_map(SpectralModel("example1", n_modes=2), [1.0], TestFunction([1.0, 0.5]), (2, 3))
    assert list(cmap) == [(z1, z2) for z1 in range(-2, 3) for z2 in range(-3, 4)]


@pytest.mark.parametrize("lag", [(-2, -2), (1, -1), (0, 0), (2, 2)])
def test_count_moments_names_the_lag_that_is_not_finite(lag):
    cov = {**dict.fromkeys(_LAGS_3X3, 0.1), lag: np.nan}
    with pytest.raises(InvalidCovarianceError, match=re.escape(f"at lag {lag} is not finite")):
        count_moments(BorelRect(0, 2, 0, 2), cov)


@pytest.mark.parametrize("missing", [((-2, 1), (1, -2)), ((1, -2), (-2, 1)), ((0, 2), (0, -2)),
                                     ((2, -1), (2, 2))])
def test_count_moments_names_the_first_missing_lag_z1_major(missing):
    # whatever order the lags left the map in, the first missing one in z1-major order
    cov = dict.fromkeys(_LAGS_3X3, 0.1)
    for lag in missing:
        del cov[lag]
    first = min(missing)  # tuple order is the z1-major order
    with pytest.raises(LagUnavailableError, match=re.escape(f"lag {first} not supplied")):
        count_moments(BorelRect(0, 2, 0, 2), cov)


def test_cov_map_combines_modes():
    model = SpectralModel("example1", n_modes=2)
    phi = TestFunction([0.5, 2.0])
    cmap = cov_map(model, [1.0], phi, (1, 1))
    from spatialcox import cov_from_spectrum
    vals = cov_from_spectrum(model, [1.0], [(1, -1)])
    expect = 0.25 * vals[0, 0] + 4.0 * vals[0, 1]
    assert cmap[(1, -1)] == pytest.approx(expect, rel=1e-12)


def test_lag_rect_is_the_one_z1_major_rectangle_kept_read_only():
    _kept_rect.cache_clear()
    lags, keys = _lag_rect(2, 3)
    assert keys == tuple((z1, z2) for z1 in range(-2, 3) for z2 in range(-3, 4))
    np.testing.assert_array_equal(lags, keys)
    assert not lags.flags.writeable
    with pytest.raises(ValueError):
        lags[0, 0] = 7
    assert _lag_rect(2, 3)[0] is lags and _kept_rect.cache_info().hits == 1
    # above 2^12 lags a rectangle is built afresh and not kept
    big = _lag_rect(32, 32)  # 65^2 = 4225 lags
    assert _kept_rect.cache_info().currsize == 1 and _lag_rect(32, 32)[1] == big[1]


def test_cov_map_dict_mutation_leaves_the_next_call_unchanged():
    model, phi = SpectralModel("realdata_pmf", 4), TestFunction([1.0, 0.5, 0.25, 0.125])
    theta = [0.32, 0.08, 0.04, 0.26, 0.04, -0.04, -0.10, -0.02, 0.04]
    first = cov_map(model, theta, phi, (3, 4))
    want = dict(first)
    first[(0, 0)] = np.nan
    del first[(1, 1)]
    second = cov_map(model, theta, phi, (3, 4))
    assert second == want and list(second) == list(want)
    assert count_moments(BorelRect(0, 3, 0, 4), second) == count_moments(BorelRect(0, 3, 0, 4),
                                                                          want)
