import warnings

import numpy as np
import pytest
from oracles import brute_force_idw

from spatialcox import (GridSeries, PipelineConfig, cvfare, idw_interpolate,
                        load_series_csv, make_synthetic_counts, polyfit_trend,
                        run_cross_validation, run_pipeline, save_series_csv,
                        spline_smooth)
from spatialcox.errors import (AmbiguousInterpolationError, DivisionGuardError, FileFormatError,
                               InsufficientResolutionError, ParameterDomainError,
                               PipelineStageError)
from spatialcox.whittle import EstimateOptions

FAST_OPTS = EstimateOptions(loss_tol=1e-8, max_evals=1500)


def tiny_cfg(**kw):
    base = dict(lattice_dims=(12, 12), n_time_nodes=400, n_knots=16,
                trend_degree=3, n_modes=10, estimate_opts=FAST_OPTS)
    base.update(kw)
    return PipelineConfig(**base)


def tiny_series(seed=0, dims=(12, 12), months=180):
    return make_synthetic_counts(lattice_dims=dims, n_months=months,
                                 support_length=float(months * 4), seed=seed)


# --- GridSeries -------------------------------------------------------------


def test_series_validation():
    with pytest.raises(ParameterDomainError):
        GridSeries([[0, 0]], [2.0, 1.0], [[1.0, 2.0]])
    with pytest.raises(ParameterDomainError):
        GridSeries([[0, 0]], [1.0, 2.0], [[1.0, 2.0, 3.0]])


def test_series_csv_roundtrip(tmp_path):
    series, _ = tiny_series(seed=3, dims=(3, 3), months=24)
    path = tmp_path / "series.csv"
    save_series_csv(series, path)
    back = load_series_csv(path)
    np.testing.assert_allclose(back.values, series.values)
    np.testing.assert_allclose(back.sites, series.sites)


SERIES_ROWS = ["0,0.0,0.0,1.0,5.0", "0,0.0,0.0,2.0,6.0",
               "1,1.0,0.0,1.0,7.0", "1,1.0,0.0,2.0,8.0"]


@pytest.mark.parametrize("rows", [
    SERIES_ROWS + ["1,1.0,0.0,2.0,9.0"],                       # (site 1, time 2) repeats
    SERIES_ROWS + ["-1,5.0,5.0,1.0,9.0"],                      # negative site id
    SERIES_ROWS[:3] + ["1,2.0,3.0,2.0,8.0"],                   # site 1 at two places
    SERIES_ROWS[:3] + ["1.7,1.0,0.0,2.0,8.0"],                 # fractional site id
    [],                                                        # header only
    SERIES_ROWS[:3],                                           # (site 1, time 2) missing
    SERIES_ROWS[:3] + ["1,1.0,0.0,2.0,nan"],                   # nan value
], ids=["repeated_row", "negative_id", "two_coordinates", "fractional_id", "no_rows",
        "missing_row", "nan_value"])
def test_series_csv_bad_rows_rejected(tmp_path, rows):
    path = tmp_path / "series.csv"
    path.write_text("\n".join(["site_id,lon,lat,time,value", *rows]) + "\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the typed error comes before any numpy warning
        with pytest.raises(FileFormatError):
            load_series_csv(path)


# --- IDW --------------------------------------------------------------------


def test_idw_single_source_constant_field():
    series = GridSeries([[0.0, 0.0]], [1.0, 2.0], [[5.0, 7.0]])
    out = idw_interpolate(series, (3, 3))
    assert out.lattice_dims == (3, 3)
    np.testing.assert_allclose(out.values, [[5.0, 7.0]] * 9)


def test_idw_exact_at_coincident_node():
    # sites listed in lattice (x-major) order so rows align with the output
    sites = [[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]]
    values = np.arange(8.0).reshape(4, 2)
    series = GridSeries(sites, [0.0, 1.0], values)
    out = idw_interpolate(series, (2, 2), power=2.0)
    np.testing.assert_allclose(out.values, values)
    np.testing.assert_allclose(out.sites, sites)


def test_idw_equidistant_midpoint():
    series = GridSeries([[0.0, 0.0], [2.0, 0.0]], [0.0], [[0.0], [10.0]])
    out = idw_interpolate(series, (3, 1), power=2.0)
    assert out.values[1, 0] == pytest.approx(5.0)


def test_idw_ambiguity_error():
    series = GridSeries([[0.0, 0.0], [0.0, 0.0], [1.0, 1.0]], [0.0],
                        [[1.0], [2.0], [3.0]])
    with pytest.raises(AmbiguousInterpolationError):
        idw_interpolate(series, (2, 2))


def test_idw_bounded_by_source_range():
    rng = np.random.default_rng(4)
    series = GridSeries(rng.uniform(0, 10, size=(15, 2)), np.arange(5.0),
                        rng.uniform(-3, 9, size=(15, 5)))
    out = idw_interpolate(series, (6, 7), power=1.5)
    assert out.values.min() >= series.values.min() - 1e-12
    assert out.values.max() <= series.values.max() + 1e-12


def test_idw_power_domain():
    series = GridSeries([[0.0, 0.0]], [0.0], [[1.0]])
    with pytest.raises(ParameterDomainError):
        idw_interpolate(series, (2, 2), power=0.0)


def _mixed_sites(rng, dims):
    """Lattice sites with every other interior site jittered off its node."""
    n1, n2 = dims
    grid = np.stack(np.meshgrid(np.arange(n1, dtype=float), np.arange(n2, dtype=float),
                                indexing="ij"), axis=-1).reshape(-1, 2)
    interior = ((grid > 0) & (grid < np.array([n1 - 1, n2 - 1]))).all(axis=1)
    moved = interior & (np.arange(grid.shape[0]) % 2 == 1)
    grid[moved] += rng.uniform(-0.25, 0.25, size=(moved.sum(), 2))
    return grid, moved


@pytest.mark.parametrize("power", [1.5, 2.0])
def test_idw_matches_per_node_oracle(power):
    rng = np.random.default_rng(21)
    sites, moved = _mixed_sites(rng, (9, 11))
    values = rng.uniform(0.0, 50.0, size=(sites.shape[0], 37))
    out = idw_interpolate(GridSeries(sites, np.arange(37.0), values), (9, 11), power=power)
    expect = brute_force_idw(sites, values, out.sites, power)
    np.testing.assert_allclose(out.values, expect, rtol=1e-12, atol=0)
    # nodes holding an unmoved site copy it bit for bit; moved ones interpolate
    hit = ~moved
    assert 0 < hit.sum() < hit.size
    np.testing.assert_array_equal(out.values[hit], values[hit])
    np.testing.assert_array_equal(out.values[hit], expect[hit])
    assert not np.any(out.values[moved] == values[moved])


def test_idw_duplicate_sites_with_equal_series_copy_first():
    sites = [[0.0, 0.0], [0.0, 0.0], [1.0, 1.0]]
    values = np.array([[1.0, 2.0], [1.0, 2.0], [3.0, 4.0]])
    out = idw_interpolate(GridSeries(sites, [0.0, 1.0], values), (2, 2))
    np.testing.assert_array_equal(out.values[0], values[0])
    np.testing.assert_array_equal(out.values[3], values[2])
    np.testing.assert_allclose(out.values, brute_force_idw(sites, values, out.sites, 2.0),
                               rtol=1e-12, atol=0)


def test_idw_ambiguity_names_first_offending_node():
    sites = [[0.0, 0.0], [1.0, 1.0], [1.0, 1.0], [0.0, 0.0]]
    series = GridSeries(sites, [0.0], [[1.0], [2.0], [3.0], [4.0]])
    with pytest.raises(AmbiguousInterpolationError, match=r"node \[0\. 0\.\]"):
        idw_interpolate(series, (2, 2))


# --- spline smoothing -------------------------------------------------------


def test_spline_reproduces_cubic():
    t = np.linspace(0, 10, 80)
    f = 1.0 - 0.5 * t + 0.03 * t**2 + 0.004 * t**3
    out_grid = np.linspace(0, 10, 300)
    got = spline_smooth(t, f, n_knots=8, out_grid=out_grid)
    expect = 1.0 - 0.5 * out_grid + 0.03 * out_grid**2 + 0.004 * out_grid**3
    np.testing.assert_allclose(got, expect, atol=1e-8)


def test_spline_constant_and_batch():
    t = np.linspace(0, 1, 50)
    got = spline_smooth(t, np.full((3, 50), 2.5), n_knots=5, out_grid=np.linspace(0, 1, 77))
    np.testing.assert_allclose(got, 2.5, atol=1e-10)
    assert got.shape == (3, 77)


def test_spline_denoises_sine():
    rng = np.random.default_rng(8)
    t = np.linspace(0, 1, 432)
    signal = np.sin(2 * np.pi * t)
    noisy = signal + rng.normal(0, 0.3, size=t.size)
    got = spline_smooth(t, noisy, n_knots=20, out_grid=t)
    resid_rms = np.sqrt(np.mean((got - signal) ** 2))
    assert resid_rms < 0.3


def test_spline_needs_enough_points():
    with pytest.raises(InsufficientResolutionError):
        spline_smooth(np.linspace(0, 1, 10), np.zeros(10), n_knots=8,
                      out_grid=np.linspace(0, 1, 20))


# --- polynomial trend -------------------------------------------------------


def test_trend_exact_degree10():
    t = np.linspace(0, 1, 500)
    rng = np.random.default_rng(12)
    coefs = rng.normal(size=11)
    f = sum(c * t**p for p, c in enumerate(coefs))
    trend, resid = polyfit_trend(f, t, degree=10)
    assert np.max(np.abs(resid)) < 1e-6
    np.testing.assert_allclose(trend + resid, f, atol=1e-9)


def test_trend_constant():
    t = np.linspace(0, 2, 64)
    trend, resid = polyfit_trend(np.full((2, 64), 3.0), t, degree=4)
    np.testing.assert_allclose(trend, 3.0, atol=1e-10)
    np.testing.assert_allclose(resid, 0.0, atol=1e-10)


def test_trend_constructed_decomposition_oracle():
    # input = cubic + sine mode; the fitted trend must match the independent
    # least-squares projection of the input, so the residual equals the
    # projection remainder of the sine (not the raw sine: low modes overlap
    # the polynomial span substantially)
    t = np.linspace(0, 1, 800)
    poly = 2.0 + t - 0.5 * t**2 + 0.1 * t**3
    mode = np.sin(9 * np.pi * t)
    f = poly + mode
    degree = 3
    trend, resid = polyfit_trend(f, t, degree=degree)
    design = np.vander(2 * t - 1, degree + 1, increasing=True)
    proj = design @ np.linalg.lstsq(design, f, rcond=None)[0]
    np.testing.assert_allclose(trend, proj, atol=1e-4)
    np.testing.assert_allclose(resid, f - proj, atol=1e-4)
    # residual is orthogonal to the polynomial span
    assert np.max(np.abs(design.T @ resid) / len(t)) < 1e-9


def test_trend_needs_enough_points():
    with pytest.raises(InsufficientResolutionError):
        polyfit_trend(np.zeros(8), np.linspace(0, 1, 8), degree=10)


# --- CVFARE -----------------------------------------------------------------


def test_cvfare_identities():
    t = np.linspace(0, 1, 40)
    lam = np.exp(np.sin(t))[None, :].repeat(3, axis=0)
    curve, l1 = cvfare(lam, lam, t)
    np.testing.assert_allclose(curve, 0.0)
    assert l1 == 0.0
    curve, l1 = cvfare(lam, 2 * lam, t)
    np.testing.assert_allclose(curve, 1.0)
    assert l1 == pytest.approx(1.0)
    with pytest.raises(DivisionGuardError):
        cvfare(np.zeros((1, 4)), np.ones((1, 4)), np.linspace(0, 1, 4))


# --- synthetic generator ----------------------------------------------------


def test_synthetic_counts_shape_and_determinism():
    series, truth = tiny_series(seed=5)
    assert series.values.shape == (144, 180)
    assert np.all(series.values >= 0)
    series2, _ = tiny_series(seed=5)
    np.testing.assert_array_equal(series.values, series2.values)
    assert truth.lambda_true.shape == (10, 3)
    # intensity curves are positive and mostly increasing
    lam = np.exp(truth.log_intensity(np.linspace(1, 720, 100)))
    assert np.all(lam > 0)


# --- pipeline ---------------------------------------------------------------


def test_pipeline_end_to_end_deterministic():
    series, truth = tiny_series(seed=11)
    cfg = tiny_cfg()
    res = run_pipeline(series, cfg)
    assert not res.estimation_skipped
    assert res.lambda_hat.shape == (10, 3)
    assert res.residual_field.dims == (12, 12)
    assert np.all(res.mode_scale > 0)
    for name in ("ingest", "cumulate", "smooth", "idw", "log", "trend",
                 "project", "normalize", "periodogram", "estimate", "predict"):
        assert name in res.diagnostics
    res2 = run_pipeline(series, cfg)
    np.testing.assert_array_equal(res.lambda_hat, res2.lambda_hat)
    # predictions are finite log-intensity curves on a strided grid
    pred = res.log_intensity_prediction(res.out_times[::50])
    assert pred.shape == (12, 12, len(res.out_times[::50]))
    assert np.all(np.isfinite(pred))


def test_pipeline_zero_noise_skips_estimation():
    # trend-only intensity, no Poisson scatter: the projected residual is
    # numerically tiny, so estimation is skipped with a diagnostic
    series, _ = make_synthetic_counts(lattice_dims=(8, 8), n_months=120,
                                      support_length=480.0, amplitude=0.0,
                                      seed=2)
    times = np.linspace(0.0, 480.0, 121)  # include t=0: no clamped segment
    u = times / 480.0
    trend = 4.5 + 4.0 * u + 0.4 * u**2 - 0.2 * u**3
    exact = np.exp(trend)[None, :].repeat(64, axis=0)
    clean = GridSeries(series.sites, times, exact)
    cfg = tiny_cfg(lattice_dims=(8, 8), cumulate=False, residual_rms_floor=1e-5)
    res = run_pipeline(clean, cfg)
    assert res.estimation_skipped
    assert res.lambda_hat is None
    assert "note" in res.diagnostics


def test_pipeline_stage_error_tagged():
    series = GridSeries([[0.0, 0.0], [1.0, 1.0]], [1.0, 2.0],
                        [[-1.0, 2.0], [0.0, 1.0]])
    with pytest.raises(PipelineStageError) as err:
        run_pipeline(series, tiny_cfg())
    assert err.value.stage == "ingest"


def test_pipeline_family_example1():
    # the pipeline also fits single-parameter families end to end
    series, _ = tiny_series(seed=21)
    cfg = tiny_cfg(family="example1")
    res = run_pipeline(series, cfg)
    assert res.theta_hat.shape == (1,)
    assert 0.7 <= res.theta_hat[0] <= 4.0


def test_cross_validation_smoke():
    series, _ = tiny_series(seed=31, dims=(8, 8), months=150)
    cfg = tiny_cfg(lattice_dims=(8, 8), n_time_nodes=300)
    out = run_cross_validation(series, cfg, max_folds=3, seed=1, eval_stride=10)
    assert len(out["folds"]) == 3
    assert out["l1"] >= 0 and np.isfinite(out["l1"])
    assert np.all(out["cvfare"] >= 0)


def test_pipeline_resumable_from_projected_checkpoint(tmp_path):
    # stage outputs serialize and the downstream stages reproduce the full
    # run bit-identically when resumed from the saved residual field
    from spatialcox import load_field_binary, periodogram, save_field_binary
    from spatialcox.field import CoeffField
    from spatialcox.whittle import SpectralModel, estimate

    series, _ = tiny_series(seed=17)
    cfg = tiny_cfg()
    res = run_pipeline(series, cfg)

    path = tmp_path / "residual.bin"
    save_field_binary(res.residual_field, path)
    resumed = load_field_binary(path)
    np.testing.assert_array_equal(resumed.data, res.residual_field.data)

    i0 = periodogram(resumed).diag_real()
    s2 = np.exp(np.mean(np.log(np.maximum((2 * np.pi) ** 2 * i0, 1e-300)), axis=(0, 1)))
    scale = np.sqrt(s2)
    np.testing.assert_array_equal(scale, res.mode_scale)
    pg = periodogram(CoeffField(resumed.data / scale, resumed.basis))
    model = SpectralModel(cfg.family, n_modes=cfg.n_modes, groups=cfg.groups)
    theta = estimate(model, pg, cfg.estimate_opts).theta_hat
    np.testing.assert_array_equal(model.eig_triples(theta), res.lambda_hat)
    np.testing.assert_array_equal(theta, res.theta_hat)
