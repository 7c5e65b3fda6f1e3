import json
import os
import subprocess
import sys
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from oracles import (brute_force_idw, cdist_idw, curve_space_residual, dense_log_intensity,
                     dense_project_curves, dense_synthetic_counts, dense_trend)
from scipy.interpolate import BSpline

import spatialcox.pipeline
from spatialcox import (BasisSpec, CoeffField, GridSeries, PipelineConfig, cvfare, idw_interpolate,
                        load_series_csv, make_synthetic_counts, run_cross_validation,
                        run_pipeline, save_series_csv, spline_smooth)
from spatialcox.errors import (AmbiguousInterpolationError, DivisionGuardError, FileFormatError,
                               InsufficientResolutionError, ParameterDomainError,
                               OverflowGuardError, PipelineStageError, RankDeficiencyError)
from spatialcox.pipeline import CubicBSpline, _bspline_basis, _project_curves
from spatialcox.sarh import _GRAM, TWO_PI_SQ, Sarh1Params, _gram_min, simulate_sarh1
from spatialcox.whittle import trig_moments


def tiny_cfg(**kw):
    base = dict(lattice_dims=(12, 12), n_time_nodes=400, n_knots=16,
                trend_degree=3, n_modes=10)
    base.update(kw)
    return PipelineConfig(**base)


def innovation_sd(field):
    # the pipeline's mode scale: per mode, the innovation sd read from the lag moments
    return np.sqrt(TWO_PI_SQ * _gram_min(trig_moments(field)[:, _GRAM]))


def tiny_series(seed=0, dims=(12, 12), months=180):
    return make_synthetic_counts(lattice_dims=dims, n_months=months,
                                 support_length=float(months * 4), seed=seed)


# --- GridSeries -------------------------------------------------------------


def test_series_validation():
    with pytest.raises(ParameterDomainError):
        GridSeries([[0, 0]], [2.0, 1.0], [[1.0, 2.0]])
    with pytest.raises(ParameterDomainError):
        GridSeries([[0, 0]], [1.0, 2.0], [[1.0, 2.0, 3.0]])
    # finite times whose gap exceeds the float range used to overflow in np.diff
    GridSeries([[0, 0]], [-1.7e308, 1.7e308], [[1.0, 2.0]])


def test_series_rejects_empty_times():
    # a series without time stamps used to reach run_pipeline, whose last-time-stamp
    # lookup raised a bare IndexError outside every stage
    with pytest.raises(ParameterDomainError, match="non-empty"):
        GridSeries([[0, 0], [1, 1]], np.zeros(0), np.zeros((2, 0)))


@pytest.mark.parametrize("times", [[1.0, 2.0, np.nan], [np.nan, 1.0, 2.0], [1.0, 2.0, np.inf],
                                   [-np.inf, 1.0, 2.0]],
                         ids=["nan_last", "nan_first", "inf_last", "minus_inf_first"])
def test_series_rejects_non_finite_times(times):
    # a NaN compares False with everything, so the increasing-times test alone passes it
    with pytest.raises(ParameterDomainError, match="finite"):
        GridSeries([[0.0, 0.0]], times, [[1.0, 2.0, 3.0]])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1, 3],
                         ids=["site", "site_inf", "site_minus_inf", "one_column", "three_columns"])
def test_series_rejects_bad_sites(bad):
    # a NaN site made idw_interpolate return an all-NaN lattice without a word, an inf
    # one a bare RuntimeWarning, and sites of 1 or 3 columns an untyped ValueError there
    series, _ = tiny_series(seed=4, dims=(4, 4), months=60)
    sites = np.array(series.sites)
    if isinstance(bad, int):
        sites = np.hstack([sites, sites])[:, :bad]
    else:
        sites[5, 1] = bad
    with pytest.raises(ParameterDomainError, match=r"sites must be a finite \(n_sites, 2\)"):
        GridSeries(sites, series.times, series.values)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf],
                         ids=["count", "count_inf", "count_minus_inf"])
def test_series_rejects_non_finite_values(bad):
    # min and max carry NaN and either infinity, so no mask is needed to see them; a
    # -inf count is refused as non-finite, not as negative
    series, _ = tiny_series(seed=4, dims=(4, 4), months=60)
    values = np.array(series.values)
    values[5, 7] = bad
    with pytest.raises(ParameterDomainError, match="values must be finite"):
        GridSeries(series.sites, series.times, values)


def test_series_with_a_nan_value_never_reaches_idw():
    # 20 sites x 3 times with one NaN value: idw_interpolate gave 16 NaN values of 48 on
    # a 4 x 4 lattice, the whole time column, without an error or a warning
    rng = np.random.default_rng(38)
    values = rng.uniform(0.0, 10.0, size=(20, 3))
    values[7, 1] = np.nan
    with pytest.raises(ParameterDomainError, match="values must be finite"):
        idw_interpolate(GridSeries(rng.uniform(0.0, 5.0, size=(20, 2)), [0.0, 1.0, 2.0],
                                   values), (4, 4))


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
    SERIES_ROWS + [f"{2**62},1.0,0.0,1.0,9.0"],                # an id beyond the address space
    [row.rsplit(",", 1)[0] for row in SERIES_ROWS],            # four columns
    SERIES_ROWS[:3] + ["1,1.0,0.0,2.0,-inf"],                  # infinite value
], ids=["repeated_row", "negative_id", "two_coordinates", "fractional_id", "no_rows",
        "missing_row", "nan_value", "huge_id", "four_columns", "infinite_value"])
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
    np.testing.assert_allclose(out.values, [[5.0, 7.0]] * 9)


def test_idw_exact_at_coincident_node():
    # sites listed in lattice (x-major) order so rows align with the output
    sites = [[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]]
    values = np.arange(8.0).reshape(4, 2)
    series = GridSeries(sites, [0.0, 1.0], values)
    out = idw_interpolate(series, (2, 2))
    np.testing.assert_allclose(out.values, values)
    np.testing.assert_allclose(out.sites, sites)


def test_idw_equidistant_midpoint():
    series = GridSeries([[0.0, 0.0], [2.0, 0.0]], [0.0], [[0.0], [10.0]])
    out = idw_interpolate(series, (3, 1))
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
    out = idw_interpolate(series, (6, 7))
    assert out.values.min() >= series.values.min() - 1e-12
    assert out.values.max() <= series.values.max() + 1e-12


def _mixed_sites(rng, dims, step=2):
    """Lattice sites with every step-th interior site jittered off its node; at step 1
    every interior site moves and only the boundary sites stay on nodes, as in perfbench."""
    n1, n2 = dims
    grid = np.stack(np.meshgrid(np.arange(n1, dtype=float), np.arange(n2, dtype=float),
                                indexing="ij"), axis=-1).reshape(-1, 2)
    interior = ((grid > 0) & (grid < np.array([n1 - 1, n2 - 1]))).all(axis=1)
    moved = interior & (np.arange(grid.shape[0]) % step == step - 1)
    grid[moved] += rng.uniform(-0.25, 0.25, size=(moved.sum(), 2))
    return grid, moved


def test_idw_matches_per_node_oracle():
    rng = np.random.default_rng(21)
    sites, moved = _mixed_sites(rng, (9, 11))
    values = rng.uniform(0.0, 50.0, size=(sites.shape[0], 37))
    out = idw_interpolate(GridSeries(sites, np.arange(37.0), values), (9, 11))
    expect = brute_force_idw(sites, values, out.sites, 2.0)
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


def _idw_cases():
    rng = np.random.default_rng(28)
    on_nodes = make_synthetic_counts((9, 8), n_months=12, support_length=48.0, seed=5)[0]
    line = np.c_[np.linspace(0.0, 3.0, 7), rng.uniform(0.0, 1.0, 7)]
    dup_sites = np.array([[0.0, 0.0], [2.0, 1.0], [2.0, 1.0], [0.5, 0.7], [4.0, 3.0]])
    dup_values = rng.normal(size=(5, 6))
    dup_values[2] = dup_values[1]
    return {
        # 40 x 40 nodes x 1600 sites: the weights run in several blocks of lattice rows
        "perfbench_layout": (_mixed_sites(rng, (40, 40), step=1)[0],
                             rng.normal(size=(1600, 44)), (40, 40)),
        "sites_on_every_node": (on_nodes.sites, on_nodes.values, (9, 8)),
        "one_row_lattice": (line, rng.normal(size=(7, 5)), (1, 9)),
        "one_column_lattice": (line[:, ::-1], rng.normal(size=(7, 5)), (9, 1)),
        "duplicates_with_equal_rows": (dup_sites, dup_values, (5, 4)),
        # every site at one x, so every lattice row shares it: the one layout where the
        # coincidence walk visits every row with every site
        "collinear_sites": (np.c_[np.full(6, 2.0), rng.uniform(0.0, 3.0, 6)],
                            rng.normal(size=(6, 4)), (3, 7)),
    }


def _assert_is_the_cdist_form(out, sites, values, dims):
    # the nodes and the nodes that copy a source bit for bit; the interpolated nodes within
    # 1e-13 of the value scale, since BLAS may round the same sums apart in another product
    # shape or CPU kernel (77 of 70,400 values, <= 2.3e-15 relative, on one OpenBLAS)
    nodes, expect, hit = cdist_idw(sites, values, dims)
    np.testing.assert_array_equal(out.sites, nodes)
    np.testing.assert_array_equal(out.values[hit], expect[hit])
    np.testing.assert_allclose(out.values[~hit], expect[~hit], rtol=0,
                               atol=1e-13 * np.abs(values).max())


@pytest.mark.parametrize("case", list(_idw_cases()))
def test_idw_is_the_cdist_form_bit_for_bit(case):
    # per-axis squared distances summed per block of lattice rows are cdist's, and a hit
    # row's 1/0 must stay inside the block that overwrites it: no warning escapes
    sites, values, dims = _idw_cases()[case]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = idw_interpolate(GridSeries(sites, np.arange(values.shape[1], dtype=float),
                                         values), dims)
    _assert_is_the_cdist_form(out, sites, values, dims)


def test_idw_blocks_of_part_of_a_lattice_row_match_the_oracle():
    # blocks smaller than one lattice row: BLAS may order a product of so few rows
    # differently, so the interpolated rows agree to rounding and the hits exactly
    rng = np.random.default_rng(9)
    sites, moved = _mixed_sites(rng, (12, 10), step=1)
    values = rng.normal(size=(120, 7))
    with mock.patch.object(spatialcox.pipeline, "BLOCK_CELLS", 3 * 120):
        out = idw_interpolate(GridSeries(sites, np.arange(7.0), values), (12, 10))
    _, expect, _ = cdist_idw(sites, values, (12, 10))
    np.testing.assert_allclose(out.values, expect, rtol=1e-13, atol=0)
    np.testing.assert_array_equal(out.values[~moved], values[~moved])


def test_idw_forms_no_weights_where_every_node_is_a_source():
    # make_synthetic_counts puts a site on every node, so every block is all hits: no
    # block forms the weight product or allocates the (block x sites) weights
    # 32 x 32 nodes x 1024 sites: four blocks of 8 lattice rows, 2 MiB of weights each
    series, _ = make_synthetic_counts((32, 32), n_months=12, seed=5)
    with mock.patch.object(np, "matmul", side_effect=np.matmul) as product:
        tracemalloc.start()
        try:
            out = idw_interpolate(series, (32, 32))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert product.call_count == 0
    assert peak < spatialcox.pipeline.BLOCK_CELLS * 8, peak / 2**20
    assert out.values.tobytes() == series.values.tobytes()


def test_idw_forms_products_only_on_the_box_of_missed_nodes():
    # perfbench's layout: the 156 boundary sites sit on nodes and the 1,444 interior
    # ones are jittered off theirs.  Each block of lattice rows is trimmed to the box
    # of its missed nodes, so the products cover the 38 x 38 interior nodes, not 1,600
    rng = np.random.default_rng(38)
    sites, moved = _mixed_sites(rng, (40, 40), step=1)
    values = rng.normal(size=(1600, 44))
    with mock.patch.object(np, "matmul", side_effect=np.matmul) as product:
        out = idw_interpolate(GridSeries(sites, np.arange(44.0), values), (40, 40))
    nodes = sum(call.kwargs["out"].size for call in product.call_args_list) // 44
    assert nodes == moved.sum() == 1444
    _assert_is_the_cdist_form(out, sites, values, (40, 40))


def test_idw_compares_only_the_later_sources_of_a_node(monkeypatch):
    # one site per node: no node has a second coincident source, so the agreement
    # check has no row to compare, not each node's row with itself
    series, _ = make_synthetic_counts((12, 10), n_months=12, seed=5)
    rows, isclose = [], np.isclose

    def spy(a, b, **kw):
        rows.append(np.shape(a)[0])
        return isclose(a, b, **kw)

    monkeypatch.setattr(np, "isclose", spy)
    out = idw_interpolate(series, (12, 10))
    assert sum(rows) == 0, rows
    assert out.values.tobytes() == series.values.tobytes()


def test_idw_ambiguity_names_the_oracles_node():
    sites = np.array([[0.0, 0.0], [3.0, 2.0], [1.5, 1.0], [1.5, 1.0], [3.0, 2.0]])
    values = np.arange(10.0).reshape(5, 2)
    values[4] = values[1]  # the corner agrees; the centre node does not
    series = GridSeries(sites, [0.0, 1.0], values)
    with pytest.raises(AmbiguousInterpolationError) as want:
        cdist_idw(sites, values, (3, 3))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(AmbiguousInterpolationError) as got:
            idw_interpolate(series, (3, 3))
    assert str(got.value) == str(want.value)
    assert "node [1.5 1. ]" in str(got.value)


# --- spline smoothing -------------------------------------------------------


def test_spline_reproduces_cubic():
    t = np.linspace(0, 10, 80)
    f = 1.0 - 0.5 * t + 0.03 * t**2 + 0.004 * t**3
    out_grid = np.linspace(0, 10, 300)
    got = spline_smooth(t, f, n_knots=8)(out_grid)
    expect = 1.0 - 0.5 * out_grid + 0.03 * out_grid**2 + 0.004 * out_grid**3
    np.testing.assert_allclose(got, expect, atol=1e-8)


def test_spline_constant_and_batch():
    t = np.linspace(0, 1, 50)
    got = spline_smooth(t, np.full((3, 50), 2.5), n_knots=5)(np.linspace(0, 1, 77))
    np.testing.assert_allclose(got, 2.5, atol=1e-10)
    assert got.shape == (3, 77)


def test_spline_denoises_sine():
    rng = np.random.default_rng(8)
    t = np.linspace(0, 1, 432)
    signal = np.sin(2 * np.pi * t)
    noisy = signal + rng.normal(0, 0.3, size=t.size)
    got = spline_smooth(t, noisy, n_knots=20)(t)
    resid_rms = np.sqrt(np.mean((got - signal) ** 2))
    assert resid_rms < 0.3


def test_local_support_evaluation_matches_the_dense_design():
    # the pipeline's evaluation: times from 0 although the data start at 30, so the
    # first nodes are clipped to the first knot, where only B_0 is 1; at the last
    # node only the last basis function is nonzero
    rng = np.random.default_rng(17)
    times = np.linspace(30.0, 720.0, 180)
    spline = spline_smooth(times, np.cumsum(rng.poisson(20.0, size=(30, 180)), axis=1), 16)
    knots, coef = spline.t, spline.c  # coef (n_knots + 4, curves)
    x = np.clip(np.linspace(0.0, 720.0, 401), knots[0], knots[-1])
    design = BSpline.design_matrix(x, knots, 3).toarray()
    # de Boor's four values per point are the dense design's nonzeros, bit for bit
    ell, basis = _bspline_basis(knots, x)
    local = np.zeros_like(design)
    np.put_along_axis(local, ell[:, None] + np.arange(-3, 1), basis, axis=1)
    np.testing.assert_array_equal(local, design)
    curves = CubicBSpline(knots, coef)
    got = curves(x).T
    dense = coef.T @ design.T
    assert got.shape == (401, 30) and got.flags.c_contiguous
    scale = 1e-15 * np.abs(dense).max(axis=1, keepdims=True)
    assert np.all(np.abs(got.T - dense) <= scale)
    # unsorted points fall in runs of one or a few points, and one point is its own run
    perm = rng.permutation(x.size)
    assert np.all(np.abs(curves(x[perm]) - dense[:, perm]) <= scale)
    one = curves(x[200])
    assert one.shape == (30,)
    assert np.all(np.abs(one - dense[:, 200]) <= scale[:, 0])
    clipped = x == knots[0]
    assert 0 < clipped.sum() < x.size
    np.testing.assert_array_equal(got[clipped], np.broadcast_to(coef[0], (clipped.sum(), 30)))
    np.testing.assert_array_equal(got[-1], coef[-1])
    # called as a spline it continues the end polynomials outside the knots, as BSpline does
    outside = np.linspace(0.0, 800.0, 97)
    np.testing.assert_allclose(spline(outside), BSpline(knots, coef, 3)(outside).T,
                               rtol=1e-12, atol=0)


@st.composite
def count_series(draw):
    """Integer-valued counts, zeros included, at evenly spaced time stamps (monthly
    records), with a knot count they resolve: every knot interval holds a stamp."""
    n_knots = draw(st.integers(0, 12))
    n_times = draw(st.integers(n_knots + 4, n_knots + 80))
    n_series = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    times = draw(st.floats(-100.0, 100.0)) + draw(st.floats(0.1, 10.0)) * np.arange(n_times)
    counts = rng.integers(0, draw(st.integers(1, 10**6)), size=(n_series, n_times))
    counts[rng.random(counts.shape) < draw(st.floats(0.0, 1.0))] = 0
    return times, counts.astype(float), n_knots


@settings(deadline=None, max_examples=100)
@given(count_series())
def test_cumulated_spline_is_the_spline_of_the_running_totals(case):
    # the smoother is linear, so the running totals can be taken in coefficient space
    times, counts, n_knots = case
    got = spline_smooth(times, counts, n_knots, cumulate=True).c
    want = spline_smooth(times, np.cumsum(counts, axis=-1), n_knots).c
    assert got.shape == want.shape == (n_knots + 4, counts.shape[0])
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
    # without cumulate it is the thin-SVD least-squares fit as before, bit for bit
    plain = spline_smooth(times, counts, n_knots, cumulate=False)
    u, sv, vt = np.linalg.svd(BSpline.design_matrix(times, plain.t, 3).toarray(),
                              full_matrices=False)
    assert np.array_equal(plain.c, (vt.T / sv) @ (u.T @ counts.T))


@pytest.mark.parametrize("times", [[0.0, 1.0, np.nan, 3.0, 4.0, 5.0],
                                   [0.0, 1.0, 2.0, 3.0, 4.0, np.inf],
                                   [-np.inf, 1.0, 2.0, 3.0, 4.0, 5.0],
                                   [5.0, 4.0, 3.0, 2.0, 1.0, 0.0],
                                   [0.0, 1.0, 1.0, 3.0, 4.0, 5.0]],
                         ids=["nan", "inf", "minus_inf", "decreasing", "repeated"])
def test_spline_refuses_the_times_a_series_refuses(times):
    # NaN or inf times ended in numpy's LinAlgError (SVD did not converge); decreasing
    # or repeated ones were fitted without a word, or with more knots ended in a
    # RankDeficiencyError that blamed the knot count
    with pytest.raises(ParameterDomainError, match="finite and strictly increasing"):
        spline_smooth(times, np.ones((2, 6)), n_knots=1)


def test_spline_needs_enough_points():
    with pytest.raises(InsufficientResolutionError):
        spline_smooth(np.linspace(0, 1, 10), np.zeros(10), n_knots=8)


# --- polynomial trend -------------------------------------------------------
# the dense oracle's trend, which the streamed stage matches below, and the
# stage's own checks


def trend_and_residual(values, times, degree):
    # the fitted trend is Q (Q^T v), Q orthonormal on the Legendre span
    _, q, qtv = dense_trend(values, times, degree)
    trend = (qtv @ q.T).reshape(np.shape(values))
    return trend, values - trend


def test_trend_exact_degree10():
    t = np.linspace(0, 1, 500)
    rng = np.random.default_rng(12)
    coefs = rng.normal(size=11)
    f = sum(c * t**p for p, c in enumerate(coefs))
    trend, resid = trend_and_residual(f, t, degree=10)
    assert np.max(np.abs(resid)) < 1e-6
    np.testing.assert_allclose(trend + resid, f, atol=1e-9)
    # the Legendre coefficients give the same trend
    coef, _, _ = dense_trend(f, t, 10)
    legendre = np.polynomial.legendre.legvander(2 * t - 1, 10) @ coef
    np.testing.assert_allclose(legendre[:, 0], trend, atol=1e-9)


def test_trend_constant():
    t = np.linspace(0, 2, 64)
    trend, resid = trend_and_residual(np.full((2, 64), 3.0), t, degree=4)
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
    trend, resid = trend_and_residual(f, t, degree=degree)
    design = np.vander(2 * t - 1, degree + 1, increasing=True)
    proj = design @ np.linalg.lstsq(design, f, rcond=None)[0]
    np.testing.assert_allclose(trend, proj, atol=1e-4)
    np.testing.assert_allclose(resid, f - proj, atol=1e-4)
    # residual is orthogonal to the polynomial span
    assert np.max(np.abs(design.T @ resid) / len(t)) < 1e-9


def stage_args():
    # constant curves on [0, 1]: clamped knots without interior ones, one node
    return np.repeat([0.0, 1.0], 4), np.full((4, 1), 2.0), BasisSpec(1.0, 1)


def test_rank_deficient_designs_rejected():
    # eight time stamps on two distinct values: the trend design has no full column rank;
    # the spline refuses repeated stamps, so its eight increasing stamps leave the four
    # B-splines that vanish near 0 only two rows, near 1 (Schoenberg-Whitney fails)
    t = np.repeat([0.0, 1.0], 4)
    knots, coef, basis = stage_args()
    with pytest.raises(RankDeficiencyError, match="trend design is rank deficient"):
        _project_curves(knots, coef, t, 3, basis)
    with pytest.raises(RankDeficiencyError, match="spline design is rank deficient"):
        spline_smooth(np.r_[np.linspace(0.0, 0.01, 6), 0.99, 1.0], np.zeros(8), n_knots=4)


def test_trend_needs_enough_points():
    knots, coef, basis = stage_args()
    with pytest.raises(InsufficientResolutionError, match="degree \\+ 1 = 11"):
        _project_curves(knots, coef, np.linspace(0, 1, 8), 10, basis)


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


@pytest.mark.parametrize("true, predicted", [([[1.0, np.nan]], [[1.0, 1.0]]),
                                             ([[1.0, 1.0]], [[np.inf, 1.0]])],
                         ids=["nan_true", "inf_predicted"])
def test_cvfare_rejects_non_finite_curves(true, predicted):
    # both used to return an L1 of NaN or inf
    with pytest.raises(ParameterDomainError, match="finite"):
        cvfare(true, predicted, [0.0, 1.0])


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


SYNTHETIC_SHAPES = [((40, 40), 432), ((12, 12), 432), ((7, 9), 48), ((33, 17), 100),
                    ((64, 64), 432), ((2, 3), 5)]


@pytest.mark.parametrize("dims, months", SYNTHETIC_SHAPES,
                         ids=[f"{n1}x{n2}x{m}" for (n1, n2), m in SYNTHETIC_SHAPES])
def test_synthetic_counts_are_the_one_shot_counts_byte_for_byte(dims, months):
    # row-order Poisson draws read the stream as one draw over the whole lattice does
    series, truth = make_synthetic_counts(dims, n_months=months, seed=3)
    want, want_truth = dense_synthetic_counts(dims, n_months=months, seed=3)
    for got, expect in ((series.values, want.values), (series.sites, want.sites),
                        (series.times, want.times), (truth.coeff, want_truth.coeff)):
        assert got.tobytes() == expect.tobytes()
    t = np.linspace(0.0, truth.basis.support_length, 97)
    assert (truth.log_intensity(t).tobytes()
            == dense_log_intensity(truth.coeff, truth.basis, t).tobytes())


def test_synthetic_counts_peak_is_about_the_output():
    # the one-shot form held the log-intensity, the intensity, the increments, the int64
    # draws and their float copy at once: 4.05 x the output at 40 x 40 x 432
    tracemalloc.start()
    try:
        series, _ = make_synthetic_counts((40, 40), n_months=432, seed=7)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * series.values.nbytes, peak / series.values.nbytes


# --- pipeline ---------------------------------------------------------------


def test_pipeline_end_to_end_deterministic():
    series, truth = tiny_series(seed=11)
    cfg = tiny_cfg()
    res = run_pipeline(series, cfg)
    assert not res.estimation_skipped
    assert res.lambda_hat.shape == (10, 3)
    assert res.residual_field.dims == (12, 12)
    assert np.all(res.mode_scale > 0)
    assert list(res.diagnostics) == ["ingest", "smooth", "idw", "project", "normalize",
                                     "estimate", "predict"]
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
                                      support_length=480.0, seed=2)
    times = np.linspace(0.0, 480.0, 121)  # include t=0: no clamped segment
    u = times / 480.0
    trend = 4.5 + 4.0 * u + 0.4 * u**2 - 0.2 * u**3
    exact = np.exp(trend)[None, :].repeat(64, axis=0)
    clean = GridSeries(series.sites, times, exact)
    cfg = tiny_cfg(lattice_dims=(8, 8), cumulate=False)
    with mock.patch.object(spatialcox.pipeline, "RESIDUAL_RMS_FLOOR", 1e-5):
        res = run_pipeline(clean, cfg)
    assert res.estimation_skipped
    assert res.lambda_hat is None
    assert "note" in res.diagnostics


@st.composite
def scattered_runs(draw):
    """Synthetic counts on an n1 x n2 grid of sites, some interior sites jittered
    off their node, some sites repeated with their series, and a config whose
    lattice either matches the sites (unmoved sites hit nodes) or not."""
    n1, n2, months = draw(st.integers(3, 7)), draw(st.integers(3, 7)), draw(st.integers(30, 90))
    series, _ = make_synthetic_counts(lattice_dims=(n1, n2), n_months=months,
                                      support_length=4.0 * months,
                                      seed=draw(st.integers(0, 2**16)))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    sites = np.array(series.sites)
    interior = ((sites > 0) & (sites < [n1 - 1, n2 - 1])).all(axis=1)
    moved = interior & (rng.random(sites.shape[0]) < draw(st.floats(0.0, 1.0)))
    sites[moved] += rng.uniform(-0.3, 0.3, size=(int(moved.sum()), 2))
    dup = rng.choice(sites.shape[0], size=draw(st.integers(0, 3)), replace=False)
    raw = GridSeries(np.vstack([sites, sites[dup]]), series.times,
                     np.vstack([series.values, series.values[dup]]))
    lattice = draw(st.one_of(st.just((n1, n2)),
                             st.tuples(st.integers(2, 8), st.integers(2, 8))))
    cfg = tiny_cfg(lattice_dims=lattice, n_time_nodes=draw(st.integers(60, 400)),
                   n_knots=draw(st.integers(2, 20)), trend_degree=draw(st.integers(0, 6)),
                   n_modes=draw(st.integers(1, 10)))
    return raw, cfg


@settings(deadline=None, max_examples=40)
@given(scattered_runs())
def test_coefficient_space_pipeline_matches_curve_space_oracle(run):
    # spline coefficients interpolated and evaluated once, the trend by one QR and
    # the projection as P(log) - (P Q)(Q^T log) reproduce the curve-space path.
    # Both paths subtract the trend from curves of the log's size, so they agree
    # relative to the log's coefficients; a mode the trend nearly absorbs leaves
    # a residual far below that scale, and neither path resolves it further.
    raw, cfg = run
    # every residual falls below this floor, so each run ends after the projection
    with mock.patch.object(spatialcox.pipeline, "RESIDUAL_RMS_FLOOR", 1e300):
        res = run_pipeline(raw, cfg)
    assert res.estimation_skipped
    want, log_scale = curve_space_residual(raw, cfg)
    assert np.max(np.abs(res.residual_field.data - want)) <= 1e-12 * log_scale


@pytest.mark.parametrize("case", ["criterion_10", "split_knot_runs", "clamped_ends",
                                  "no_cumulate"])
def test_streamed_projection_matches_dense_oracle(case):
    # the streamed evaluate-log-trend-project stage against the same chain through
    # one dense (times, nodes) array of log curves
    block = spatialcox.pipeline.BLOCK_CELLS
    if case == "criterion_10":
        series, _ = make_synthetic_counts((40, 40), seed=1000)
        cfg = PipelineConfig(lattice_dims=(40, 40), n_time_nodes=1725, n_knots=40,
                             trend_degree=3, n_modes=10)
    else:
        series, _ = tiny_series(seed=23)
        cfg = tiny_cfg(cumulate=case != "no_cumulate")
    if case == "split_knot_runs":
        block = 144 * 5  # blocks of 5 times, against runs of about 23 per knot interval
    if case == "clamped_ends":
        # the data start a quarter of the way in, so the first quarter of the time
        # grid lies before the first knot, on the clamped end segment
        k = series.times.size // 4
        series = GridSeries(series.sites, series.times[k:], series.values[:, k:])
    with mock.patch.object(spatialcox.pipeline, "BLOCK_CELLS", block):
        got = run_pipeline(series, cfg)
        with mock.patch.object(spatialcox.pipeline, "_project_curves", dense_project_curves):
            want = run_pipeline(series, cfg)
    scale = np.abs(want.residual_field.data).max()
    assert np.abs(got.residual_field.data - want.residual_field.data).max() <= 1e-12 * scale
    np.testing.assert_allclose(got.trend_coef, want.trend_coef, rtol=0,
                               atol=1e-12 * np.abs(want.trend_coef).max())
    assert got.estimation_skipped == want.estimation_skipped
    if not want.estimation_skipped:
        np.testing.assert_allclose(got.theta_hat, want.theta_hat, rtol=0, atol=1e-9)


def test_pipeline_never_forms_the_time_by_node_array():
    # 1725 times by 1600 nodes of float64 is 21.1 MiB; the dense chain peaked above it
    series, _ = make_synthetic_counts((40, 40), n_months=48, seed=5)
    cfg = PipelineConfig(lattice_dims=(40, 40), n_time_nodes=1725)
    tracemalloc.start()
    try:
        res = run_pipeline(series, cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert not res.estimation_skipped
    assert peak < 1725 * 1600 * 8 / 3, peak / 2**20


def test_pipeline_refuses_mode_absorbed_by_trend():
    # a degree-10 trend spans sin(pi t / L) to about 1e-10, so mode 1 keeps only
    # rounding noise, which normalization would scale to unit variance and fit
    series, _ = make_synthetic_counts((40, 40), seed=1006)
    with pytest.raises(PipelineStageError, match=r"mode 1 .*degree-10 trend") as err:
        run_pipeline(series, PipelineConfig(trend_degree=10))
    assert err.value.stage == "normalize"
    assert isinstance(err.value.__cause__, InsufficientResolutionError)


def test_pipeline_ambiguous_sources_tagged_idw():
    # two sources on the corner node, with distinct series
    series, _ = tiny_series(seed=4, dims=(4, 4), months=60)
    sites = np.vstack([series.sites, series.sites[:1]])
    values = np.vstack([series.values, series.values[:1] + 5.0])
    with pytest.raises(PipelineStageError) as err:
        run_pipeline(GridSeries(sites, series.times, values), tiny_cfg(lattice_dims=(4, 4)))
    assert err.value.stage == "idw"
    assert isinstance(err.value.__cause__, AmbiguousInterpolationError)


def _twelve_months():
    series, _ = tiny_series(seed=4, dims=(4, 4), months=60)
    return GridSeries(series.sites, np.arange(1.0, 13.0), series.values[:, :12])


def _times_before_zero():
    series, _ = tiny_series(seed=4, dims=(4, 4), months=60)
    return GridSeries(series.sites, series.times - series.times[-1] - 1.0, series.values)


@pytest.mark.parametrize("make, kw, stage, cause", [
    (lambda: GridSeries([[0.0, 0.0], [1.0, 1.0]], [1.0, 2.0], [[-1.0, 2.0], [0.0, 1.0]]),
     {}, "ingest", ParameterDomainError),
    # 20 knots need 24 time stamps
    (_twelve_months, dict(lattice_dims=(4, 4), n_knots=20), "smooth",
     InsufficientResolutionError),
    # the basis support is the last time stamp; this error used to escape untagged
    (_times_before_zero, dict(lattice_dims=(4, 4)), "project", ParameterDomainError),
], ids=["ingest", "smooth", "project"])
def test_pipeline_stage_error_tagged(make, kw, stage, cause):
    with pytest.raises(PipelineStageError) as err:
        run_pipeline(make(), tiny_cfg(**kw))
    assert err.value.stage == stage
    assert isinstance(err.value.__cause__, cause)


def test_cross_validation_smoke():
    series, _ = tiny_series(seed=31, dims=(8, 8), months=150)
    cfg = tiny_cfg(lattice_dims=(8, 8), n_time_nodes=300)
    out = run_cross_validation(series, cfg, max_folds=3, seed=1)
    assert len(out["folds"]) == 3
    assert out["l1"] >= 0 and np.isfinite(out["l1"])
    assert np.all(out["cvfare"] >= 0)


def test_cross_validation_holds_out_a_sites_co_located_twin(monkeypatch):
    # at radius 0 a fold kept every site but the held-out one, so a twin at the same
    # coordinates, with the same series, stayed in the fit that predicts it
    series, _ = tiny_series(seed=31, dims=(4, 4), months=60)
    twin = GridSeries(np.vstack([series.sites, series.sites[5]]), series.times,
                      np.vstack([series.values, series.values[5]]))
    seen, run = [], spatialcox.pipeline.run_pipeline

    def spy(sub, cfg):
        seen.append(sub.sites)
        return run(sub, cfg)

    monkeypatch.setattr(spatialcox.pipeline, "run_pipeline", spy)
    out = run_cross_validation(twin, tiny_cfg(lattice_dims=(4, 4)), max_folds=17)
    assert out["folds"] == list(range(17)) and len(seen) == 17
    for s, sites in zip(out["folds"], seen):
        assert not np.any(np.all(sites == twin.sites[s], axis=1)), s
        assert sites.shape[0] == 16 - (s in (5, 16))


def test_pipeline_resumable_from_projected_checkpoint(tmp_path):
    # stage outputs serialize and the downstream stages reproduce the full
    # run bit-identically when resumed from the saved residual field
    from spatialcox import load_field_binary, predict_field, save_field_binary
    from spatialcox.whittle import SpectralModel, estimate

    series, _ = tiny_series(seed=17)
    cfg = tiny_cfg()
    res = run_pipeline(series, cfg)

    path = tmp_path / "residual.bin"
    save_field_binary(res.residual_field, path)
    resumed = load_field_binary(path)
    np.testing.assert_array_equal(resumed.data, res.residual_field.data)

    scale = innovation_sd(resumed)
    np.testing.assert_array_equal(scale, res.mode_scale)
    model = SpectralModel("realdata_pmf", n_modes=cfg.n_modes)
    normalized = CoeffField(resumed.data / scale, resumed.basis)
    theta = estimate(model, normalized).theta_hat
    np.testing.assert_array_equal(model.eig_triples(theta), res.lambda_hat)
    np.testing.assert_array_equal(theta, res.theta_hat)
    np.testing.assert_array_equal(predict_field(resumed, model, theta).data,
                                  res.predicted_field.data)


def test_pipeline_takes_no_fft(monkeypatch):
    # the mode scale and the fit both read the five circular lag moments
    def no_fft(*args, **kwargs):
        raise AssertionError("the pipeline took an FFT")

    for name in ("fft", "fft2", "fftn", "rfft", "rfft2", "rfftn"):
        monkeypatch.setattr(np.fft, name, no_fft)
    series, _ = tiny_series(seed=11)
    res = run_pipeline(series, tiny_cfg())
    assert not res.estimation_skipped


_LATTICE_STAGES_SCIPY = """
import json, sys
import spatialcox.pipeline as P

series, _ = P.make_synthetic_counts((6, 6), n_months=60, support_length=240.0, seed=3)
sites = series.sites.copy()
sites[7] += 0.2  # one node interpolates
res = P.run_pipeline(P.GridSeries(sites, series.times, series.values),
                     P.PipelineConfig(lattice_dims=(6, 6), n_time_nodes=121, n_knots=8))
P.spline_smooth(series.times, series.values, 8)(series.times)
print(json.dumps([res.estimation_skipped, res.fit.converged,
                  sorted(m for m in sys.modules if m.startswith("scipy"))]))
"""


def test_pipeline_lattice_stages_load_no_scipy(tmp_path):
    # a fresh interpreter, since the tests themselves import scipy: smoothing, IDW,
    # evaluation, log, trend, projection and the interior-point Whittle fit of
    # realdata_pmf load no scipy module
    out = subprocess.run([sys.executable, "-c", _LATTICE_STAGES_SCIPY], capture_output=True,
                         text=True, check=True, cwd=tmp_path,
                         env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
    skipped, converged, scipy_modules = json.loads(out.stdout.splitlines()[-1])
    assert not skipped and converged
    assert scipy_modules == []


def test_mode_scale_reads_the_innovation_sd():
    # the Yule-Walker prediction error of the five lag moments estimates each
    # mode's innovation variance.  The circular lag sums bias it up by about 0.5%
    # at 100^2 for these triples, more nearer the causal faces (1.4% at (0.6, 0.2, 0.1)).
    # A field of innovation sds (0.5, 1, 2) is the unit field times the sds.
    sds = np.array([0.5, 1.0, 2.0])
    theta = [0.4, 0.3, -0.1, 0.3, 0.2, 0.1, -0.3, 0.5, 0.2]
    params = Sarh1Params("custom", theta, 3)
    fields = (simulate_sarh1(params, (100, 100), seed=s) for s in range(20))
    ratios = [innovation_sd(CoeffField(f.data * sds, f.basis)) / sds for f in fields]
    np.testing.assert_allclose(np.mean(ratios, axis=0), 1.0, atol=0.02)


def test_pipeline_loss_at_min_reads_one():
    # each normalized mode's least loss over all triples is exactly 1, so the
    # sup loss at the point-spectra fit lies just above it
    for seed in (1000, 1001, 1002):
        series, _ = make_synthetic_counts((40, 40), seed=seed)
        fit = run_pipeline(series, PipelineConfig(lattice_dims=(40, 40))).fit
        assert 1 - 1e-9 <= fit.loss_at_min <= 1.1, (seed, fit.loss_at_min)


# --- input checks at the boundary ---------------------------------------------


def test_pipeline_overflowing_running_totals_tagged_smooth():
    # 60 counts of 1e307 sum past the float range; the coefficients came out inf and
    # escaped as a bare ParameterDomainError from the residual field, outside every stage
    series, _ = make_synthetic_counts((6, 6), n_modes=4, n_months=60, seed=1)
    huge = GridSeries(series.sites, series.times, np.full(series.values.shape, 1e307))
    cfg = PipelineConfig((6, 6), n_time_nodes=120, n_knots=8, trend_degree=3, n_modes=4)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        with pytest.raises(PipelineStageError) as err:
            run_pipeline(huge, cfg)
    assert err.value.stage == "smooth"
    assert isinstance(err.value.__cause__, OverflowGuardError)


@pytest.mark.parametrize("bad", [dict(lattice_dims=(0, 5)), dict(lattice_dims=(1, 1)),
                                 dict(n_knots=-2), dict(trend_degree=-1), dict(n_modes=0),
                                 dict(n_modes=-1), dict(n_modes=10, n_time_nodes=20),
                                 dict(trend_degree=30, n_time_nodes=30)],
                         ids=["lattice_0x5", "lattice_1x1", "negative_knots",
                              "negative_trend_degree", "no_modes", "negative_modes",
                              "time_nodes_below_modes", "time_nodes_below_trend"])
def test_pipeline_config_rejects_out_of_domain(bad):
    with pytest.raises(ParameterDomainError):
        tiny_cfg(**bad)


@pytest.mark.parametrize("kwargs, message", [
    (dict(max_folds=0), "max_folds"), (dict(max_folds=-1), "max_folds"),
    (dict(radius=-1.0), "radius must"), (dict(radius=np.nan), "radius must"),
    (dict(radius=100.0), "holds out every site"),
], ids=["no_folds", "negative_folds", "negative_radius", "nan_radius", "radius_holds_out_all"])
def test_cross_validation_rejects_bad_arguments(kwargs, message, monkeypatch):
    # rejected before any fold runs the pipeline
    monkeypatch.setattr(spatialcox.pipeline, "run_pipeline",
                        lambda *a: pytest.fail("a fold ran"))
    series, _ = tiny_series(seed=31, dims=(4, 4), months=60)
    with pytest.raises(ParameterDomainError, match=message):
        run_cross_validation(series, tiny_cfg(lattice_dims=(4, 4)), **kwargs)


@pytest.mark.parametrize("t", [[0.0, 1.0, np.inf], [1.0, 1.0, 1.0], [0.0, 2.0, 1.0]],
                         ids=["inf", "constant", "unsorted"])
def test_cvfare_refuses_a_t_grid_not_finite_and_increasing(t):
    # an inf time raised a bare RuntimeWarning, a constant grid gave an L1 of NaN and an
    # unsorted one a number
    with pytest.raises(ParameterDomainError, match="finite and strictly increasing"):
        cvfare(np.ones((2, 3)), np.full((2, 3), 2.0), t)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "minus_inf"])
def test_spline_refuses_non_finite_values(bad):
    # one NaN value gave NaN coefficients without a word
    values = np.ones((2, 6))
    values[1, 3] = bad
    with pytest.raises(ParameterDomainError, match="values must be finite"):
        spline_smooth(np.arange(6.0), values, n_knots=1)
