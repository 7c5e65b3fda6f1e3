"""Space-time count ingestion and the estimation pipeline.

Stages (in order): least-squares cubic B-spline fit per site of the raw
records' running totals, taken in the spline's coefficient space (no (sites,
times) running total is formed), inverse-distance-weighted (1 / d^2)
interpolation of the spline coefficients to a regular lattice (weights in
blocks of lattice rows trimmed to the nodes that hold no source, never
O(nodes x sites)), one streamed pass over a dense time grid from 0 to the last
time stamp that evaluates the lattice curves by local support, logs them
floored at 1 and accumulates their polynomial trend and their detrended sine
coordinates P(log) - (P U)(U^T log), U orthonormal on the trend span, in time
blocks sized to the cache (no (times, nodes) array), per-mode normalization by the
innovation sd of the five circular lag moments (no FFT), the interior-point
fit of ``realdata_pmf`` by :func:`~spatialcox.whittle.estimate`, and plug-in
prediction.  A synthetic generator of counts from a known field and trend,
built one lattice row at a time so that its peak memory is about its output,
supports closed-loop validation and the CLI demos.  Every stage is numpy only:
the B-spline basis comes from de Boor's recursion, the IDW distances from
per-axis sums and the fit from the package's own interior-point routine.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .basis import BasisSpec, _quadrature_rows, design_matrix, project_samples
from .cox import predict_field
from .errors import (AmbiguousInterpolationError, DivisionGuardError, FileFormatError,
                     InsufficientResolutionError, OverflowGuardError, ParameterDomainError,
                     PipelineStageError, RankDeficiencyError, check_dims, check_finite, check_int)
from .field import CoeffField, _read_numeric_csv, _write_csv
from .sarh import (TWO_PI_SQ, Sarh1Params, SpectralModel, _gram_min, family_triples,
                   simulate_sarh1)
from .whittle import ThetaEstimate, _sample_gram, estimate


def _check_times(t):
    # t[1:] > t[:-1], not np.diff: a gap wider than the float range overflows
    if not (np.all(np.isfinite(t)) and np.all(t[1:] > t[:-1])):
        raise ParameterDomainError("times must be finite and strictly increasing")


@dataclass(frozen=True, eq=False)
class GridSeries:
    """Raw space-time observations: one series per site.

    sites : finite array (S, 2) of (lon, lat) or lattice coordinates
    times : finite, strictly increasing time stamps (T,), T >= 1
    values : finite array (S, T)

    Sites, times or values other than these raise :class:`ParameterDomainError`.
    """

    sites: np.ndarray
    times: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        sites = np.atleast_2d(np.asarray(self.sites, dtype=float))
        times = np.asarray(self.times, dtype=float)
        values = np.atleast_2d(np.asarray(self.values, dtype=float))
        if sites.ndim != 2 or sites.shape[1] != 2 or not np.all(np.isfinite(sites)):
            raise ParameterDomainError("sites must be a finite (n_sites, 2) array")
        if times.ndim != 1 or not times.size:
            raise ParameterDomainError("times must be a non-empty 1-D array")
        _check_times(times)
        if values.shape != (sites.shape[0], times.size):
            raise ParameterDomainError("values must have shape (n_sites, n_times)")
        check_finite(values, ParameterDomainError, "values must be finite")
        for name, arr in (("sites", sites), ("times", times), ("values", values)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)


def save_series_csv(series: GridSeries, path) -> None:
    """CSV columns site_id, lon, lat, time, value; rows run over sites, then times."""
    _write_csv(path, ["site_id", "lon", "lat", "time", "value"], (series.times,),
               (((s, *site), (v,)) for s, (site, v) in
                enumerate(zip(series.sites.tolist(), series.values))))


def load_series_csv(path) -> GridSeries:
    """Read the CSV written by :func:`save_series_csv`.

    The file needs at least one row of five finite numbers, site ids must
    be non-negative integers, a site keeps one coordinate pair and every
    (site, time) pair appears exactly once; otherwise :class:`FileFormatError`.
    """
    raw = _read_numeric_csv(path, skiprows=1)
    if raw.shape[1] != 5:
        raise FileFormatError("expected rows of site_id, lon, lat, time, value")
    check_finite(raw, FileFormatError, "every entry must be a finite number")
    if np.any(raw[:, 0] < 0) or np.any(raw[:, 0] % 1 != 0):
        raise FileFormatError("site ids must be non-negative integers")
    # sites 0..max(id) each need a row, so an id at or above the row count leaves one
    # out: refuse it before allocating, so that a huge id cannot ask for a huge array
    if raw[:, 0].max() >= raw.shape[0]:
        raise FileFormatError(f"site id {raw[:, 0].max():.0f} leaves sites without rows: "
                              f"ids must run over 0..S-1 within the file's {raw.shape[0]} rows")
    ids = raw[:, 0].astype(int)
    times, t_idx = np.unique(raw[:, 3], return_inverse=True)
    if np.unique(ids * times.size + t_idx).size != ids.size:
        raise FileFormatError("a (site, time) pair appears in more than one row")
    sites = np.zeros((ids.max() + 1, 2))
    sites[ids] = raw[:, 1:3]
    if np.any(sites[ids] != raw[:, 1:3]):
        raise FileFormatError("a site is given more than one coordinate pair")
    values = np.full((sites.shape[0], times.size), np.nan)
    values[ids, t_idx] = raw[:, 4]
    if np.any(np.isnan(values)):
        raise FileFormatError("every site needs a value at every time stamp")
    return GridSeries(sites, times, values)


# ---------------------------------------------------------------------------
# stages


# float64 cells of one block of the IDW weights or the lattice curves, 2 MiB: about one
# core's L2 cache.  On a host with 2 MiB of L2 per core, IDW blocks of 1-4 MiB timed
# alike and 0.25 MiB ran 15% slower
BLOCK_CELLS = 2**18


def _lattice_axes(sites, dims):
    # the IDW lattice's axes: dims[a] evenly spaced points spanning the sites' bounding box
    return [np.linspace(lo, hi, n) for lo, hi, n in zip(sites.min(axis=0), sites.max(axis=0), dims)]


def idw_interpolate(series: GridSeries, target_dims) -> GridSeries:
    """Inverse-distance-weighted interpolation onto a regular lattice, weights 1 / d^2.

    Lattice nodes span the bounding box of the source sites; a node
    coinciding with a source reproduces that source exactly, and coinciding
    with several sources whose rows are not ``np.isclose`` raises
    :class:`AmbiguousInterpolationError`.  The squared distances are formed
    per axis, dx^2 (n1, sites) and dy^2 (n2, sites), and summed per block of
    lattice rows, as cdist's ``sqeuclidean`` sums them, so no distance
    library is needed and no (nodes x sites) array is formed: the
    weights take O(block x sites) memory, with the block set by
    ``BLOCK_CELLS``.  Each block is trimmed to the bounding box of its nodes
    that coincide with no source, and the box's nodes take one (box x sites)
    @ (sites x columns) product, scattered into a C-ordered (columns x nodes)
    array whose transpose is returned, so that each column's lattice values
    are one contiguous row.  A block whose nodes all coincide with sources
    forms no weights, and a lattice of such blocks allocates none.
    """
    n1, n2 = check_dims(target_dims, "target_dims", 1)
    src = series.values
    n_sites = src.shape[0]
    xs, ys = _lattice_axes(series.sites, (n1, n2))
    nodes = np.stack(np.meshgrid(xs, ys, indexing="ij"), axis=-1).reshape(-1, 2)
    dx2 = (xs[:, None] - series.sites[:, 0]) ** 2
    dy2 = (ys[:, None] - series.sites[:, 1]) ** 2
    # rounding is monotone, so the largest fl(dx2 + dy2) pairs each site's largest terms
    d2_max = np.max(dx2.max(axis=0) + dy2.max(axis=0))
    tol = (1e-9 * max(np.sqrt(d2_max), 1.0)) ** 2

    # fl(a + b) >= max(a, b), so a coincident (node, site) pair has its row term below
    # tol: walk, in order, the lattice rows within tol of some site's x, so that nonzero
    # gives the (node, site) pairs ordered by node, then site
    hits = [np.empty((2, 0), dtype=np.intp)]
    for i in np.flatnonzero((dx2 < tol).any(axis=1)):
        near = np.flatnonzero(dx2[i] < tol)
        j, k = np.nonzero(dx2[i, near] + dy2[:, near] < tol)
        hits.append(np.stack([i * n2 + j, near[k]]))
    node, site = np.hstack(hits)

    # a hit node copies its first coincident source; every later coincident
    # source must carry the same series
    first = np.diff(node, prepend=-1) != 0
    later = ~first
    same = np.isclose(src[site[later]], src[site[first][np.cumsum(first)[later] - 1]],
                      equal_nan=True).all(axis=1)
    if not same.all():
        raise AmbiguousInterpolationError(f"node {nodes[node[later][~same][0]]} "
                                          "coincides with sources holding distinct values")

    n_cols = src.shape[1]
    out = np.empty((n_cols, n1, n2))
    rows = min(n1, max(1, BLOCK_CELLS // (n2 * n_sites)))
    cols = min(n2, max(1, BLOCK_CELLS // n_sites))
    missed = np.ones((n1, n2), dtype=bool)
    missed.flat[node] = False
    w = None
    # a hit node inside a block's box of missed nodes takes the weight 1/0, which makes
    # its row inf or NaN; that row is overwritten below
    with np.errstate(divide="ignore", invalid="ignore"):
        for a in range(0, n1, rows):
            for b in range(0, n2, cols):
                block = missed[a:a + rows, b:b + cols]
                i, j = np.flatnonzero(block.any(axis=1)), np.flatnonzero(block.any(axis=0))
                if not i.size:
                    continue
                # the block trimmed to the bounding box of its missed nodes; its weights
                # and product are the heads of flat buffers, so every reshape is a view
                a0, a1, b0, b1 = a + i[0], a + i[-1] + 1, b + j[0], b + j[-1] + 1
                m = (a1 - a0) * (b1 - b0)
                if w is None:
                    w, prod = np.empty(rows * cols * n_sites), np.empty(n_cols * rows * cols)
                wb = w[:m * n_sites].reshape(a1 - a0, b1 - b0, n_sites)
                np.add(dx2[a0:a1, None], dy2[None, b0:b1], out=wb)
                wb = np.reciprocal(wb, out=wb).reshape(m, n_sites)
                # (box x sites) @ (sites x columns), as the dense form orders it: then a
                # box of any width rounds as the dense product does, on the tested BLAS
                pb = prod[:m * n_cols].reshape(m, n_cols)
                np.matmul(wb, src, out=pb)
                pb /= wb.sum(axis=1)[:, None]
                out[:, a0:a1, b0:b1] = pb.T.reshape(n_cols, a1 - a0, b1 - b0)
    out = out.reshape(n_cols, -1)
    out[:, node[first]] = src[site[first]].T
    return GridSeries(nodes, series.times, out.T)


def _svd_of_design(design, what):
    # one thin SVD of a least-squares design: its singular values give the rank test
    # of lstsq (and matrix_rank), u is an orthonormal basis of its span and
    # vt.T / s maps the coordinates u'y to the coefficients
    u, s, vt = np.linalg.svd(design, full_matrices=False)
    if s[-1] <= s[0] * max(design.shape) * np.finfo(float).eps:
        raise RankDeficiencyError(f"{what} design is rank deficient: fewer terms or more times")
    return u, vt.T / s


def _bspline_basis(knots, x):
    # on clamped cubic knots, the knot interval l of each point of x and the values of
    # the only B-splines nonzero there, B_{l-3..l}, by de Boor's recursion (A Practical
    # Guide to Splines, 1978) in BSpline.design_matrix's order of operations, so the
    # values are its own bit for bit.  Points outside the knots take the end
    # intervals' polynomials
    ell = np.clip(np.searchsorted(knots, x, side="right") - 1, 3, knots.size - 5)
    basis = np.zeros((x.size, 4))
    basis[:, 0] = 1.0
    for d in range(1, 4):
        prev = basis[:, :d].copy()
        basis[:, 0] = 0.0
        for n in range(1, d + 1):
            right, left = knots[ell + n], knots[ell + n - d]
            w = prev[:, n - 1] / (right - left)
            basis[:, n - 1] += w * (right - x)
            basis[:, n] = w * (x - left)
    return ell, basis


def _knot_runs(ell, step):
    # (first, end, interval) of each run of consecutive points in one knot interval,
    # cut to at most step points; the intervals are >= 3, so -1 opens and closes the runs
    starts = np.flatnonzero(np.diff(ell, prepend=-1, append=-1))
    for a, b in zip(starts[:-1].tolist(), starts[1:].tolist()):
        for c in range(a, b, step):
            yield c, min(c + step, b), int(ell[a])


@dataclass(frozen=True, eq=False)
class CubicBSpline:
    """Cubic B-spline curves on the clamped knots ``t``, coefficients ``c`` (n_coef, ...).

    Called on points x, it gives the (..., len(x)) curves; outside the knots it
    continues the end polynomials, as ``interpolate.BSpline`` does.  Each run of
    points in one knot interval takes one (points, 4) @ (4, curves) product.
    """

    t: np.ndarray
    c: np.ndarray

    def __call__(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        coef = self.c.reshape(self.c.shape[0], -1)
        ell, basis = _bspline_basis(self.t, x.ravel())
        curves = np.empty((x.size, coef.shape[1]))
        for a, b, k in _knot_runs(ell, x.size):
            np.matmul(basis[a:b], coef[k - 3:k + 1], out=curves[a:b])
        return curves.T.reshape(self.c.shape[1:] + x.shape)


def spline_smooth(times, values, n_knots: int, cumulate: bool = False) -> CubicBSpline:
    """Least-squares cubic B-spline fit with uniform interior knots.

    times : finite, strictly increasing (as in :class:`GridSeries`, else ParameterDomainError)
    values : finite (..., T) curves sampled at ``times``, fitted jointly by one SVD of
    the shared (T, n_knots + 4) design.  With ``cumulate`` the curves fitted are
    the running totals of ``values`` along time.  The fit is linear, so they are
    taken in coefficient space, U^T cumsum(V)^T = (R U)^T V^T with R U the sums
    of U's rows from the last one up, and no running total of ``values`` is
    formed.  Returns the fitted :class:`CubicBSpline`:
    called on a grid in the data range it gives the (..., len(grid)) curves, and
    its ``c`` holds the (n_knots + 4, ...) coefficients.
    """
    t = np.asarray(times, dtype=float)
    v = np.asarray(values, dtype=float)
    n_knots = check_int(n_knots, "n_knots", 0)
    _check_times(t)
    check_finite(v, ParameterDomainError, "values must be finite")
    if t.size < n_knots + 4:
        raise InsufficientResolutionError(
            f"need >= n_knots + 4 = {n_knots + 4} observations, got {t.size}")
    interior = np.linspace(t[0], t[-1], n_knots + 2)[1:-1]
    knots = np.r_[[t[0]] * 4, interior, [t[-1]] * 4]
    ell, basis = _bspline_basis(knots, t)
    design = np.zeros((t.size, knots.size - 4))
    np.put_along_axis(design, ell[:, None] + np.arange(-3, 1), basis, axis=1)
    u, solve = _svd_of_design(design, "spline")
    if cumulate:
        u = np.cumsum(u[::-1], axis=0)[::-1]
    coef = solve @ (u.T @ v.reshape(-1, t.size).T)
    return CubicBSpline(knots, coef.reshape(coef.shape[:1] + v.shape[:-1]))


def _legendre_design_on(fit_times, eval_times, degree):
    t0, t1 = fit_times[0], fit_times[-1]
    u = 2.0 * (np.asarray(eval_times, dtype=float) - t0) / (t1 - t0) - 1.0
    return np.polynomial.legendre.legvander(u, degree)


def _project_curves(knots, coef, t, degree, basis):
    # the log of the curves with spline coefficients coef (n_coef, nodes) on t, floored
    # at LOG_FLOOR: the Legendre trend (degree + 1, nodes), with U orthonormal on its
    # span, the sine coordinates P(log) - (P U)(U^T log) (nodes, M) and the log scale.
    # Per knot interval's run of t (t is sorted, so one run per interval), cut to
    # BLOCK_CELLS, the local-support product, log, sum of squares and product with
    # [U^T; W] (W: P's trapezoid-weighted rows) run while the block is in cache, so no
    # (times, nodes) array is formed
    if t.size < degree + 1:
        raise InsufficientResolutionError(
            f"need >= degree + 1 = {degree + 1} time points, got {t.size}")
    u, solve = _svd_of_design(_legendre_design_on(t, t, degree), "trend")
    pu = project_samples(t, u.T, basis)  # checks that t resolves the basis, first
    rows = np.vstack([u.T, _quadrature_rows(basis, t)])
    ell, local = _bspline_basis(knots, np.clip(t, knots[0], knots[-1]))
    step = max(1, BLOCK_CELLS // coef.shape[1])
    buf = np.empty((min(step, np.bincount(ell).max()), coef.shape[1]))
    acc = np.zeros((rows.shape[0], coef.shape[1]))
    sum_sq = 0.0
    for a, b, k in _knot_runs(ell, step):
        block = buf[:b - a]
        np.matmul(local[a:b], coef[k - 3:k + 1], out=block)
        np.log(np.maximum(block, LOG_FLOOR, out=block), out=block)
        sum_sq += np.vdot(block, block)
        acc += rows[:, a:b] @ block
    utv = acc[:degree + 1]
    return (solve @ utv, acc[degree + 1:].T - utv.T @ pu,
            max(1.0, float(np.sqrt(sum_sq / (t.size * coef.shape[1])))))


def cvfare(true_curves, predicted_curves, t_grid):
    """Pointwise mean absolute relative error and its normalized L1 value.

    CVFARE(t) = mean over curves of |(true - predicted) / true|; the summary
    is the time average (normalized L1 over the grid span).  Curves that are not finite
    or do not share the shape (n, len(t_grid)), and a ``t_grid`` that is not finite and
    strictly increasing, raise :class:`ParameterDomainError`.
    """
    lam = np.atleast_2d(np.asarray(true_curves, dtype=float))
    hat = np.atleast_2d(np.asarray(predicted_curves, dtype=float))
    t = np.asarray(t_grid, dtype=float)
    if lam.shape != hat.shape or lam.shape[-1] != t.size or not np.all(np.isfinite([lam, hat])):
        raise ParameterDomainError("curve arrays must be finite and share shape (n, len(t_grid))")
    _check_times(t)
    if np.any(lam <= 0):
        raise DivisionGuardError("true intensity must be strictly positive")
    curve = np.abs((lam - hat) / lam).mean(axis=0)
    l1 = float(np.trapezoid(curve, t) / (t[-1] - t[0])) if t.size > 1 else float(curve[0])
    return curve, l1


# ---------------------------------------------------------------------------
# pipeline


# curves are floored at one count before the log, so an empty site logs to 0
LOG_FLOOR = 1.0

# relative to max(1, RMS of the log curves): a projected residual below it skips
# estimation, and a mode scale below it means the trend absorbs that mode
RESIDUAL_RMS_FLOOR = 1e-8


@dataclass(frozen=True)
class PipelineConfig:
    """Settings of :func:`run_pipeline`."""

    lattice_dims: tuple = (20, 20)
    n_time_nodes: int = 1725
    n_knots: int = 40
    trend_degree: int = 3
    n_modes: int = 10
    cumulate: bool = True

    def __post_init__(self):
        object.__setattr__(self, "lattice_dims", check_dims(self.lattice_dims, "lattice_dims", 2))
        for name, minimum in (("n_knots", 0), ("trend_degree", 0), ("n_modes", 1)):
            object.__setattr__(self, name, check_int(getattr(self, name), name, minimum))
        need = max(2 * self.n_modes + 1, self.trend_degree + 1)  # projection and trend fit
        object.__setattr__(self, "n_time_nodes",
                           check_int(self.n_time_nodes, "n_time_nodes", need))


@dataclass
class PipelineResult:
    out_times: np.ndarray
    trend_coef: np.ndarray            # Legendre coefficients, (degree+1, N1*N2)
    residual_field: CoeffField        # projected residual coefficients (orthonormal basis)
    mode_scale: np.ndarray            # per-mode innovation sd s_k from the lag moments
    theta_hat: np.ndarray | None
    lambda_hat: np.ndarray | None     # (M, 3) per-mode triples implied by theta_hat
    fit: ThetaEstimate | None         # the fit to the residual field divided by mode_scale
    predicted_field: CoeffField | None   # plug-in predictions of the residual field
    estimation_skipped: bool
    diagnostics: dict

    def trend_curves(self, t=None) -> np.ndarray:
        """Fitted trend evaluated at t (default: the pipeline time grid), (N1, N2, len(t))."""
        t = self.out_times if t is None else np.asarray(t, dtype=float)
        design = _legendre_design_on(self.out_times, t, self.trend_coef.shape[0] - 1)
        n1, n2 = self.residual_field.dims
        return (design @ self.trend_coef).T.reshape(n1, n2, t.size)

    def log_intensity_prediction(self, t=None) -> np.ndarray:
        """Trend plus the plug-in predicted residual curves, when estimation ran."""
        t = self.out_times if t is None else np.asarray(t, dtype=float)
        out = self.trend_curves(t)
        if self.predicted_field is not None:
            out = out + self.predicted_field.data @ design_matrix(self.residual_field.basis, t)
        return out


@contextmanager
def _stage(diagnostics, name):
    # times the block into diagnostics[name]; a failure in it re-raises tagged with name
    t0 = time.perf_counter()
    try:
        yield
    except Exception as exc:
        raise PipelineStageError(name, str(exc)) from exc
    diagnostics[name] = time.perf_counter() - t0


def run_pipeline(raw: GridSeries, cfg: PipelineConfig | None = None) -> PipelineResult:
    """Run the full estimation pipeline on raw site series.

    Stage failures re-raise as :class:`PipelineStageError` with the stage
    tag.  When the detrended residual is numerically zero the estimation
    stages are skipped and the result carries a diagnostic instead.
    """
    cfg = cfg or PipelineConfig()
    diagnostics = {}

    with _stage(diagnostics, "ingest"):  # GridSeries holds finite values only
        if raw.values.min(initial=0.0) < 0:
            raise ParameterDomainError("count inputs must be nonnegative")

    support = float(raw.times[-1])
    out_times = np.linspace(0.0, support, cfg.n_time_nodes)
    with _stage(diagnostics, "smooth"):
        spline = spline_smooth(raw.times, raw.values, cfg.n_knots, cumulate=cfg.cumulate)
        check_finite(spline.c, OverflowGuardError, "spline coefficients overflow the float range")

    # IDW acts on sites and the spline on time, so IDW of the control polygons (the
    # coefficients, at the Greville abscissae) gives those of the interpolated curves
    knots = spline.t
    greville = (knots[1:-3] + knots[2:-2] + knots[3:-1]) / 3.0
    with _stage(diagnostics, "idw"):
        lattice = idw_interpolate(GridSeries(raw.sites, greville, spline.c.T), cfg.lattice_dims)
    with _stage(diagnostics, "project"):  # a last time stamp <= 0 is refused here
        basis = BasisSpec(support_length=support, n_modes=cfg.n_modes)
        trend_coef, coeff, log_scale = _project_curves(knots, lattice.values.T, out_times,
                                                       cfg.trend_degree, basis)
        residual_field = CoeffField(coeff.reshape(cfg.lattice_dims + (-1,)), basis)

    rms = float(np.sqrt(np.mean(coeff**2)))
    if rms < RESIDUAL_RMS_FLOOR * log_scale:
        diagnostics["note"] = f"residual RMS {rms:.3e} below floor; estimation skipped"
        return PipelineResult(out_times, trend_coef, residual_field, np.ones(cfg.n_modes),
                              None, None, None, None, True, diagnostics)

    model = SpectralModel("realdata_pmf", n_modes=cfg.n_modes)
    with _stage(diagnostics, "normalize"):
        mode_scale = np.sqrt(TWO_PI_SQ * _gram_min(_sample_gram(model, residual_field)))
        if not np.all(ok := mode_scale >= RESIDUAL_RMS_FLOOR * log_scale):
            k = int(np.argmin(ok))  # a mode inside the trend's span holds rounding noise only
            raise InsufficientResolutionError(
                f"mode {k + 1} has scale {mode_scale[k]:.3e}, below the residual "
                f"floor: the degree-{cfg.trend_degree} trend absorbs it; lower trend_degree")
    with _stage(diagnostics, "estimate"):
        fit = estimate(model, CoeffField(residual_field.data / mode_scale, basis))
    # the predictor is linear per mode, so it acts on the residual field unscaled
    with _stage(diagnostics, "predict"):
        predicted_field = predict_field(residual_field, model, fit.theta_hat)

    return PipelineResult(out_times, trend_coef, residual_field, mode_scale, fit.theta_hat,
                          model.eig_triples(fit.theta_hat), fit, predicted_field, False,
                          diagnostics)


# ---------------------------------------------------------------------------
# synthetic data for closed-loop validation


DEFAULT_TRUE_PMF = np.array([0.32, 0.08, 0.04,     # theta_{1,1}, deltas for groups
                             0.26, 0.04, -0.04,    # theta_{2,1}, deltas
                             -0.10, -0.02, 0.04])  # theta_{3,1}, deltas
SYNTHETIC_TREND = (4.5, 4.0, 0.4, -0.2)
SYNTHETIC_AMPLITUDE = 0.16
SYNTHETIC_AMP_DECAY = 0.7


@dataclass(frozen=True, eq=False)
class SyntheticTruth:
    theta_flat: np.ndarray
    lambda_true: np.ndarray
    coeff: np.ndarray              # orthonormal-basis coordinates including amplitudes
    basis: BasisSpec

    def log_intensity(self, t) -> np.ndarray:
        """log Lambda at the times t on every lattice site, (n1, n2, len(t))."""
        return np.stack(list(self.log_intensity_rows(t)))

    def log_intensity_rows(self, t):
        """log Lambda at the times t, one (n2, len(t)) lattice row at a time in row
        order: the cubic trend in t / L plus the field's sine expansion."""
        t = np.asarray(t, dtype=float)
        u = t / self.basis.support_length
        trend = sum(c * u**p for p, c in enumerate(SYNTHETIC_TREND))
        design = design_matrix(self.basis, t)
        for row in self.coeff:
            yield trend + row @ design


def make_synthetic_counts(lattice_dims=(40, 40), n_modes: int = 10, n_months: int = 432,
                          support_length: float = 1725.0, seed: int = 0):
    """Monthly count series from a known SARH(1) log-intensity plus cubic trend.

    The field is ``realdata_pmf`` at ``DEFAULT_TRUE_PMF``.  The cumulative
    intensity curve at each lattice site is exp(trend(t/L) + sum_p amp_p
    c_p(z) phi_p(t)), with the cubic ``SYNTHETIC_TREND`` and amp_p =
    ``SYNTHETIC_AMPLITUDE`` / p^``SYNTHETIC_AMP_DECAY``; monthly counts are
    independent Poisson draws of the increments, so the cumulative counts
    track the curve with relative noise ~ Lambda^{-1/2}.  Sites coincide
    with the lattice nodes, making the IDW stage exact.

    The counts are built one lattice row at a time, straight into the one
    (n1 * n2, n_months) output: per row the log-intensity, its exp, the
    increments floored at 0 and the Poisson draws.  Drawing row by row in row
    order reads the generator's stream as one draw over the whole lattice
    would, so the counts are the same, and the peak memory is about the
    output's.

    Returns (GridSeries, SyntheticTruth).
    """
    n1, n2 = check_dims(lattice_dims, "lattice_dims", 2)
    n_months, seed = check_int(n_months, "n_months", 1), check_int(seed, "seed", 0)
    lam_true = family_triples("realdata_pmf", DEFAULT_TRUE_PMF, n_modes)
    params = Sarh1Params("custom", lam_true.ravel(), n_modes)
    basis = BasisSpec(support_length=support_length, n_modes=n_modes)
    fld = simulate_sarh1(params, (n1, n2), seed=seed, basis=basis)
    amp = SYNTHETIC_AMPLITUDE / np.arange(1, n_modes + 1) ** SYNTHETIC_AMP_DECAY
    # amp_p times the raw sine is amp_p sqrt(L/2) times the orthonormal one
    coeff = fld.data * (amp * np.sqrt(support_length / 2.0))

    t_m = np.linspace(0.0, support_length, n_months + 1)[1:]
    truth = SyntheticTruth(DEFAULT_TRUE_PMF.copy(), lam_true, coeff, basis)
    rng = np.random.default_rng(seed + 1)
    counts = np.empty((n1, n2, n_months))
    for row, log in zip(counts, truth.log_intensity_rows(t_m)):
        inc = np.diff(np.exp(log, out=log), axis=-1, prepend=0.0)
        row[...] = rng.poisson(np.maximum(inc, 0.0, out=inc))

    nodes = np.stack(np.indices((n1, n2), dtype=float), -1).reshape(-1, 2)
    series = GridSeries(nodes, t_m, counts.reshape(-1, n_months))
    return series, truth


# ---------------------------------------------------------------------------
# cross-validation


def run_cross_validation(raw: GridSeries, cfg: PipelineConfig | None = None,
                         max_folds: int = 12, radius: float = 0.0, seed: int = 0):
    """Leave-site-out cross-validation of the plug-in intensity prediction.

    For each held-out site (a seeded subsample of at most ``max_folds``),
    the pipeline runs on the remaining sites (the IDW stage fills the gap),
    and the predicted intensity curve at the nearest lattice node is scored
    by :func:`cvfare` against the held-out site's own smoothed cumulative
    curve.  The held-out set is every site within ``radius`` of it, its co-located
    twins too; a radius that is not a number >= 0 raises :class:`ParameterDomainError`.

    Returns a dict with the pointwise CVFARE curve (on every 8th node of the
    pipeline time grid), its normalized L1 value, and the per-fold values.
    """
    cfg = cfg or PipelineConfig()
    max_folds, seed = check_int(max_folds, "max_folds", 1), check_int(seed, "seed", 0)
    if not radius >= 0:  # NaN too
        raise ParameterDomainError("radius must be >= 0")
    n_sites = raw.sites.shape[0]
    rng = np.random.default_rng(seed)
    folds = np.arange(n_sites) if n_sites <= max_folds else np.sort(
        rng.choice(n_sites, size=max_folds, replace=False))
    keeps = [np.linalg.norm(raw.sites - raw.sites[s], axis=1) > radius for s in folds]
    if not all(keep.any() for keep in keeps):
        raise ParameterDomainError(f"radius {radius} holds out every site of a fold")

    t_eval = np.linspace(0.0, float(raw.times[-1]), cfg.n_time_nodes)[::8]

    smoothed = spline_smooth(raw.times, raw.values[folds], cfg.n_knots, cumulate=cfg.cumulate)
    observed = np.maximum(smoothed(np.clip(t_eval, raw.times[0], raw.times[-1])), LOG_FLOOR)

    preds = []
    for s, keep in zip(folds, keeps):
        sub = GridSeries(raw.sites[keep], raw.times, raw.values[keep])
        res = run_pipeline(sub, cfg)
        i, j = (int(np.argmin(np.abs(axis - raw.sites[s, a])))
                for a, axis in enumerate(_lattice_axes(sub.sites, res.residual_field.dims)))
        preds.append(np.exp(res.log_intensity_prediction(t_eval)[i, j]))
    curve, l1 = cvfare(observed, preds, t_eval)
    fold_l1 = [cvfare(o, p, t_eval)[1] for o, p in zip(observed, preds)]
    return {"t": t_eval, "cvfare": curve, "l1": l1,
            "folds": folds.tolist(), "fold_l1": fold_l1}
