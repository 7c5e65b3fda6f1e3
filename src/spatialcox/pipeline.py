"""Space-time count ingestion and the estimation pipeline.

Stages (in order): cumulate raw records, least-squares cubic B-spline fit
per site, inverse-distance-weighted (1 / d^2) interpolation of the spline
coefficients to a regular lattice, evaluation on a dense time grid from 0
to the last time stamp, log transform of the curves floored at 1, per-node
polynomial trend fit, projection of the detrended curves onto the sine
basis as P(log) - (P U)(U^T log) (U orthonormal on the trend span, so the
residual cube is never formed), per-mode normalization by the innovation sd
that the field's five circular lag moments give (no FFT), a fit of the
point-spectra family ``realdata_pmf`` from the normalized field's moments
at :func:`~spatialcox.whittle.estimate`'s defaults, and plug-in prediction.
A synthetic generator producing count data from a known field +
trend supports closed-loop validation and the CLI demos.  The stages import
the scipy they call (``scipy.interpolate``, ``scipy.spatial``) inside their
functions, so importing this module loads numpy only.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .basis import BasisSpec, design_matrix, project_samples
from .cox import predict_field
from .errors import (AmbiguousInterpolationError, DivisionGuardError, FileFormatError,
                     InsufficientResolutionError, ParameterDomainError,
                     PipelineStageError, RankDeficiencyError, check_dims, check_int)
from .field import CoeffField, _read_numeric_csv, _write_csv
from .sarh import (TWO_PI_SQ, Sarh1Params, SpectralModel, _gram_min, family_triples,
                   simulate_sarh1)
from .whittle import ThetaEstimate, estimate, trig_moments


@dataclass(frozen=True, eq=False)
class GridSeries:
    """Raw space-time observations: one series per site.

    sites : array (S, 2) of (lon, lat) or lattice coordinates
    times : finite, strictly increasing time stamps (T,)
    values : array (S, T)
    """

    sites: np.ndarray
    times: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        sites = np.atleast_2d(np.asarray(self.sites, dtype=float))
        times = np.asarray(self.times, dtype=float)
        values = np.atleast_2d(np.asarray(self.values, dtype=float))
        # times[1:] > times[:-1], not np.diff: a gap wider than the float range overflows
        if not (np.all(np.isfinite(times)) and np.all(times[1:] > times[:-1])):
            raise ParameterDomainError("times must be finite and strictly increasing")
        if values.shape != (sites.shape[0], times.size):
            raise ParameterDomainError("values must have shape (n_sites, n_times)")
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
    if not np.all(np.isfinite(raw)):
        raise FileFormatError("every entry must be a finite number")
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


def idw_interpolate(series: GridSeries, target_dims) -> GridSeries:
    """Inverse-distance-weighted interpolation onto a regular lattice, weights 1 / d^2.

    Lattice nodes span the bounding box of the source sites; a node
    coinciding with a source reproduces that source exactly, and coinciding
    with several sources whose rows are not ``np.isclose`` raises
    :class:`AmbiguousInterpolationError`.  The remaining nodes take one
    row-normalised weight-matrix product, so the cost is one (nodes x sites)
    @ (sites x columns) product and O(nodes x sites) memory for the weights.
    """
    from scipy.spatial.distance import cdist

    n1, n2 = check_dims(target_dims, "target_dims", 1)
    xs = np.linspace(series.sites[:, 0].min(), series.sites[:, 0].max(), n1)
    ys = np.linspace(series.sites[:, 1].min(), series.sites[:, 1].max(), n2)
    nodes = np.stack(np.meshgrid(xs, ys, indexing="ij"), axis=-1).reshape(-1, 2)
    d2 = cdist(nodes, series.sites, "sqeuclidean")
    hits = d2 < (1e-9 * max(np.sqrt(d2.max()), 1.0)) ** 2
    is_hit = hits.any(axis=1)
    out = np.empty((nodes.shape[0], series.times.size))

    # a hit node copies its first coincident source; every coincident
    # source must carry the same series
    hits = hits[is_hit]
    first = hits.argmax(axis=1)
    node_idx, src_idx = np.nonzero(hits)
    same = np.isclose(series.values[src_idx], series.values[first[node_idx]],
                      equal_nan=True).all(axis=1)
    if not same.all():
        raise AmbiguousInterpolationError(f"node {nodes[is_hit][node_idx[~same][0]]} "
                                          "coincides with sources holding distinct values")
    out[is_hit] = series.values[first]

    miss = ~is_hit
    if miss.any():
        w = d2[miss] if is_hit.any() else d2
        w **= -1.0  # 1 / d^2 in place: d2 is not read again
        out[miss] = (w @ series.values) / w.sum(axis=1)[:, None]
    return GridSeries(nodes, series.times, out)


def _svd_of_design(design, what):
    # one thin SVD of a least-squares design: its singular values give the rank test
    # of lstsq (and matrix_rank), u is an orthonormal basis of its span and
    # vt.T / s maps the coordinates u'y to the coefficients
    u, s, vt = np.linalg.svd(design, full_matrices=False)
    if s[-1] <= s[0] * max(design.shape) * np.finfo(float).eps:
        raise RankDeficiencyError(f"{what} design is rank deficient: fewer terms or more times")
    return u, vt.T / s


def spline_smooth(times, values, n_knots: int) -> BSpline:
    """Least-squares cubic B-spline fit with uniform interior knots.

    values : (..., T) curves sampled at ``times``, fitted jointly by one SVD of
    the shared (T, n_knots + 4) design.  Returns the fitted ``BSpline``: called
    on a grid in the data range it gives the (..., len(grid)) curves, and its
    ``c`` holds the (n_knots + 4, ...) coefficients.
    """
    from scipy.interpolate import BSpline

    t = np.asarray(times, dtype=float)
    v = np.asarray(values, dtype=float)
    n_knots = check_int(n_knots, "n_knots", 0)
    if t.size < n_knots + 4:
        raise InsufficientResolutionError(
            f"need >= n_knots + 4 = {n_knots + 4} observations, got {t.size}")
    interior = np.linspace(t[0], t[-1], n_knots + 2)[1:-1]
    knots = np.r_[[t[0]] * 4, interior, [t[-1]] * 4]
    u, solve = _svd_of_design(BSpline.design_matrix(t, knots, 3).toarray(), "spline")
    coef = solve @ (u.T @ v.reshape(-1, t.size).T)
    return BSpline(knots, coef.T.reshape(v.shape[:-1] + (knots.size - 4,)), 3, axis=-1)


def _legendre_design_on(fit_times, eval_times, degree):
    t0, t1 = fit_times[0], fit_times[-1]
    u = 2.0 * (np.asarray(eval_times, dtype=float) - t0) / (t1 - t0) - 1.0
    return np.polynomial.legendre.legvander(u, degree)


def _fit_trend(values, times, degree):
    # per-site Legendre least squares along the last axis by one SVD of the design:
    # coef (degree + 1, sites), U (T, degree + 1) and the coordinates U^T v (sites, degree + 1)
    t = np.asarray(times, dtype=float)
    v = np.asarray(values, dtype=float)
    if t.size < degree + 1:
        raise InsufficientResolutionError(
            f"need >= degree + 1 = {degree + 1} time points, got {t.size}")
    u, solve = _svd_of_design(_legendre_design_on(t, t, degree), "trend")
    utv = v.reshape(-1, t.size) @ u
    return solve @ utv.T, u, utv


def cvfare(true_curves, predicted_curves, t_grid):
    """Pointwise mean absolute relative error and its normalized L1 value.

    CVFARE(t) = mean over curves of |(true - predicted) / true|; the summary
    is the time average (normalized L1 over the grid span).
    """
    lam = np.atleast_2d(np.asarray(true_curves, dtype=float))
    hat = np.atleast_2d(np.asarray(predicted_curves, dtype=float))
    t = np.asarray(t_grid, dtype=float)
    if lam.shape != hat.shape or lam.shape[-1] != t.size or not np.all(np.isfinite([lam, hat])):
        raise ParameterDomainError("curve arrays must be finite and share shape (n, len(t_grid))")
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


def run_pipeline(raw: GridSeries, cfg: PipelineConfig | None = None) -> PipelineResult:
    """Run the full estimation pipeline on raw site series.

    Stage failures re-raise as :class:`PipelineStageError` with the stage
    tag.  When the detrended residual is numerically zero the estimation
    stages are skipped and the result carries a diagnostic instead.
    """
    from scipy.interpolate import BSpline

    cfg = cfg or PipelineConfig()
    diagnostics = {}

    def stage(name, fn):
        t0 = time.perf_counter()
        try:
            out = fn()
        except Exception as exc:
            raise PipelineStageError(name, str(exc)) from exc
        diagnostics[name] = time.perf_counter() - t0
        return out

    def _ingest():
        for name, arr in (("counts", raw.values), ("site coordinates", raw.sites)):
            if not np.all(np.isfinite(arr)):
                raise ParameterDomainError(f"{name} must be finite")
        if np.any(raw.values < 0):
            raise ParameterDomainError("count inputs must be nonnegative")
        return raw.values

    values = stage("ingest", _ingest)
    values = stage("cumulate", lambda: np.cumsum(values, axis=1) if cfg.cumulate else values)

    support = float(raw.times[-1])
    out_times = np.linspace(0.0, support, cfg.n_time_nodes)
    spline = stage("smooth", lambda: spline_smooth(raw.times, values, cfg.n_knots))

    # IDW acts on sites and the spline on time, so IDW of the control polygons (the
    # coefficients, at the Greville abscissae) gives those of the interpolated curves
    knots = spline.t
    greville = (knots[1:-3] + knots[2:-2] + knots[3:-1]) / 3.0
    lattice = stage("idw", lambda: idw_interpolate(
        GridSeries(raw.sites, greville, spline.c.T), cfg.lattice_dims))
    # every lattice curve by one design-matrix product, constant outside the data range
    curves = stage("evaluate", lambda: lattice.values @ BSpline.design_matrix(
        np.clip(out_times, knots[0], knots[-1]), knots, 3).toarray().T)
    log_curves = stage("log", lambda: np.log(np.maximum(curves, LOG_FLOOR, out=curves),
                                             out=curves))

    trend_coef, u, utv = stage("trend", lambda: _fit_trend(log_curves, out_times,
                                                           cfg.trend_degree))

    # the projection of log - U U^T log, without forming the residual
    basis = BasisSpec(support_length=support, n_modes=cfg.n_modes)
    coeff = stage("project", lambda: project_samples(out_times, log_curves, basis)
                  - utv @ project_samples(out_times, u.T, basis))
    residual_field = CoeffField(coeff.reshape(cfg.lattice_dims + (-1,)), basis)

    rms = float(np.sqrt(np.mean(coeff**2)))
    log_scale = max(1.0, float(np.sqrt(np.vdot(log_curves, log_curves) / log_curves.size)))
    if rms < RESIDUAL_RMS_FLOOR * log_scale:
        diagnostics["note"] = f"residual RMS {rms:.3e} below floor; estimation skipped"
        return PipelineResult(out_times, trend_coef, residual_field, np.ones(cfg.n_modes),
                              None, None, None, None, True, diagnostics)

    def _normalize():
        scale = np.sqrt(TWO_PI_SQ * _gram_min(trig_moments(residual_field)))
        low = np.flatnonzero(scale < RESIDUAL_RMS_FLOOR * log_scale)
        if low.size:  # a mode inside the trend's span holds rounding noise only
            raise InsufficientResolutionError(
                f"mode {low[0] + 1} has scale {scale[low[0]]:.3e}, below the residual floor: "
                f"the degree-{cfg.trend_degree} trend absorbs it; lower trend_degree")
        return scale

    mode_scale = stage("normalize", _normalize)

    def _estimate():
        model = SpectralModel("realdata_pmf", n_modes=cfg.n_modes)
        normalized_field = CoeffField(residual_field.data / mode_scale, basis)
        return model, estimate(model, normalized_field)

    model, fit = stage("estimate", _estimate)
    # the predictor is linear per mode, so it acts on the residual field unscaled
    predicted_field = stage("predict", lambda: predict_field(residual_field, model,
                                                             fit.theta_hat))

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
        t = np.asarray(t, dtype=float)
        u = t / self.basis.support_length
        trend = sum(c * u**p for p, c in enumerate(SYNTHETIC_TREND))
        return trend[None, None, :] + self.coeff @ design_matrix(self.basis, t)


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
    lam_curve = np.exp(truth.log_intensity(t_m))
    inc = np.diff(lam_curve, axis=2, prepend=0.0)
    rng = np.random.default_rng(seed + 1)
    counts = rng.poisson(np.maximum(inc, 0.0)).astype(float)

    xs = np.arange(n1, dtype=float)
    ys = np.arange(n2, dtype=float)
    nodes = np.stack(np.meshgrid(xs, ys, indexing="ij"), axis=-1).reshape(-1, 2)
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
    curve.  ``radius`` extends the held-out set to all sites within that
    distance.

    Returns a dict with the pointwise CVFARE curve (on every 8th node of the
    pipeline time grid), its normalized L1 value, and the per-fold values.
    """
    cfg = cfg or PipelineConfig()
    max_folds, seed = check_int(max_folds, "max_folds", 1), check_int(seed, "seed", 0)
    if radius < 0:
        raise ParameterDomainError("radius must be >= 0")
    n_sites = raw.sites.shape[0]
    rng = np.random.default_rng(seed)
    folds = np.arange(n_sites) if n_sites <= max_folds else np.sort(
        rng.choice(n_sites, size=max_folds, replace=False))
    keeps = [np.linalg.norm(raw.sites - raw.sites[s], axis=1) > radius if radius > 0
             else np.arange(n_sites) != s for s in folds]
    if not all(keep.any() for keep in keeps):
        raise ParameterDomainError(f"radius {radius} holds out every site of a fold")

    t_eval = np.linspace(0.0, float(raw.times[-1]), cfg.n_time_nodes)[::8]

    values = np.cumsum(raw.values[folds], axis=1) if cfg.cumulate else raw.values[folds]
    smoothed = spline_smooth(raw.times, values, cfg.n_knots)
    observed = np.maximum(smoothed(np.clip(t_eval, raw.times[0], raw.times[-1])), LOG_FLOOR)

    preds = []
    for s, keep in zip(folds, keeps):
        sub = GridSeries(raw.sites[keep], raw.times, raw.values[keep])
        res = run_pipeline(sub, cfg)
        pred = np.exp(res.log_intensity_prediction(t_eval))
        lo, hi = sub.sites.min(axis=0), sub.sites.max(axis=0)
        i, j = (int(np.argmin(np.abs(np.linspace(lo[a], hi[a], n) - raw.sites[s, a])))
                for a, n in enumerate(res.residual_field.dims))
        preds.append(pred[i, j])
    curve, l1 = cvfare(observed, preds, t_eval)
    fold_l1 = [cvfare(o, p, t_eval)[1] for o, p in zip(observed, preds)]
    return {"t": t_eval, "cvfare": curve, "l1": l1,
            "folds": folds.tolist(), "fold_l1": fold_l1}
