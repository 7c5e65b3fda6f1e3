"""Space-time count ingestion and the estimation pipeline.

Stages (in order): cumulate raw records, least-squares cubic B-spline
smoothing onto a dense time grid, inverse-distance-weighted interpolation
to a regular lattice, log transform, per-site polynomial trend removal,
projection onto the sine basis, per-mode normalization, 2-D FFT
periodogram, point-spectra model fit, and plug-in prediction.  A synthetic
generator producing count data from a known field + trend supports
closed-loop validation and the CLI demos.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field as dc_field

import numpy as np
from scipy.interpolate import make_lsq_spline
from scipy.spatial.distance import cdist

from .basis import BasisSpec, design_matrix, project_samples
from .cox import predict_field
from .errors import (AmbiguousInterpolationError, DivisionGuardError, FileFormatError,
                     InsufficientResolutionError, ParameterDomainError,
                     PipelineStageError, RankDeficiencyError)
from .field import CoeffField, _read_numeric_csv, _write_csv
from .sarh import DEFAULT_PMF_GROUPS, Sarh1Params, SpectralModel, family_triples, simulate_sarh1
from .spectral import Periodogram, periodogram
from .whittle import EstimateOptions, estimate


@dataclass(frozen=True, eq=False)
class GridSeries:
    """Raw space-time observations: one series per site.

    sites : array (S, 2) of (lon, lat) or lattice coordinates
    times : strictly increasing time stamps (T,)
    values : array (S, T)
    lattice_dims : set when the sites enumerate a regular lattice row-major
    """

    sites: np.ndarray
    times: np.ndarray
    values: np.ndarray
    lattice_dims: tuple | None = None

    def __post_init__(self):
        sites = np.atleast_2d(np.asarray(self.sites, dtype=float))
        times = np.asarray(self.times, dtype=float)
        values = np.atleast_2d(np.asarray(self.values, dtype=float))
        if np.any(np.diff(times) <= 0):
            raise ParameterDomainError("times must be strictly increasing")
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


def idw_interpolate(series: GridSeries, target_dims, power: float = 2.0) -> GridSeries:
    """Inverse-distance-weighted interpolation onto a regular lattice.

    Lattice nodes span the bounding box of the source sites; a node
    coinciding with a source reproduces that source exactly, and coinciding
    with several sources carrying different series raises
    :class:`AmbiguousInterpolationError`.  The remaining nodes take one
    row-normalised weight-matrix product, so the cost is one (nodes x sites)
    @ (sites x times) product and O(nodes x sites) memory for the weights.
    """
    if power <= 0:
        raise ParameterDomainError("IDW power must be positive")
    n1, n2 = int(target_dims[0]), int(target_dims[1])
    xs = np.linspace(series.sites[:, 0].min(), series.sites[:, 0].max(), n1)
    ys = np.linspace(series.sites[:, 1].min(), series.sites[:, 1].max(), n2)
    nodes = np.stack(np.meshgrid(xs, ys, indexing="ij"), axis=-1).reshape(-1, 2)
    d = cdist(nodes, series.sites)
    scale = max(d.max(), 1.0)
    hits = d < 1e-9 * scale
    is_hit = hits.any(axis=1)
    out = np.empty((nodes.shape[0], series.times.size))

    # a hit node copies its first coincident source; later coincident
    # sources must carry the same series
    first = hits.argmax(axis=1)
    node_idx, src_idx = np.nonzero(hits)
    extra = src_idx != first[node_idx]
    if extra.any():
        node_idx, src_idx = node_idx[extra], src_idx[extra]
        same = np.isclose(series.values[src_idx], series.values[first[node_idx]]).all(axis=1)
        if not same.all():
            bad = node_idx[~same][0]
            raise AmbiguousInterpolationError(
                f"node {nodes[bad]} coincides with sources holding distinct values")
    out[is_hit] = series.values[first[is_hit]]

    miss = ~is_hit
    if miss.any():
        w = d[miss] ** (-power)
        out[miss] = (w @ series.values) / w.sum(axis=1)[:, None]
    return GridSeries(nodes, series.times, out, lattice_dims=(n1, n2))


def spline_smooth(times, values, n_knots: int, out_grid) -> np.ndarray:
    """Least-squares cubic B-spline fit with uniform interior knots.

    values : (..., T) curves sampled at ``times``; fitted jointly (shared
    design matrix) and evaluated on ``out_grid`` (clamped to the data range,
    so no extrapolation happens).
    """
    t = np.asarray(times, dtype=float)
    v = np.asarray(values, dtype=float)
    if t.size < n_knots + 4:
        raise InsufficientResolutionError(
            f"need >= n_knots + 4 = {n_knots + 4} observations, got {t.size}")
    interior = np.linspace(t[0], t[-1], n_knots + 2)[1:-1]
    knots = np.r_[[t[0]] * 4, interior, [t[-1]] * 4]
    flat = v.reshape(-1, t.size).T
    try:
        spl = make_lsq_spline(t, flat, knots, k=3)
    except Exception as exc:
        raise RankDeficiencyError(f"spline design is rank deficient: {exc}") from exc
    out = np.asarray(out_grid, dtype=float)
    fitted = spl(np.clip(out, t[0], t[-1]))
    return fitted.T.reshape(v.shape[:-1] + (out.size,))


def _legendre_design_on(fit_times, eval_times, degree):
    t0, t1 = fit_times[0], fit_times[-1]
    u = 2.0 * (np.asarray(eval_times, dtype=float) - t0) / (t1 - t0) - 1.0
    return np.polynomial.legendre.legvander(u, degree)


def polyfit_trend(values, times, degree: int = 10):
    """Per-site least-squares polynomial trend in time (orthogonal Legendre basis).

    Returns (trend, residual) with residual = values - trend; the residual
    is orthogonal to the polynomial span up to float tolerance.
    """
    t = np.asarray(times, dtype=float)
    v = np.asarray(values, dtype=float)
    if t.size < degree + 1:
        raise InsufficientResolutionError(
            f"need >= degree + 1 = {degree + 1} time points, got {t.size}")
    design = _legendre_design_on(t, t, degree)
    coef, _, rank, _ = np.linalg.lstsq(design, v.reshape(-1, t.size).T, rcond=None)
    if rank < degree + 1:
        raise RankDeficiencyError(
            "trend design rank deficient even in the orthogonal Legendre basis; "
            "reduce the degree or refine the time grid")
    trend = (design @ coef).T.reshape(v.shape)
    return trend, v - trend


def cvfare(true_curves, predicted_curves, t_grid):
    """Pointwise mean absolute relative error and its normalized L1 value.

    CVFARE(t) = mean over curves of |(true - predicted) / true|; the summary
    is the time average (normalized L1 over the grid span).
    """
    lam = np.atleast_2d(np.asarray(true_curves, dtype=float))
    hat = np.atleast_2d(np.asarray(predicted_curves, dtype=float))
    t = np.asarray(t_grid, dtype=float)
    if lam.shape != hat.shape or lam.shape[-1] != t.size:
        raise ParameterDomainError("curve arrays must share shape (n, len(t_grid))")
    if np.any(lam <= 0):
        raise DivisionGuardError("true intensity must be strictly positive")
    curve = np.abs((lam - hat) / lam).mean(axis=0)
    l1 = float(np.trapezoid(curve, t) / (t[-1] - t[0])) if t.size > 1 else float(curve[0])
    return curve, l1


# ---------------------------------------------------------------------------
# pipeline


@dataclass(frozen=True)
class PipelineConfig:
    lattice_dims: tuple = (20, 20)
    idw_power: float = 2.0
    n_time_nodes: int = 1725
    n_knots: int = 40
    log_floor: float = 1.0
    trend_degree: int = 10
    n_modes: int = 10
    family: str = "realdata_pmf"
    groups: tuple = DEFAULT_PMF_GROUPS
    cumulate: bool = True
    support_length: float | None = None
    estimate_opts: EstimateOptions = dc_field(
        default_factory=lambda: EstimateOptions(loss_tol=1e-10, max_evals=3000))
    residual_rms_floor: float = 1e-8


@dataclass
class PipelineResult:
    config: PipelineConfig
    out_times: np.ndarray
    basis: BasisSpec
    trend_coef: np.ndarray            # Legendre coefficients, (degree+1, N1*N2)
    residual_field: CoeffField        # projected residual coefficients (orthonormal basis)
    mode_scale: np.ndarray            # per-mode normalization factors s_k
    normalized_field: CoeffField
    pgram: Periodogram | None
    theta_hat: np.ndarray | None
    lambda_hat: np.ndarray | None     # (M, 3) per-mode triples implied by theta_hat
    fits: dict
    predicted_field: CoeffField | None   # de-normalized plug-in predictions
    estimation_skipped: bool
    diagnostics: dict

    def trend_curves(self, t=None) -> np.ndarray:
        """Fitted trend evaluated at t (default: the pipeline time grid), (N1, N2, len(t))."""
        t = self.out_times if t is None else np.asarray(t, dtype=float)
        design = _legendre_design_on(self.out_times, t, self.trend_coef.shape[0] - 1)
        n1, n2 = self.residual_field.dims
        return (design @ self.trend_coef).T.reshape(n1, n2, t.size)

    def log_intensity_prediction(self, t=None, include_field: bool = True) -> np.ndarray:
        """Trend plus (optionally) the plug-in predicted residual curves."""
        t = self.out_times if t is None else np.asarray(t, dtype=float)
        out = self.trend_curves(t)
        if include_field and self.predicted_field is not None:
            phi = design_matrix(self.basis, t, normalized=True)
            out = out + self.predicted_field.data @ phi
        return out


def run_pipeline(raw: GridSeries, cfg: PipelineConfig | None = None) -> PipelineResult:
    """Run the full estimation pipeline on raw site series.

    Stage failures re-raise as :class:`PipelineStageError` with the stage
    tag.  When the detrended residual is numerically zero the estimation
    stages are skipped and the result carries a diagnostic instead.
    """
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
        if np.any(raw.values < 0):
            raise ParameterDomainError("count inputs must be nonnegative")
        return raw.values

    values = stage("ingest", _ingest)
    values = stage("cumulate", lambda: np.cumsum(values, axis=1) if cfg.cumulate else values)

    support = cfg.support_length if cfg.support_length is not None else float(raw.times[-1])
    out_times = np.linspace(0.0, support, cfg.n_time_nodes)
    smoothed = stage("smooth", lambda: spline_smooth(raw.times, values, cfg.n_knots, out_times))

    lattice = stage("idw", lambda: idw_interpolate(
        GridSeries(raw.sites, out_times, smoothed), cfg.lattice_dims, cfg.idw_power))
    n1, n2 = lattice.lattice_dims
    cube = lattice.values.reshape(n1, n2, out_times.size)

    log_curves = stage("log", lambda: np.log(np.maximum(cube, cfg.log_floor)))

    def _trend():
        design = _legendre_design_on(out_times, out_times, cfg.trend_degree)
        coef, _, rank, _ = np.linalg.lstsq(design, log_curves.reshape(-1, out_times.size).T,
                                           rcond=None)
        if rank < cfg.trend_degree + 1:
            raise RankDeficiencyError("trend design rank deficient")
        resid = log_curves - (design @ coef).T.reshape(log_curves.shape)
        return coef, resid

    trend_coef, residual = stage("trend", _trend)

    basis = BasisSpec(support_length=support, n_modes=cfg.n_modes)
    coeff = stage("project", lambda: project_samples(out_times, residual, basis, normalized=True))
    residual_field = CoeffField(coeff, basis)

    rms = float(np.sqrt(np.mean(coeff**2)))
    log_scale = max(1.0, float(np.sqrt(np.mean(log_curves**2))))
    if rms < cfg.residual_rms_floor * log_scale:
        diagnostics["note"] = (
            f"residual RMS {rms:.3e} below floor; estimation skipped")
        return PipelineResult(cfg, out_times, basis, trend_coef, residual_field,
                              np.ones(cfg.n_modes), residual_field, None, None, None,
                              {}, None, True, diagnostics)

    def _normalize():
        pg0 = periodogram(residual_field)
        i0 = pg0.diag_real()
        s2 = np.exp(np.mean(np.log(np.maximum((2.0 * np.pi) ** 2 * i0, 1e-300)), axis=(0, 1)))
        return np.sqrt(s2)

    mode_scale = stage("normalize", _normalize)
    normalized_field = CoeffField(coeff / mode_scale, basis)
    pgram = stage("periodogram", lambda: periodogram(normalized_field))

    def _estimate():
        model = SpectralModel(cfg.family, n_modes=cfg.n_modes, groups=cfg.groups)
        return model, estimate(model, pgram, cfg.estimate_opts)

    model, fit = stage("estimate", _estimate)
    predicted_field = stage("predict", lambda: CoeffField(
        predict_field(normalized_field, model, fit.theta_hat).data * mode_scale, basis))

    return PipelineResult(cfg, out_times, basis, trend_coef, residual_field, mode_scale,
                          normalized_field, pgram, fit.theta_hat,
                          model.eig_triples(fit.theta_hat), {"fit": fit},
                          predicted_field, False, diagnostics)


# ---------------------------------------------------------------------------
# synthetic data for closed-loop validation


DEFAULT_TRUE_PMF = np.array([0.32, 0.08, 0.04,     # theta_{1,1}, deltas for groups
                             0.26, 0.04, -0.04,    # theta_{2,1}, deltas
                             -0.10, -0.02, 0.04])  # theta_{3,1}, deltas


@dataclass(frozen=True, eq=False)
class SyntheticTruth:
    theta_flat: np.ndarray
    lambda_true: np.ndarray
    coeff_raw: np.ndarray          # raw-sine coefficients including amplitudes
    trend_poly: np.ndarray         # coefficients in u = t / support
    support_length: float
    basis: BasisSpec

    def log_intensity(self, t) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        u = t / self.support_length
        trend = sum(c * u**p for p, c in enumerate(self.trend_poly))
        phi = design_matrix(self.basis, t)
        return trend[None, None, :] + self.coeff_raw @ phi


def make_synthetic_counts(lattice_dims=(40, 40), n_modes: int = 10, n_months: int = 432,
                          support_length: float = 1725.0,
                          trend_poly=(4.5, 4.0, 0.4, -0.2),
                          amplitude: float = 0.16, amp_decay: float = 0.7,
                          theta_true=DEFAULT_TRUE_PMF, groups=DEFAULT_PMF_GROUPS,
                          burn_in: int = 80, seed: int = 0):
    """Monthly count series from a known SARH(1) log-intensity plus cubic trend.

    The cumulative intensity curve at each lattice site is
    exp(trend(t/L) + sum_p amp_p c_p(z) phi_p(t)); monthly counts are
    independent Poisson draws of the increments, so the cumulative counts
    track the curve with relative noise ~ Lambda^{-1/2}.  Sites coincide
    with the lattice nodes, making the IDW stage exact.

    Returns (GridSeries, SyntheticTruth).
    """
    n1, n2 = lattice_dims
    theta_true = np.asarray(theta_true, dtype=float)
    lam_true = family_triples("realdata_pmf", theta_true, n_modes, groups)
    params = Sarh1Params("custom", lam_true.ravel(), n_modes)
    basis = BasisSpec(support_length=support_length, n_modes=n_modes)
    fld = simulate_sarh1(params, (n1, n2), burn_in=burn_in, seed=seed, basis=basis)
    amp = amplitude / np.arange(1, n_modes + 1) ** amp_decay
    coeff_raw = fld.data * amp

    t_m = np.linspace(0.0, support_length, n_months + 1)[1:]
    truth = SyntheticTruth(theta_true, lam_true, coeff_raw, np.asarray(trend_poly, float),
                           support_length, basis)
    lam_curve = np.exp(truth.log_intensity(t_m))
    inc = np.diff(lam_curve, axis=2, prepend=0.0)
    rng = np.random.default_rng(seed + 1)
    counts = rng.poisson(np.maximum(inc, 0.0)).astype(float)

    xs = np.arange(n1, dtype=float)
    ys = np.arange(n2, dtype=float)
    nodes = np.stack(np.meshgrid(xs, ys, indexing="ij"), axis=-1).reshape(-1, 2)
    series = GridSeries(nodes, t_m, counts.reshape(-1, n_months), lattice_dims=(n1, n2))
    return series, truth


# ---------------------------------------------------------------------------
# cross-validation


def run_cross_validation(raw: GridSeries, cfg: PipelineConfig | None = None,
                         max_folds: int = 12, radius: float = 0.0, seed: int = 0,
                         eval_stride: int = 8):
    """Leave-site-out cross-validation of the plug-in intensity prediction.

    For each held-out site (a seeded subsample of at most ``max_folds``),
    the pipeline runs on the remaining sites (the IDW stage fills the gap),
    and the predicted intensity curve at the nearest lattice node is scored
    against the held-out site's own smoothed cumulative curve.  ``radius``
    extends the held-out set to all sites within that distance.

    Returns a dict with the pointwise CVFARE curve (on the strided time
    grid), its normalized L1 value, and the per-fold values.
    """
    cfg = cfg or PipelineConfig()
    n_sites = raw.sites.shape[0]
    rng = np.random.default_rng(seed)
    folds = np.arange(n_sites) if n_sites <= max_folds else np.sort(
        rng.choice(n_sites, size=max_folds, replace=False))

    support = cfg.support_length if cfg.support_length is not None else float(raw.times[-1])
    out_times = np.linspace(0.0, support, cfg.n_time_nodes)
    t_eval = out_times[::eval_stride]

    values = np.cumsum(raw.values, axis=1) if cfg.cumulate else raw.values
    smoothed = spline_smooth(raw.times, values, cfg.n_knots, t_eval)
    observed = np.maximum(smoothed, cfg.log_floor)

    errs = []
    fold_l1 = []
    for s in folds:
        dist = np.linalg.norm(raw.sites - raw.sites[s], axis=1)
        keep = dist > radius if radius > 0 else np.arange(n_sites) != s
        sub = GridSeries(raw.sites[keep], raw.times, raw.values[keep])
        res = run_pipeline(sub, cfg)
        pred = np.exp(res.log_intensity_prediction(t_eval))
        n1, n2 = res.residual_field.dims
        xs = np.linspace(sub.sites[:, 0].min(), sub.sites[:, 0].max(), n1)
        ys = np.linspace(sub.sites[:, 1].min(), sub.sites[:, 1].max(), n2)
        i = int(np.argmin(np.abs(xs - raw.sites[s, 0])))
        j = int(np.argmin(np.abs(ys - raw.sites[s, 1])))
        rel = np.abs((observed[s] - pred[i, j]) / observed[s])
        errs.append(rel)
        fold_l1.append(float(np.trapezoid(rel, t_eval) / (t_eval[-1] - t_eval[0])))
    curve = np.mean(errs, axis=0)
    l1 = float(np.trapezoid(curve, t_eval) / (t_eval[-1] - t_eval[0]))
    return {"t": t_eval, "cvfare": curve, "l1": l1,
            "folds": folds.tolist(), "fold_l1": fold_l1}
