"""Monte Carlo consistency experiments: simulate, estimate, tabulate."""

from __future__ import annotations

import csv
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field as dc_field

import numpy as np

from .errors import ParameterDomainError, SpatialCoxError
from .sarh import Sarh1Params, simulate_sarh1
from .spectral import periodogram
from .whittle import EstimateOptions, estimate

TABLE_OPTS = EstimateOptions(loss_tol=1e-10, max_evals=2000)


@dataclass(frozen=True)
class ExperimentConfig:
    """Replication study configuration.

    grid_sizes are side lengths; each contributes N = side^2 samples.
    Per-replicate seeds are spawned deterministically from ``seed``, so
    results do not depend on scheduling order.
    """

    family: str
    theta_true: np.ndarray
    grid_sizes: tuple = (100, 150, 200)
    replicates: int = 30
    n_modes: int = 10
    burn_in: int = 100
    seed: int = 0
    opts: EstimateOptions = dc_field(default_factory=lambda: TABLE_OPTS)

    def __post_init__(self):
        object.__setattr__(self, "theta_true",
                           np.atleast_1d(np.asarray(self.theta_true, dtype=float)))
        if self.replicates < 1:
            raise ParameterDomainError("replicates must be >= 1")
        if list(self.grid_sizes) != sorted(self.grid_sizes):
            raise ParameterDomainError("grid_sizes must be ascending")


def _replicate(args):
    cfg, side, rep_seed = args
    params = Sarh1Params(cfg.family, cfg.theta_true, cfg.n_modes)
    fld = simulate_sarh1(params, (side, side), burn_in=cfg.burn_in, seed=rep_seed)
    fit = estimate(params.model, periodogram(fld), cfg.opts)
    return np.asarray(fit.theta_hat)


def _replicate_safe(args):
    try:
        return "ok", _replicate(args)
    except SpatialCoxError as exc:  # recorded, not fatal; other errors are bugs
        return "err", repr(exc)


@dataclass
class ExperimentTable:
    """Aggregated rows (N, component, mean, sd, mse, n_failed)."""

    rows: list

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["N", "component", "mean", "sd", "mse", "n_failed"])
            for r in self.rows:
                w.writerow([r["N"], r["component"], repr(r["mean"]), repr(r["sd"]),
                            repr(r["mse"]), r["n_failed"]])

    def select(self, n_value: int, component: int = 1) -> dict:
        for r in self.rows:
            if r["N"] == n_value and r["component"] == component:
                return r
        raise KeyError((n_value, component))


def run_experiment(cfg: ExperimentConfig, threads: int = 1) -> ExperimentTable:
    """Simulate/estimate over all grid sizes and replicates; aggregate the table.

    Replicates failing with a package error (:class:`SpatialCoxError`) are
    counted in the ``n_failed`` column rather than aborting the run; any
    other exception propagates.  If every replicate of a size fails, the
    RuntimeError quotes the first failure.  Mean and SD (ddof=1) are
    reported with the empirical mean square error (1/R) sum
    (theta_hat - theta_0)^2 per component.
    """
    root = np.random.SeedSequence(cfg.seed)
    rows = []
    for side, child in zip(cfg.grid_sizes, root.spawn(len(cfg.grid_sizes))):
        seeds = [int(s.generate_state(1)[0]) for s in child.spawn(cfg.replicates)]
        jobs = [(cfg, side, s) for s in seeds]
        estimates, failures = [], []
        if threads > 1:
            with ProcessPoolExecutor(max_workers=threads) as pool:
                outcomes = list(pool.map(_replicate_safe, jobs))
        else:
            outcomes = [_replicate_safe(job) for job in jobs]
        for status, out in outcomes:
            if status == "ok":
                estimates.append(out)
            else:
                failures.append(out)
        if not estimates:
            raise RuntimeError(f"all {len(failures)} replicates failed at side={side}; "
                               f"first failure: {failures[0]}")
        arr = np.array(estimates)
        n_val = side * side
        for c in range(arr.shape[1]):
            diffs = arr[:, c] - cfg.theta_true[c]
            rows.append({
                "N": n_val,
                "component": c + 1,
                "mean": float(arr[:, c].mean()),
                "sd": float(arr[:, c].std(ddof=1)) if arr.shape[0] > 1 else 0.0,
                "mse": float(np.mean(diffs**2)),
                "n_failed": len(failures),
            })
    return ExperimentTable(rows)
