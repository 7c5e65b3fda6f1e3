"""Monte Carlo consistency experiments: simulate, estimate, tabulate.

Each replicate is fitted by :func:`~spatialcox.whittle.estimate` at its
defaults, the setting the CLI and the pipeline fit at too.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParameterDomainError, SpatialCoxError, check_int
from .field import _write_csv
from .sarh import Sarh1Params, is_causal, simulate_sarh1
from .whittle import estimate


@dataclass(frozen=True)
class ExperimentConfig:
    """Replication study configuration.

    grid_sizes are one or more ascending side lengths, each giving N = side^2 samples.
    Per-replicate seeds are spawned deterministically from ``seed``, so
    results do not depend on scheduling order.  A bad family, n_modes or
    theta_true (as :class:`~spatialcox.sarh.Sarh1Params` checks them, or a
    theta_true not causal on every mode), or a grid side, replicate count,
    burn-in or seed that is not an integer in range, raises
    :class:`ParameterDomainError` here, not in every replicate.  The counts
    are stored as ints, so a side of 8.0 reports N = 64.  ``burn_in`` is
    checked and unused: every field has its exact stationary law.
    """

    family: str
    theta_true: np.ndarray
    grid_sizes: tuple = (100, 150, 200)
    replicates: int = 30
    n_modes: int = 10
    burn_in: int = 100
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "theta_true",
                           np.atleast_1d(np.asarray(self.theta_true, dtype=float)))
        for name, minimum in (("replicates", 1), ("burn_in", 0), ("seed", 0)):
            object.__setattr__(self, name, check_int(getattr(self, name), name, minimum))
        sides = tuple(check_int(side, "every grid side", 2) for side in self.grid_sizes)
        if not sides:
            raise ParameterDomainError("grid_sizes must hold one or more ascending sides")
        if list(sides) != sorted(sides):
            raise ParameterDomainError("grid_sizes must be ascending")
        object.__setattr__(self, "grid_sizes", sides)
        params = Sarh1Params(self.family, self.theta_true, self.n_modes)
        object.__setattr__(self, "n_modes", params.n_modes)
        if not np.all(ok := is_causal(params.model.eig_triples(params.theta))):
            raise ParameterDomainError(f"theta_true is not causal on mode {np.argmin(ok) + 1}")


def _replicate(job):
    # theta_hat, or the repr of the package error that stopped it; other errors are bugs
    cfg, side, rep_seed = job
    try:
        params = Sarh1Params(cfg.family, cfg.theta_true, cfg.n_modes)
        fld = simulate_sarh1(params, (side, side), seed=rep_seed)
        return np.asarray(estimate(params.model, fld).theta_hat)
    except SpatialCoxError as exc:
        return repr(exc)


@dataclass
class ExperimentTable:
    """Aggregated rows (N, component, mean, sd, mse, n_failed)."""

    rows: list

    def to_csv(self, path) -> None:
        header, blocks = ["N", "component", "mean", "sd", "mse", "n_failed"], {}
        for r in self.rows:  # one block per N, led by N; each holds the first's components
            blocks.setdefault(r["N"], []).append(r)
        _write_csv(path, header, ([r["component"] for r in next(iter(blocks.values()), [])],),
                   (((n,), [np.array([r[h] for r in b]) for h in header[2:]])
                    for n, b in blocks.items()))

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
    (theta_hat - theta_0)^2 per component.  With ``threads`` > 1 the
    replicates of every size share one pool of that many worker processes;
    the rows do not depend on it.  ``threads`` below 1 raises
    :class:`ParameterDomainError`.
    """
    threads = check_int(threads, "threads", 1)
    children = np.random.SeedSequence(cfg.seed).spawn(len(cfg.grid_sizes))
    jobs = [(cfg, side, int(seq.generate_state(1)[0]))
            for side, child in zip(cfg.grid_sizes, children)
            for seq in child.spawn(cfg.replicates)]
    if threads > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=threads) as pool:
            outcomes = list(pool.map(_replicate, jobs))
    else:
        outcomes = list(map(_replicate, jobs))
    rows = []
    for i, side in enumerate(cfg.grid_sizes):
        mine = outcomes[i * cfg.replicates:(i + 1) * cfg.replicates]
        failures = [out for out in mine if isinstance(out, str)]
        estimates = [out for out in mine if not isinstance(out, str)]
        if not estimates:
            raise RuntimeError(f"all {len(failures)} replicates failed at side={side}; "
                               f"first failure: {failures[0]}")
        rows += [{"N": side * side, "component": c + 1, "mean": float(col.mean()),
                  "sd": float(col.std(ddof=1)) if col.size > 1 else 0.0,
                  "mse": float(np.mean((col - cfg.theta_true[c]) ** 2)),
                  "n_failed": len(failures)} for c, col in enumerate(np.array(estimates).T)]
    return ExperimentTable(rows)
