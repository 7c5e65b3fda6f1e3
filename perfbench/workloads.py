"""The four benchmark workloads: seeded inputs, one op, and the op's correctness checks.

Every input comes from the workload seed and the op index through
``numpy.random.SeedSequence``; the package only ever sees the generated
inputs.  Ops call the package through module attributes
(``sc_pipe.run_pipeline``, not a name imported here), so the span recorders
that ``spans.Recorder`` swaps into the module namespaces see every call.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import shutil
import tempfile

import numpy as np

from spatialcox import basis as sc_basis
from spatialcox import cli as sc_cli
from spatialcox import cox as sc_cox
from spatialcox import experiment as sc_exp
from spatialcox import field as sc_field
from spatialcox import pipeline as sc_pipe
from spatialcox import sarh as sc_sarh
from spatialcox import spectral as sc_spec
from spatialcox import whittle as sc_wh

TIMED, WARMUP, SETUP = 0, 1, 2   # seed streams


class CheckFailed(Exception):
    """An op returned, but its output failed a correctness check."""


def require(cond, message):
    if not cond:
        raise CheckFailed(message)


def digest(*parts) -> str:
    h = hashlib.sha256()
    for p in parts:
        if isinstance(p, np.ndarray):
            h.update(repr((p.dtype.str, p.shape)).encode())
            h.update(np.ascontiguousarray(p).tobytes())
        else:
            h.update(repr(p).encode())
    return h.hexdigest()


def lambda_rel_err(lam_hat, lam_true) -> np.ndarray:
    """Per-mode ||lam_hat_k - lam_k|| / ||lam_k||."""
    return np.linalg.norm(lam_hat - lam_true, axis=1) / np.linalg.norm(lam_true, axis=1)


class Workload:
    """One closed-loop workload.

    ``quality_ops`` is the fixed prefix of timed ops whose fits enter the
    accuracy metrics, and ``trace_ops`` the number of traced ops whose spans
    enter the per-layer metrics; both are fixed so that, for one seed, the
    accuracy values and the per-layer counts repeat exactly whatever the
    machine's speed.
    """

    name = ""
    index = 0
    warmup_ops = 1
    quality_ops = 1
    trace_ops = 1

    def __init__(self, seed: int, tiny: bool = False, workdir: str = "."):
        self.seed = int(seed)
        self.workdir = workdir

    @property
    def min_ops(self) -> int:
        return max(self.quality_ops, 2 * self.trace_ops)

    def _seq(self, i, stream, *extra):
        return np.random.SeedSequence([self.seed, self.index, stream, i, *extra])

    def op_seed(self, i: int, stream: int = TIMED) -> int:
        return int(self._seq(i, stream).generate_state(1)[0])

    def op_rng(self, i: int, stream: int = TIMED) -> np.random.Generator:
        return np.random.default_rng(self._seq(i, stream, 1))

    def inputs(self, i: int, stream: int = TIMED) -> dict:
        raise NotImplementedError

    def run(self, inp: dict):
        raise NotImplementedError

    def check(self, inp: dict, out) -> None:
        raise NotImplementedError

    def quality(self, inp: dict, out):
        """(theta_hat - theta_true, per-mode lambda relative errors), or (None, None)."""
        return None, None

    def release(self, out) -> None:
        pass


class McTable1(Workload):
    name = "mc_table1"
    index = 0
    quality_ops = 16
    trace_ops = 8

    def __init__(self, seed, tiny=False, workdir="."):
        super().__init__(seed, tiny, workdir)
        self.sizes = (16, 24) if tiny else (100, 150, 200)
        self.n_modes = 4 if tiny else 10
        self.burn_in = 20 if tiny else 100
        if tiny:
            self.quality_ops, self.trace_ops = 2, 1
        self.model = sc_wh.SpectralModel("example1", n_modes=self.n_modes)
        self.lam_true = self.model.eig_triples([1.0])

    def inputs(self, i, stream=TIMED):
        s = self.op_seed(i, stream)
        return {"seed": s, "digest": digest(self.name, s)}

    def run(self, inp):
        cfg = sc_exp.ExperimentConfig("example1", [1.0], grid_sizes=self.sizes, replicates=1,
                                      n_modes=self.n_modes, burn_in=self.burn_in,
                                      seed=inp["seed"])
        return sc_exp.run_experiment(cfg, threads=1)

    @staticmethod
    def _theta(table):
        # one replicate per size: the row mean is that replicate's estimate
        return np.array([r["mean"] for r in table.rows])

    def check(self, inp, table):
        failed = {r["N"]: r["n_failed"] for r in table.rows}
        require(sum(failed.values()) == 0, f"replicates failed: {failed}")
        theta = self._theta(table)
        require(theta.size == len(self.sizes), f"expected {len(self.sizes)} rows")
        require(np.all(np.isfinite(theta)), f"non-finite theta_hat {theta}")
        require(np.all((theta >= 0.7) & (theta <= 4.0)), f"theta_hat {theta} outside [0.7, 4]")

    def quality(self, inp, table):
        theta = self._theta(table)
        lam = [lambda_rel_err(self.model.eig_triples([t]), self.lam_true) for t in theta]
        return theta - 1.0, np.concatenate(lam)


class PipelineClosedLoop(Workload):
    name = "pipeline_closed_loop"
    index = 1
    quality_ops = 4
    trace_ops = 2

    def __init__(self, seed, tiny=False, workdir="."):
        super().__init__(seed, tiny, workdir)
        if tiny:
            self.dims, self.n_modes, self.n_months = (10, 10), 4, 48
            self.cfg = sc_pipe.PipelineConfig(lattice_dims=self.dims, n_time_nodes=120,
                                              n_knots=8, trend_degree=3, n_modes=4)
            self.quality_ops, self.trace_ops = 2, 1
        else:
            self.dims, self.n_modes, self.n_months = (40, 40), 10, 432
            self.cfg = sc_pipe.PipelineConfig(lattice_dims=self.dims, n_time_nodes=1725,
                                              n_knots=40, trend_degree=3, n_modes=10)

    def inputs(self, i, stream=TIMED):
        series, truth = sc_pipe.make_synthetic_counts(
            lattice_dims=self.dims, n_modes=self.n_modes, n_months=self.n_months,
            seed=self.op_seed(i, stream))
        # jitter interior sites only, so the bounding box (and with it the
        # lattice nodes) stays put while no interior node hits a site exactly
        sites = np.array(series.sites)
        n1, n2 = self.dims
        interior = ((sites[:, 0] > 0) & (sites[:, 0] < n1 - 1)
                    & (sites[:, 1] > 0) & (sites[:, 1] < n2 - 1))
        sites[interior] += self.op_rng(i, stream).uniform(-0.25, 0.25,
                                                          size=(int(interior.sum()), 2))
        jittered = sc_pipe.GridSeries(sites, series.times, series.values)
        return {"series": jittered, "truth": truth,
                "digest": digest(self.name, sites, series.times, series.values)}

    def run(self, inp):
        return sc_pipe.run_pipeline(inp["series"], self.cfg)

    def check(self, inp, res):
        require(not res.estimation_skipped, f"estimation skipped: {res.diagnostics.get('note')}")
        require(res.lambda_hat is not None and np.all(np.isfinite(res.lambda_hat)),
                "lambda_hat missing or not finite")
        require(res.predicted_field is not None
                and np.all(np.isfinite(res.predicted_field.data)),
                "predicted field missing or not finite")

    def quality(self, inp, res):
        truth = inp["truth"]
        return (np.asarray(res.theta_hat) - truth.theta_flat,
                lambda_rel_err(res.lambda_hat, truth.lambda_true))


class CoxQuery(Workload):
    name = "cox_query"
    index = 2
    quality_ops = 4
    trace_ops = 2

    def __init__(self, seed, tiny=False, workdir="."):
        super().__init__(seed, tiny, workdir)
        if tiny:
            self.dims, self.n_modes, self.side, self.lag, self.grid = (16, 16), 4, 6, 5, 64
            self.quality_ops, self.trace_ops = 2, 1
        else:
            self.dims, self.n_modes, self.side, self.lag, self.grid = (64, 64), 10, 20, 19, 512
        params = sc_sarh.Sarh1Params("example1", [1.0], self.n_modes)
        self.field = sc_sarh.simulate_sarh1(params, self.dims, burn_in=100,
                                            seed=self.op_seed(0, SETUP))
        self.separable = sc_wh.SpectralModel("example1", n_modes=self.n_modes)
        self.pmf = sc_wh.SpectralModel("realdata_pmf", n_modes=self.n_modes)
        self.lam = self.separable.eig_triples([1.0])

    def inputs(self, i, stream=TIMED):
        rng = self.op_rng(i, stream)
        phi = rng.normal(0.0, 1.0 / np.sqrt(self.n_modes), self.n_modes)
        a1 = int(rng.integers(0, self.dims[0] - self.side + 1))
        a2 = int(rng.integers(0, self.dims[1] - self.side + 1))
        rect = sc_cox.BorelRect(a1, a1 + self.side - 1, a2, a2 + self.side - 1)
        sample_seed = self.op_seed(i, stream)
        return {"phi": phi, "rect": rect, "sample_seed": sample_seed,
                "digest": digest(self.name, phi, a1, a2, sample_seed)}

    def run(self, inp):
        phi = sc_cox.TestFunction(inp["phi"])
        rect, lag = inp["rect"], (self.lag, self.lag)
        sep = sc_cox.cov_map(self.separable, [1.0], phi, lag, grid_size=self.grid)
        pmf = sc_cox.cov_map(self.pmf, sc_pipe.DEFAULT_TRUE_PMF, phi, lag, grid_size=self.grid)
        ecov = sc_spec.empirical_cov(self.field, lag)
        contracted = np.einsum("abkl,k,l->ab", ecov.values, inp["phi"], inp["phi"])
        emp = {(int(z1), int(z2)): float(contracted[i1, i2])
               for i1, z1 in enumerate(ecov.lags1) for i2, z2 in enumerate(ecov.lags2)}
        return {
            "sep": sep, "pmf": pmf, "ecov": ecov,
            "moments": {k: sc_cox.count_moments(rect, cmap)
                        for k, cmap in (("sep", sep), ("pmf", pmf), ("emp", emp))},
            "emp": emp,
            "ls": sc_cox.ls_count_predictor(self.field, rect, phi),
            "count": sc_cox.sample_counts(self.field, rect, phi, inp["sample_seed"]),
        }

    def check(self, inp, out):
        w = inp["phi"] ** 2
        l1, l2 = self.lam[:, 0], self.lam[:, 1]
        scale = w / ((1.0 - l1**2) * (1.0 - l2**2))
        worst = max(abs(v - float(scale @ (l1 ** abs(z1) * l2 ** abs(z2))))
                    for (z1, z2), v in out["sep"].items())
        require(worst <= 1e-10, f"example1 cov_map off the separable closed form by {worst:.3e}")
        area = inp["rect"].area
        for key, cmap in (("sep", out["sep"]), ("pmf", out["pmf"]), ("emp", out["emp"])):
            mean, _ = out["moments"][key]
            rho = float(np.exp(0.5 * cmap[(0, 0)]))
            require(mean == float(rho * area), f"{key}: count mean {mean!r} != rho*|B|")
        mean, var = out["moments"]["sep"]
        require(var >= mean, f"example1 count variance {var} below the mean {mean}")
        r0 = out["pmf"][(0, 0)]
        worst = max(abs(v) for v in out["pmf"].values())
        require(worst <= r0, f"pmf covariance |R_z| = {worst!r} exceeds R_0 = {r0!r}")
        vals = out["ecov"].values
        mirrored = vals[::-1, ::-1].transpose(0, 1, 3, 2)   # C(-z) with k, l swapped
        gap = float(np.abs(vals - mirrored).max())
        require(gap <= 1e-12 * float(np.abs(vals).max()),
                f"empirical_cov breaks C(z)[k,l] = C(-z)[l,k] by {gap:.3e}")
        require(np.isfinite(out["ls"]) and out["ls"] > 0, f"ls predictor {out['ls']}")
        require(out["count"] >= 0, f"negative sampled count {out['count']}")


class CliSession(Workload):
    """The four CLI commands, run in this process through ``spatialcox.cli.main``.

    A shell user also pays interpreter start and ``import spatialcox`` per
    command.  The set-up import samples measure that cost on every workload
    (``setup_s``, ``cli.import_s``); keeping it out of the op leaves the op to
    the CLI layer's own work and gives a 15 s run some 25 ops instead of 2-3.
    """

    name = "cli_session"
    index = 3
    quality_ops = 8
    trace_ops = 4

    def __init__(self, seed, tiny=False, workdir="."):
        super().__init__(seed, tiny, workdir)
        self.dims, self.n_modes = ((12, 12), 4) if tiny else ((64, 64), 10)
        if tiny:
            self.quality_ops, self.trace_ops = 2, 1
        self.tmp_root = os.path.join(self.workdir, "cli")
        os.makedirs(self.tmp_root, exist_ok=True)
        self.model = sc_wh.SpectralModel("example1", n_modes=self.n_modes)
        self.lam_true = self.model.eig_triples([1.0])

    def inputs(self, i, stream=TIMED):
        s = self.op_seed(i, stream)
        return {"seed": s, "digest": digest(self.name, s)}

    def commands(self, inp, d):
        dims, modes = f"{self.dims[0]}x{self.dims[1]}", str(self.n_modes)
        field, est = os.path.join(d, "field.bin"), os.path.join(d, "est.json")
        return [["--out-dir", d, "--seed", str(inp["seed"]), "simulate", "--dims", dims,
                 "--modes", modes, "--csv"],
                ["--out-dir", d, "periodogram", "--field", field, "--csv"],
                ["--out-dir", d, "estimate", "--field", field, "--modes", modes],
                ["--out-dir", d, "predict", "--field", field, "--theta", est]]

    def run(self, inp):
        out = {"dir": tempfile.mkdtemp(dir=self.tmp_root), "codes": []}
        with contextlib.redirect_stdout(io.StringIO()):
            for argv in self.commands(inp, out["dir"]):
                try:
                    sc_cli.main(argv)
                except SystemExit as exc:  # argparse and the CLI report errors this way
                    out["codes"].append(exc.code)
                    break
                out["codes"].append(0)
        return out

    def _path(self, out, name):
        return os.path.join(out["dir"], name)

    def check(self, inp, out):
        require(out["codes"] == [0, 0, 0, 0], f"exit codes {out['codes']}")
        params = sc_sarh.Sarh1Params("example1", [1.0], self.n_modes)
        ref = sc_sarh.simulate_sarh1(params, self.dims, burn_in=100, seed=inp["seed"],
                                     basis=sc_basis.BasisSpec(1.0, self.n_modes))
        fld = sc_field.load_field_binary(self._path(out, "field.bin"))
        require(fld.data.shape == ref.data.shape
                and fld.data.tobytes() == ref.data.tobytes()
                and fld.basis == ref.basis,
                "field.bin differs from the in-process simulate_sarh1 field")
        rows = self.dims[0] * self.dims[1] * self.n_modes
        for name in ("field.bin.csv", "pgram.bin.csv"):
            with open(self._path(out, name)) as fh:
                n = sum(1 for _ in fh) - 1
            require(n == rows, f"{name} has {n} data rows, expected {rows}")
        theta = self._theta(out)
        require(np.all(np.isfinite(theta)) and np.all((theta >= 0.7) & (theta <= 4.0)),
                f"est.json theta_hat {theta} outside [0.7, 4]")
        pred = sc_field.load_field_binary(self._path(out, "pred.bin"))
        ref_pred = sc_cox.predict_field(fld, self.model, theta)
        require(pred.data.tobytes() == ref_pred.data.tobytes(),
                "pred.bin differs from predict_field on the loaded field")

    def _theta(self, out):
        with open(self._path(out, "est.json")) as fh:
            est = json.load(fh)
        require(est["family"] == "example1", f"est.json family {est['family']!r}")
        return np.atleast_1d(np.asarray(est["theta_hat"], dtype=float))

    def quality(self, inp, out):
        theta = self._theta(out)
        return theta - 1.0, lambda_rel_err(self.model.eig_triples(theta), self.lam_true)

    def release(self, out):
        shutil.rmtree(out["dir"], ignore_errors=True)


WORKLOADS = {w.name: w for w in (McTable1, PipelineClosedLoop, CoxQuery, CliSession)}
