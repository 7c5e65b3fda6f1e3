"""Closed-loop runner: set-up, timed ops, checks, metrics, and the result line.

One client runs the workload's ops back to back in this process.  The untraced run
reports the end-to-end metrics; the traced run alternates traced and
untraced ops and reports the per-layer metrics.  The last line of standard
output is the result object; a fuller record (environment, set-up samples,
raw and rescaled op times, failures, spans) goes to ``.perfbench/results/``
in the checkout.

Every reported time is rescaled to a nominal machine speed.  Around each op,
and before each set-up step, the benchmark times a fixed pure-Python loop
(``reference_s``), which never touches the package, and multiplies the step's
wall time by ``REF_NOMINAL_S / reference``.  On shared hosts the speed of a
vCPU switches between regimes up to 1.7x apart for seconds to minutes; the
loop sees the same regime as the step it precedes, so the rescaled times keep
the program's own cost and drop the host's.  The raw reference time is
reported as ``bench.ref_s``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from contextlib import nullcontext
from pathlib import Path

import numpy as np
import scipy

import metrics
from spans import COUNTS, END, NAME, OP, START, Recorder, self_times
from workloads import TIMED, WARMUP, WORKLOADS, digest

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench"
CHILD = str(Path(__file__).with_name("child.py"))
SETUP_REPEATS = 3
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# with too few ops for the fixed prefixes, keep running past --seconds up to this
PREFIX_CAP_S = 100.0
# reference loop time that rescaled times are expressed at: about its time in
# the faster speed regime of a 2-vCPU Xeon KVM guest
REF_NOMINAL_S = 0.0065


def reference_s() -> float:
    """Best of three timings of a fixed pure-Python loop (about 6.5 ms)."""
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        acc = 0
        for i in range(100_000):
            acc += i * i
        best = min(best, time.perf_counter() - t0)
    return best


def rescale() -> float:
    """Factor that takes the next step's wall time to the nominal speed."""
    return REF_NOMINAL_S / reference_s()


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def import_sample(env) -> float:
    """Seconds from a fresh interpreter's start until ``import spatialcox`` returned."""
    proc = subprocess.run([sys.executable, CHILD], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    return float(proc.stdout.split()[-1])


def cpu_seconds() -> float:
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


def tail(values):
    """Highest percentile with at least ten samples beyond it (the maximum below 11)."""
    xs = sorted(values)
    rank = len(xs) - 10 if len(xs) > 10 else len(xs)
    return xs[rank - 1], 100.0 * rank / len(xs)


def _read(path):
    try:
        with open(path) as fh:
            return fh.read()
    except OSError:
        return ""


def environment(seed) -> dict:
    cpu = next((line.split(":", 1)[1].strip() for line in _read("/proc/cpuinfo").splitlines()
                if line.startswith("model name")), platform.processor())
    caches = {}
    cache_dir = Path("/sys/devices/system/cpu/cpu0/cache")
    for idx in sorted(cache_dir.glob("index*")) if cache_dir.is_dir() else []:
        level, kind = _read(idx / "level").strip(), _read(idx / "type").strip()
        if level in ("2", "3"):
            caches[f"L{level}" + ("" if kind == "Unified" else kind[0])] = _read(idx / "size").strip()
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except (KeyError, TypeError):
        blas = {"name": None, "version": None}
    return {
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "cpu": cpu, "caches": caches,
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__, "blas": blas,
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "commit": git_commit(), "seed": seed,
    }


def git_commit():
    head = _read(ROOT / ".git" / "HEAD").strip()
    if not head.startswith("ref: "):
        return head or None
    ref = head[5:]
    sha = _read(ROOT / ".git" / ref).strip()
    if sha:
        return sha
    for line in _read(ROOT / ".git" / "packed-refs").splitlines():
        if line.endswith(" " + ref):
            return line.split()[0]
    return None


def run_workload(name, seed, seconds, trace, tiny=False, import_s=None) -> dict:
    env = child_env()
    workdir = OUT_DIR / "work" / f"{name}-{seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        return _run(name, seed, seconds, trace, tiny, import_s, env, str(workdir))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run(name, seed, seconds, trace, tiny, import_s, env, workdir) -> dict:
    imports = [] if import_s is None else [import_s * rescale()]
    while len(imports) < SETUP_REPEATS:
        k = rescale()
        imports.append(import_sample(env) * k)
    builds = []
    for _ in range(SETUP_REPEATS):
        k = rescale()
        t0 = time.perf_counter()
        wl = WORKLOADS[name](seed, tiny=tiny, workdir=workdir)
        builds.append((time.perf_counter() - t0) * k)

    rec = Recorder() if trace else None
    state = {"attempted": 0, "failures": [], "theta": [], "lam": [], "digests": []}

    def op(i, stream, traced, keep_quality):
        inp = wl.inputs(i, stream)
        state["digests"].append(inp["digest"])
        state["attempted"] += 1
        out, error = None, None
        ref = reference_s()
        cpu0 = cpu_seconds()
        t0 = time.perf_counter()
        try:
            with rec.recording(i) if traced else nullcontext():
                out = wl.run(inp)
        except Exception as exc:  # a failed op is counted, never fatal
            error = exc
        wall = time.perf_counter() - t0
        cpu = cpu_seconds() - cpu0
        ref = 0.5 * (ref + reference_s())   # bracket the op: regimes can switch mid-op
        if error is None:
            try:
                wl.check(inp, out)
                if keep_quality:
                    dtheta, lam = wl.quality(inp, out)
                    if dtheta is not None:
                        state["theta"].append(np.asarray(dtheta, float))
                        state["lam"].append(np.asarray(lam, float))
            except Exception as exc:
                error = exc
            finally:
                wl.release(out)
        if error is not None:
            state["failures"].append({"op": i, "stream": stream, "type": type(error).__name__,
                                      "message": str(error)[:500]})
            print(f"op {i} failed: {type(error).__name__}: {error}", file=sys.stderr)
        return wall, cpu, ref

    k = rescale()
    t0 = time.perf_counter()
    for j in range(wl.warmup_ops):
        op(j, WARMUP, False, False)
    warm_s = (time.perf_counter() - t0) * k
    setup_s = statistics.median(imports) + statistics.median(builds) + warm_s

    walls, refs, cpus, traced_flags = [], [], [], []
    start = time.perf_counter()
    i = 0
    while True:
        elapsed = time.perf_counter() - start
        if elapsed >= seconds and (i >= wl.min_ops or elapsed >= seconds + PREFIX_CAP_S):
            break
        traced = bool(trace) and i % 2 == 0
        wall, cpu, ref = op(i, TIMED, traced, i < wl.quality_ops)
        walls.append(wall)
        refs.append(ref)
        cpus.append(cpu)
        traced_flags.append(traced)
        i += 1

    failed = len(state["failures"])
    factors = [REF_NOMINAL_S / r for r in refs]
    norm = [w * k for w, k in zip(walls, factors)]
    tail_s, tail_pct = tail(norm)
    if trace:
        untraced = [w for w, t in zip(norm, traced_flags) if not t]
        traced_walls = [w for w, t in zip(norm, traced_flags) if t]
        traced_ops = [k for k, t in enumerate(traced_flags) if t][:wl.trace_ops]
        values = layer_metrics(rec, {i: factors[i] for i in traced_ops}, imports,
                               quality(state))
        values["bench.failed_ratio"] = failed / state["attempted"]
        values["bench.trace_overhead"] = (statistics.median(traced_walls)
                                          / statistics.median(untraced))
        values["bench.cpu_over_wall"] = sum(cpus) / sum(walls)
        values["bench.ref_s"] = statistics.median(refs)
        spec = metrics.PER_LAYER
    else:
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        values = {
            "ops_per_s": len(norm) / sum(norm),
            "op_s_p50": statistics.median(norm),
            "op_s_tail": tail_s,
            "setup_s": setup_s,
            "peak_rss_mb": rss / 1024.0,
        }
        spec = metrics.END_TO_END
    result = {
        "correct": failed == 0,
        "attempted": state["attempted"],
        "failed": failed,
        "metrics": {m[0]: {"value": values[m[0]], "unit": m[1]} for m in spec},
    }
    detail = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace, "tiny": tiny,
        "env": environment(seed),
        "setup": {"import_s": imports, "build_s": builds, "warmup_s": warm_s},
        "ops": len(walls), "op_walls": walls, "op_refs": refs, "op_rescaled": norm,
        "op_traced": traced_flags,
        "tail_percentile": tail_pct, "tail_samples": len(walls),
        "failures": state["failures"],
        "quality": quality(state),
        "input_digest": digest(*state["digests"][:wl.warmup_ops + wl.quality_ops]),
        "result": result,
    }
    if trace:
        detail["spans"] = rec.spans
    return detail


def quality(state) -> dict:
    """theta RMSE and median per-mode lambda relative error over the fixed op prefix."""
    if not state["theta"]:
        return {"fits": 0, "theta_rmse": 0.0, "lambda_rel_err": 0.0}
    d = np.concatenate(state["theta"])
    return {"fits": len(state["theta"]), "theta_rmse": float(np.sqrt(np.mean(d**2))),
            "lambda_rel_err": float(np.median(np.concatenate(state["lam"])))}


def layer_metrics(rec, factors, import_samples, q) -> dict:
    """Per-op layer metrics over the traced ops in ``factors`` (op -> rescale factor)."""
    n = max(len(factors), 1)
    total, own, counts = defaultdict(float), defaultdict(float), defaultdict(float)
    for span, self_s in zip(rec.spans, self_times(rec.spans)):
        k = factors.get(span[OP])
        if k is None:
            continue
        name, dur = span[NAME], (span[END] - span[START]) * k
        total[name] += dur
        own[name] += self_s * k
        for key, v in (span[COUNTS] or {}).items():
            counts[name, key] += v
        if name == "spectral.cov_from_spectrum":
            kind = "separable" if (span[COUNTS] or {}).get("separable") else "pmf"
            total[f"{name}.{kind}"] += dur

    def per_op(x):
        return x / n

    evals = counts["whittle.estimate", "loss_evals"]
    fits = counts["whittle.estimate", "fits"]
    return {
        "sarh.simulate_s": per_op(total["sarh.simulate_sarh1"]),
        "sarh.cells": per_op(counts["sarh.simulate_sarh1", "cells"]),
        "whittle.estimate_s": per_op(own["whittle.estimate"]),
        "whittle.trig_moments_s": per_op(total["whittle.trig_moments"]),
        "whittle.loss_evals": per_op(evals),
        "whittle.s_per_loss_eval": total["whittle.estimate"] / evals if evals else 0.0,
        "whittle.converged_ratio": counts["whittle.estimate", "converged"] / fits if fits else 0.0,
        "whittle.theta_rmse": q["theta_rmse"],
        "whittle.lambda_rel_err": q["lambda_rel_err"],
        "pipeline.idw_s": per_op(total["pipeline.idw_interpolate"]),
        "pipeline.idw_pairs": per_op(counts["pipeline.idw_interpolate", "pairs"]),
        "pipeline.smooth_s": per_op(total["pipeline.spline_smooth"]),
        "pipeline.self_s": per_op(own["pipeline.run_pipeline"]),
        "basis.project_s": per_op(total["basis.project_samples"]),
        "basis.project_mults": per_op(counts["basis.project_samples", "mults"]),
        "spectral.cov_from_spectrum_s": per_op(total["spectral.cov_from_spectrum"]),
        "spectral.cov_from_spectrum_separable_s":
            per_op(total["spectral.cov_from_spectrum.separable"]),
        "spectral.cov_from_spectrum_pmf_s": per_op(total["spectral.cov_from_spectrum.pmf"]),
        "spectral.cov_grid_points": per_op(counts["spectral.cov_from_spectrum", "grid_points"]),
        "spectral.empirical_cov_s": per_op(total["spectral.empirical_cov"]),
        "spectral.empirical_cov_mults": per_op(counts["spectral.empirical_cov", "mults"]),
        "spectral.periodogram_s": per_op(total["spectral.periodogram"]),
        "spectral.io_s": per_op(total["spectral.save_periodogram_binary"]
                                + total["spectral.save_periodogram_csv"]),
        "cox.count_moments_s": per_op(total["cox.count_moments"]),
        "cox.count_moments_pairs": per_op(counts["cox.count_moments", "pairs"]),
        "cox.cov_map_self_s": per_op(own["cox.cov_map"]),
        "cox.predict_field_s": per_op(total["cox.predict_field"]),
        "field.write_s": per_op(total["field.save_field_binary"] + total["field.save_field_csv"]),
        "field.read_s": per_op(total["field.load_field_binary"]),
        "field.bytes_written": per_op(counts["field.save_field_binary", "bytes_written"]
                                      + counts["field.save_field_csv", "bytes_written"]),
        "field.bytes_read": per_op(counts["field.load_field_binary", "bytes_read"]),
        "cli.import_s": statistics.median(import_samples),
        "cli.command_s": per_op(total["cli.main"]),
        "experiment.self_s": per_op(own["experiment.run_experiment"]),
        "experiment.failed": per_op(counts["experiment.run_experiment", "failed"]),
    }


def print_metrics(name, result):
    for metric, v in result["metrics"].items():
        print(f"{name:22s} {metric:42s} {v['value']:.6g} {v['unit']}")


def run_all(args) -> int:
    """Run every workload in its own process and print each metric by name and unit."""
    code = 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).with_name("run.py")), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--tiny"] if args.tiny else [])
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            code = 1
            continue
        result = json.loads(lines[-1])
        print_metrics(name, result)
        print(f"{name:22s} {'correct':42s} {result['correct']} "
              f"({result['failed']} of {result['attempted']} ops failed)")
        code = code or (0 if result["correct"] else 1)
    return code


def main(argv, import_s=None) -> int:
    p = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=list(WORKLOADS))
    p.add_argument("--all", action="store_true", help="run every workload, one process each")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=metrics.contract()["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="tiny input sizes, for the self-test")
    args = p.parse_args(argv)
    if args.all:
        return run_all(args)
    if args.workload is None:
        p.error("one of --workload or --all is required")
    detail = run_workload(args.workload, args.seed, args.seconds, args.trace, args.tiny,
                          import_s)
    out = OUT_DIR / "results"
    out.mkdir(parents=True, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}" + ("-tiny" if args.tiny else "")
    with open(out / f"{tag}.json", "w") as fh:
        json.dump(detail, fh)
    result = detail["result"]
    print(json.dumps({"env": detail["env"], "input_digest": detail["input_digest"],
                      "quality": detail["quality"], "ops": detail["ops"],
                      "tail_percentile": detail["tail_percentile"],
                      "failures": detail["failures"]}))
    print_metrics(args.workload, result)
    print(json.dumps(result))
    return 0
