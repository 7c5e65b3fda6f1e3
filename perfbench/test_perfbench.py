"""Self-test of the benchmark at tiny input sizes.

    python3 -m pytest -q perfbench/test_perfbench.py

Runs every workload untraced and traced through ``run.py --tiny`` and checks
the result line against the metric spec in ``metrics.py`` and
``BENCHMARK.json``, that inputs and accuracy repeat for one seed and change
with the seed, and that the benchmark refuses to run without the package
sources.
"""

import functools
import json
import os
import re
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import metrics  # noqa: E402
from bench import tail  # noqa: E402
from workloads import TIMED, WARMUP, WORKLOADS  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

# per-layer metrics that must show work on the workload that exercises the layer
NONZERO = {
    "mc_table1": ["sarh.simulate_s", "sarh.cells", "whittle.loss_evals",
                  "spectral.periodogram_s", "experiment.self_s", "whittle.theta_rmse"],
    "pipeline_closed_loop": ["pipeline.idw_s", "pipeline.idw_pairs", "basis.project_s",
                             "basis.project_mults", "whittle.loss_evals",
                             "pipeline.smooth_s", "whittle.lambda_rel_err"],
    "cox_query": ["spectral.cov_from_spectrum_separable_s",
                  "spectral.cov_from_spectrum_pmf_s", "spectral.cov_grid_points",
                  "spectral.empirical_cov_mults", "cox.count_moments_pairs",
                  "cox.count_moments_s"],
    "cli_session": ["cli.import_s", "cli.command_s", "field.write_s", "field.read_s",
                    "field.bytes_written", "field.bytes_read", "spectral.io_s",
                    "cox.predict_field_s"],
}


@functools.lru_cache(maxsize=None)
def run(workload, seed, trace):
    proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--workload",
                           workload, "--seed", str(seed), "--seconds", "0", "--trace",
                           str(trace), "--tiny"], capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[0]), json.loads(lines[-1])


def test_benchmark_json_matches_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert spec == metrics.contract()
    assert 2 <= len(spec["workloads"]) <= 8 and 1 <= spec["run_seconds"] <= 60
    names = [w["name"] for w in spec["workloads"]] + [m["name"] for m in spec["end_to_end"]
                                                      + spec["per_layer"]]
    assert len(names) == len(set(names)) and all(NAME.match(n) for n in names)
    for w in spec["workloads"]:
        assert len(w["why"]) <= 200 and "\n" not in w["why"]
    for m in spec["end_to_end"] + spec["per_layer"]:
        assert UNIT.match(m["unit"]) and m["better"] in ("lower", "higher")
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    assert setup == [{"name": "setup_s", "unit": "s", "better": "lower", "bound": max(
        m["bound"] for m in spec["end_to_end"])}]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_every_metric_reported_with_its_unit(workload, trace):
    detail, result = run(workload, 1, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, detail["failures"]
    assert result["attempted"] >= 1
    spec = metrics.PER_LAYER if trace else metrics.END_TO_END
    assert list(result["metrics"]) == [m[0] for m in spec]
    for name, unit, *_ in spec:
        value = result["metrics"][name]
        assert value["unit"] == unit and isinstance(value["value"], float), name
    if trace:
        for name in NONZERO[workload]:
            assert result["metrics"][name]["value"] > 0, name
    else:
        assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_same_seed_repeats_inputs_and_accuracy(workload):
    untraced, _ = run(workload, 1, 0)
    traced, _ = run(workload, 1, 1)
    assert untraced["input_digest"] == traced["input_digest"]
    assert untraced["quality"] == traced["quality"]


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_seed_and_op_index_change_inputs(workload):
    a, b = (WORKLOADS[workload](seed, tiny=True, workdir=os.path.join(ROOT, ".perfbench"))
            for seed in (1, 2))
    assert a.inputs(0)["digest"] == WORKLOADS[workload](1, tiny=True, workdir=a.workdir
                                                         ).inputs(0)["digest"]
    assert len({a.inputs(0)["digest"], b.inputs(0)["digest"], a.inputs(1)["digest"],
                a.inputs(0, WARMUP)["digest"]}) == 4
    assert a.inputs(0, TIMED)["digest"] == a.inputs(0)["digest"]


def test_tail_has_ten_samples_beyond_it():
    assert tail([float(v) for v in range(1, 21)]) == (10.0, 50.0)
    assert tail([3.0, 1.0, 2.0]) == (3.0, 100.0)


def test_refuses_to_run_without_package_sources():
    bare = os.path.join(ROOT, ".perfbench", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "mc_table1",
                               "--seed", "1", "--seconds", "1", "--trace", "0"], cwd=bare,
                              capture_output=True, text=True, timeout=180)
        assert proc.returncode != 0
        assert '"correct"' not in proc.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)
