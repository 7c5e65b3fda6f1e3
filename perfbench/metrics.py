"""What the benchmark measures: workloads, metrics, and the layer-to-end-to-end map.

This module is the single source for names, units and directions.
``BENCHMARK.json`` at the repository root repeats the contract subset of it
(names, one-line reasons, units, directions, bounds); the self-test checks
that the two agree.
"""

# Each workload: (name, definition, one-line reason).  The reasons are the
# ``why`` lines of BENCHMARK.json.
WORKLOADS = [
    ("mc_table1",
     "run_experiment(example1, theta0=1, grid_sizes=(100,150,200), replicates=1, "
     "n_modes=10, burn_in=100, seed=<derived>, threads=1) per op",
     "the paper's Table 1 loop (simulate, periodogram, Whittle fit); the only "
     "workload where sarh does about half the work"),
    ("pipeline_closed_loop",
     "run_pipeline (40x40 lattice, 1725 time nodes, 40 knots, trend degree 3, "
     "10 modes, realdata_pmf) on make_synthetic_counts((40,40), seed=<derived>) "
     "with interior sites jittered by a seeded uniform +-0.25 cell",
     "ingestion of scattered station data: jittered sites make IDW interpolate "
     "at every node, then the pmf-group Whittle fits"),
    ("cox_query",
     "fixed 64x64 example1 (theta=1, 10 modes) field; per op a seeded phi and "
     "20x20 rectangle: cov_map+count_moments under example1 and realdata_pmf, "
     "empirical_cov lag 19 contracted with phi + count_moments, "
     "ls_count_predictor, sample_counts",
     "model vs data count moments; the only workload on the covariance side of "
     "spectral and the moment sums in cox, with separable and pmf models"),
    ("cli_session",
     "spatialcox.cli.main, in this process and a fresh directory, for: "
     "simulate --dims 64x64 --csv, periodogram --csv, estimate, predict",
     "how a shell user drives the package; the only workload on the cli and "
     "field layers, with binary and CSV writes beside binary reads"),
]

# End-to-end metrics: (name, unit, better, bound).  ``bound`` is the share of
# the parent's median by which the metric may worsen before a change counts
# as a regression.
END_TO_END = [
    ("ops_per_s", "1/s", "higher", 0.25),
    ("op_s_p50", "s", "lower", 0.25),
    ("op_s_tail", "s", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MiB", "lower", 0.1),
]

# Per-layer metrics from the traced run: (name, unit, better, moves), where
# ``moves`` names the end-to-end metric the layer metric should move and the
# workloads on which it should move it.  Times and counts are per traced op.
PER_LAYER = [
    ("sarh.simulate_s", "s", "lower", "op_s_p50, ops_per_s on mc_table1"),
    ("sarh.cells", "count", "lower", "op_s_p50, ops_per_s on mc_table1"),
    ("whittle.estimate_s", "s", "lower",
     "op_s_p50 on pipeline_closed_loop and mc_table1"),
    ("whittle.trig_moments_s", "s", "lower",
     "op_s_p50 on pipeline_closed_loop and mc_table1"),
    ("whittle.loss_evals", "count", "lower",
     "op_s_p50 on pipeline_closed_loop and mc_table1"),
    ("whittle.s_per_loss_eval", "s", "lower",
     "op_s_p50 on pipeline_closed_loop and mc_table1"),
    ("whittle.converged_ratio", "ratio", "higher",
     "op_s_p50 on pipeline_closed_loop and mc_table1"),
    ("whittle.theta_rmse", "1", "lower",
     "estimation accuracy on mc_table1, pipeline_closed_loop and cli_session"),
    ("whittle.lambda_rel_err", "1", "lower",
     "estimation accuracy on mc_table1, pipeline_closed_loop and cli_session"),
    ("pipeline.idw_s", "s", "lower", "op_s_p50 on pipeline_closed_loop"),
    ("pipeline.idw_pairs", "count", "lower", "op_s_p50 on pipeline_closed_loop"),
    ("pipeline.smooth_s", "s", "lower", "op_s_p50 on pipeline_closed_loop"),
    ("pipeline.self_s", "s", "lower", "op_s_p50 on pipeline_closed_loop"),
    ("basis.project_s", "s", "lower", "op_s_p50 on pipeline_closed_loop"),
    ("basis.project_mults", "count", "lower", "op_s_p50 on pipeline_closed_loop"),
    ("spectral.cov_from_spectrum_s", "s", "lower", "op_s_p50 on cox_query"),
    ("spectral.cov_from_spectrum_separable_s", "s", "lower", "op_s_p50 on cox_query"),
    ("spectral.cov_from_spectrum_pmf_s", "s", "lower", "op_s_p50 on cox_query"),
    ("spectral.cov_grid_points", "count", "lower", "op_s_p50 on cox_query"),
    ("spectral.empirical_cov_s", "s", "lower", "op_s_p50 on cox_query"),
    ("spectral.empirical_cov_mults", "count", "lower", "op_s_p50 on cox_query"),
    ("spectral.periodogram_s", "s", "lower", "op_s_p50 on mc_table1 (small share)"),
    ("spectral.io_s", "s", "lower", "op_s_p50 on cli_session"),
    ("cox.count_moments_s", "s", "lower", "op_s_p50 on cox_query"),
    ("cox.count_moments_pairs", "count", "lower", "op_s_p50 on cox_query"),
    ("cox.cov_map_self_s", "s", "lower", "op_s_p50 on cox_query"),
    ("cox.predict_field_s", "s", "lower",
     "about 0 of op_s_p50 on pipeline_closed_loop and cli_session"),
    ("field.write_s", "s", "lower", "op_s_p50 on cli_session"),
    ("field.read_s", "s", "lower", "op_s_p50 on cli_session"),
    ("field.bytes_written", "B", "lower", "op_s_p50 on cli_session"),
    ("field.bytes_read", "B", "lower", "op_s_p50 on cli_session"),
    ("cli.import_s", "s", "lower",
     "setup_s on every workload; each shell command pays it once"),
    ("cli.command_s", "s", "lower", "op_s_p50 on cli_session"),
    ("experiment.self_s", "s", "lower", "op_s_p50 on mc_table1"),
    ("experiment.failed", "count", "lower", "failed ops on mc_table1"),
    ("bench.failed_ratio", "ratio", "lower", "failed / attempted on every workload"),
    ("bench.trace_overhead", "ratio", "lower", "none: traced over untraced op_s_p50"),
    ("bench.cpu_over_wall", "ratio", "higher",
     "none: below 1 means the op waited for a CPU"),
    ("bench.ref_s", "s", "lower",
     "none: raw time of the reference loop; every reported time is rescaled by "
     "REF_NOMINAL_S / this"),
]


def contract() -> dict:
    """The BENCHMARK.json content this module defines."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": 15,
        "workloads": [{"name": n, "why": why} for n, _, why in WORKLOADS],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, u, b, bound in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b, _ in PER_LAYER],
    }
