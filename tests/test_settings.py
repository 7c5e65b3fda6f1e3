"""The package's settings: a value with one use is a constant, not a parameter."""

import dataclasses
import inspect

import pytest

from spatialcox import (ExperimentConfig, PipelineConfig, PipelineResult, Sarh1Params,
                        SpectralModel, cli, design_matrix, estimate, experiment, field,
                        idw_interpolate, make_synthetic_counts, pipeline, product_density_n,
                        project_samples, run_cross_validation, sarh, spectral, whittle)
from spatialcox.pipeline import SyntheticTruth
from spatialcox.sarh import default_box, family_jacobian, family_triples


def test_estimate_takes_no_setting():
    # one solver for every family, with constant tolerances: the model and the sample only
    assert list(inspect.signature(estimate).parameters) == ["model", "sample"]


def test_config_fields():
    assert [f.name for f in dataclasses.fields(PipelineConfig)] == [
        "lattice_dims", "n_time_nodes", "n_knots", "trend_degree", "n_modes", "cumulate"]
    assert "opts" not in {f.name for f in dataclasses.fields(ExperimentConfig)}


@pytest.mark.parametrize("fn, keyword", [
    (idw_interpolate, "power"), (run_cross_validation, "eval_stride"),
    (SpectralModel.density, "unit_sigma"), (product_density_n, "include_diagonal"),
    (design_matrix, "normalized"), (project_samples, "normalized"),
    (PipelineResult.log_intensity_prediction, "include_field"),
], ids=["idw_power", "eval_stride", "unit_sigma", "include_diagonal", "design_normalized",
        "project_normalized", "include_field"])
def test_single_value_keywords_gone(fn, keyword):
    assert keyword not in inspect.signature(fn).parameters


def test_one_form_per_convention():
    # the torus geometry is the face margins of sarh alone, each mode's causal frame is
    # read from them there, with no orientation table or search in spectral; sarh's one
    # inverse-spectrum functional divides by the C2 variance for the Whittle loss and the
    # Fejer inverse, and the quadratic forms take Gram arrays their callers expanded once;
    # the sine basis has one coordinate convention
    assert not hasattr(sarh, "_torus_cd") and not hasattr(sarh, "_has_torus_zero")
    for name in ("CAUSAL_FACES", "_PICK", "_PICK_SIGN", "_PARITY", "is_causal",
                 "c2_innovation_var", "TWO_PI_SQ"):
        assert not hasattr(spectral, name), name
    assert not hasattr(whittle, "_mode_losses") and not hasattr(whittle, "c2_innovation_var")
    for f in (sarh._gram_form, sarh._gram_min, whittle._local_model, whittle._fit_example1):
        assert "_GRAM" not in inspect.getsource(f), f.__name__
    assert [f.name for f in dataclasses.fields(SyntheticTruth)] == [
        "theta_flat", "lambda_true", "coeff", "basis"]


def test_one_statement_per_io_convention():
    # main joins --out with --out-dir, each subparser names its handler, the config keys
    # are the parsers' own options, errors.check_finite is the one finiteness test, and
    # field._write_csv the one CSV writer, the experiment table's too
    for name in ("_out_path", "_COMMANDS", "_TOP_LEVEL_KEYS"):
        assert not hasattr(cli, name), name
    assert not hasattr(pipeline, "_check_finite")
    assert not hasattr(experiment, "csv") and experiment._write_csv is field._write_csv
    parser = cli.build_parser()
    assert set(cli._options(parser)) == {"seed", "threads", "out_dir"}
    subs = next(a for a in parser._actions if a.dest == "command").choices
    assert all(s.get_default("func") is getattr(cli, "cmd_" + name.replace("-", "_"))
               for name, s in subs.items())


def test_one_form_per_index_set():
    # a spline evaluates its curves itself, through the knot-run loop it shares with the
    # streamed projection, and IDW finds coincident pairs by walking lattice rows
    assert not hasattr(pipeline, "_evaluate_spline")
    assert "lexsort" not in inspect.getsource(idw_interpolate)


def test_model_fields():
    # the innovation scale is a factor on the data and the pmf groups are
    # DEFAULT_PMF_GROUPS, so neither is a model setting
    assert [f.name for f in dataclasses.fields(SpectralModel)] == [
        "family", "n_modes", "theta_box"]
    assert [f.name for f in dataclasses.fields(Sarh1Params) if f.init] == [
        "family", "theta", "n_modes"]
    assert not hasattr(SpectralModel, "innovation_var")


@pytest.mark.parametrize("fn, names", [
    (default_box, ["family", "n_modes"]),
    (family_triples, ["family", "theta", "n_modes"]),
    (family_jacobian, ["family", "theta", "n_modes"]),
    (make_synthetic_counts, ["lattice_dims", "n_modes", "n_months", "support_length", "seed"]),
], ids=["default_box", "family_triples", "family_jacobian", "make_synthetic_counts"])
def test_helper_signatures(fn, names):
    assert list(inspect.signature(fn).parameters) == names
