"""The package's settings: a value with one use is a constant, not a parameter."""

import dataclasses
import inspect

import pytest

from spatialcox import (ExperimentConfig, Periodogram, PipelineConfig, SpectralModel, estimate,
                        idw_interpolate, product_density_n, run_cross_validation)


def test_estimate_takes_one_setting():
    params = inspect.signature(estimate).parameters
    assert list(params) == ["model", "sample", "loss_tol"]
    assert params["loss_tol"].default == 1e-10


def test_config_fields():
    assert [f.name for f in dataclasses.fields(PipelineConfig)] == [
        "lattice_dims", "n_time_nodes", "n_knots", "trend_degree", "n_modes", "cumulate",
        "residual_rms_floor"]
    assert "opts" not in {f.name for f in dataclasses.fields(ExperimentConfig)}


@pytest.mark.parametrize("fn, keyword", [
    (idw_interpolate, "power"), (run_cross_validation, "eval_stride"),
    (Periodogram.diag_real, "tol"), (SpectralModel.density, "unit_sigma"),
    (product_density_n, "include_diagonal"),
], ids=["idw_power", "eval_stride", "diag_real_tol", "unit_sigma", "include_diagonal"])
def test_single_value_keywords_gone(fn, keyword):
    assert keyword not in inspect.signature(fn).parameters
