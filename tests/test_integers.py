"""One integer rule at every boundary: ``errors.check_int``, and ``errors.check_dims`` for pairs.

Counts, sizes, lag bounds, indices and seeds accept a real number with an
integral value at or above the minimum (numpy integers and 2.0 included) and
store it as a Python int; 2.5, NaN, inf, a value below the minimum or a pair
of the wrong length raises :class:`ParameterDomainError` where the value
enters the package.
"""

import numpy as np
import pytest

import spatialcox.pipeline
from spatialcox import (BasisSpec, CoeffField, ExperimentConfig, FrequencyGrid, GridSeries,
                        PipelineConfig, Sarh1Params, SpectralModel, idw_interpolate,
                        make_synthetic_counts, run_cross_validation)
from spatialcox.cox import BorelRect, TestFunction, product_density_n, sample_counts
from spatialcox.errors import ParameterDomainError
from spatialcox.pipeline import spline_smooth
from spatialcox.sarh import family_triples
from spatialcox.spectral import cov_from_spectrum, fejer_smoothed_inverse

_SERIES = GridSeries([[0.0, 0.0], [1.0, 1.0]], [1.0, 2.0], [[1.0, 2.0], [3.0, 4.0]])
_FIELD = CoeffField(np.zeros((4, 4, 2)), BasisSpec(1.0, 2))
_PHI = TestFunction([1.0, 0.5])
_TIMES = np.linspace(0.0, 1.0, 30)


def _cross_validate(**kwargs):
    series = make_synthetic_counts(lattice_dims=(4, 4), n_modes=2, n_months=40,
                                   support_length=160.0, seed=3)[0]
    cfg = PipelineConfig(lattice_dims=(4, 4), n_time_nodes=60, n_knots=4, n_modes=2)
    return run_cross_validation(series, cfg, **kwargs)


# each case fails at the commit before the rule: it constructed, truncated, or
# ended in a bare TypeError or ValueError from numpy
_BAD = {
    "model_n_modes_float": lambda: SpectralModel("custom", 2.5),
    "params_n_modes_float": lambda: Sarh1Params("example1", [1.0], 2.5),
    "triples_n_modes_float": lambda: family_triples("example1", [1.0], 2.5),
    "triples_n_modes_zero": lambda: family_triples("example1", [1.0], 0),
    "basis_n_modes_float": lambda: BasisSpec(1.0, 2.5),
    "pipeline_lattice_float": lambda: PipelineConfig(lattice_dims=(4.5, 4)),
    "pipeline_lattice_one_side": lambda: PipelineConfig(lattice_dims=(3,)),
    "pipeline_knots_float": lambda: PipelineConfig(n_knots=2.5),
    "pipeline_trend_float": lambda: PipelineConfig(trend_degree=1.5),
    "pipeline_modes_float": lambda: PipelineConfig(n_modes=2.5),
    "pipeline_time_nodes_float": lambda: PipelineConfig(n_time_nodes=400.5),
    "grid_dims_float": lambda: FrequencyGrid((4.5, 4)),
    "grid_dims_one_side": lambda: FrequencyGrid((4,)),
    "idw_dims_float": lambda: idw_interpolate(_SERIES, (2.5, 3)),
    "idw_dims_zero": lambda: idw_interpolate(_SERIES, (0, 3)),
    "rect_corner_float": lambda: BorelRect(0.5, 3, 0, 3),
    "rect_corner_negative": lambda: BorelRect(-1, 3, 0, 3),
    "point_float": lambda: product_density_n([(0, 0), (1.5, 0)], {(0, 0): 0.1, (1, 0): 0.0,
                                                                  (-1, 0): 0.0}),
    "point_negative": lambda: product_density_n([(0, 0), (-1, 0)], {(0, 0): 0.1, (1, 0): 0.0,
                                                                    (-1, 0): 0.0}),
    "sample_seed_float": lambda: sample_counts(_FIELD, BorelRect(0, 1, 0, 1), _PHI, 1.5),
    "sample_seed_negative": lambda: sample_counts(_FIELD, BorelRect(0, 1, 0, 1), _PHI, -1),
    "synthetic_months_float": lambda: make_synthetic_counts((4, 4), 2, n_months=2.5),
    "synthetic_months_zero": lambda: make_synthetic_counts((4, 4), 2, n_months=0),
    "spline_knots_float": lambda: spline_smooth(_TIMES, np.sin(_TIMES), 2.5),
    "spline_knots_negative": lambda: spline_smooth(_TIMES, np.sin(_TIMES), -1),
    "fejer_order_float": lambda: fejer_smoothed_inverse(
        SpectralModel("example1", 3), [1.0], 1, (1.5, 2), (0.0, 0.0)),
    "fejer_index_float": lambda: fejer_smoothed_inverse(
        SpectralModel("example1", 3), [1.0], 1.5, (4, 4), (0.0, 0.0)),
    "cov_grid_size_float": lambda: cov_from_spectrum(SpectralModel("example1", 2), [1.0],
                                                     [(0, 0)], grid_size=100.5),
    "cov_grid_size_zero": lambda: cov_from_spectrum(SpectralModel("example1", 2), [1.0],
                                                    [(0, 0)], grid_size=0),
    "cv_folds_float": lambda: _cross_validate(max_folds=2.5),
    "cv_seed_float": lambda: _cross_validate(seed=1.5),
    "cv_seed_negative": lambda: _cross_validate(seed=-1),
}


@pytest.mark.parametrize("call", list(_BAD.values()), ids=list(_BAD))
def test_entry_points_reject_non_integers_and_values_below_minimum(call, monkeypatch):
    # rejected before any cross-validation fold runs the pipeline
    monkeypatch.setattr(spatialcox.pipeline, "run_pipeline", lambda *a: pytest.fail("a fold ran"))
    with pytest.raises(ParameterDomainError, match="must be (an integer|two integers) >="):
        call()


@pytest.mark.parametrize("build, stored", [
    (lambda: ExperimentConfig("example1", [1.0], grid_sizes=(8.0, np.int64(12)),
                              replicates=np.int32(2), n_modes=3.0, burn_in=np.uint8(5),
                              seed=7.0),
     {"grid_sizes": (8, 12), "replicates": 2, "n_modes": 3, "burn_in": 5, "seed": 7}),
    (lambda: PipelineConfig(lattice_dims=np.array([6, 5]), n_time_nodes=60.0,
                            n_knots=np.int16(8), trend_degree=3.0, n_modes=np.int64(4)),
     {"lattice_dims": (6, 5), "n_time_nodes": 60, "n_knots": 8, "trend_degree": 3,
      "n_modes": 4}),
    (lambda: SpectralModel("custom", np.int64(2)), {"n_modes": 2}),
    (lambda: Sarh1Params("example1", [1.0], 3.0), {"n_modes": 3}),
    (lambda: BasisSpec(1.0, np.uint32(4)), {"n_modes": 4}),
    (lambda: BorelRect(np.int64(1), 2.0, np.int8(0), 3.0), {"a1": 1, "b1": 2, "a2": 0, "b2": 3}),
    (lambda: FrequencyGrid((np.int64(4), 5.0)), {"dims": (4, 5)}),
], ids=["experiment", "pipeline", "model", "params", "basis", "rect", "grid"])
def test_integral_values_are_stored_as_python_ints(build, stored):
    obj = build()
    got = {name: getattr(obj, name) for name in stored}
    assert got == stored
    for value in got.values():
        assert all(type(v) is int for v in (value if isinstance(value, tuple) else (value,)))


def test_integral_values_give_the_integer_results():
    model = SpectralModel("example1", 3)
    assert (fejer_smoothed_inverse(model, [1.0], 2.0, (np.int64(3), 4.0), (0.3, -1.0))
            == fejer_smoothed_inverse(model, [1.0], 2, (3, 4), (0.3, -1.0)))
    np.testing.assert_array_equal(
        cov_from_spectrum(model, [1.0], [(1.0, -2.0), (np.int64(0), 3)], grid_size=64.0),
        cov_from_spectrum(model, [1.0], [(1, -2), (0, 3)], grid_size=64))
    np.testing.assert_array_equal(idw_interpolate(_SERIES, (3.0, np.int64(2))).values,
                                  idw_interpolate(_SERIES, (3, 2)).values)
    rect = BorelRect(0, 1, 0, 1)
    assert (sample_counts(_FIELD, rect, _PHI, 5.0)
            == sample_counts(_FIELD, rect, _PHI, np.uint64(5)) == sample_counts(_FIELD, rect, _PHI, 5))
