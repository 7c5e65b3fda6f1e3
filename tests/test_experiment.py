import numpy as np
import pytest

from spatialcox import ExperimentConfig, run_experiment
from spatialcox.errors import ParameterDomainError
from spatialcox.whittle import EstimateOptions

SMALL_OPTS = EstimateOptions(loss_tol=1e-8, max_evals=800)


def small_cfg(**kw):
    base = dict(family="example1", theta_true=[1.0], grid_sizes=(24, 32),
                replicates=4, n_modes=3, burn_in=20, seed=7, opts=SMALL_OPTS)
    base.update(kw)
    return ExperimentConfig(**base)


def test_single_replicate_mse_is_squared_error():
    table = run_experiment(small_cfg(grid_sizes=(24,), replicates=1))
    row = table.select(24 * 24, component=1)
    assert row["mse"] == pytest.approx((row["mean"] - 1.0) ** 2, rel=1e-12)
    assert row["sd"] == 0.0
    assert row["n_failed"] == 0


def test_mse_identity_and_determinism():
    cfg = small_cfg()
    table = run_experiment(cfg)
    for row in table.rows:
        r = cfg.replicates
        ident = row["sd"] ** 2 * (r - 1) / r + (row["mean"] - 1.0) ** 2
        assert row["mse"] == pytest.approx(ident, rel=1e-10)
    again = run_experiment(cfg)
    for a, b in zip(table.rows, again.rows):
        assert a == b


def test_rows_cover_all_sizes_and_components():
    table = run_experiment(small_cfg(family="example2",
                                     theta_true=[1.0, 1.6, 1.5, 1.2],
                                     grid_sizes=(24,), replicates=2))
    assert sorted(r["component"] for r in table.rows) == [1, 2, 3, 4]
    assert all(np.isfinite(r["mean"]) for r in table.rows)


def test_csv_layout(tmp_path):
    table = run_experiment(small_cfg(grid_sizes=(24,), replicates=2))
    path = tmp_path / "table.csv"
    table.to_csv(path)
    header = path.read_text().splitlines()[0]
    assert header == "N,component,mean,sd,mse,n_failed"
    body = np.loadtxt(path, delimiter=",", skiprows=1)
    assert body.ndim == 1 and body[0] == 576


def test_threads_match_serial():
    cfg = small_cfg(grid_sizes=(24,), replicates=3)
    serial = run_experiment(cfg, threads=1)
    pooled = run_experiment(cfg, threads=2)
    for a, b in zip(serial.rows, pooled.rows):
        assert a["mean"] == pytest.approx(b["mean"], rel=0, abs=0)


def test_config_validation():
    with pytest.raises(ParameterDomainError):
        ExperimentConfig("example1", [1.0], replicates=0)
    with pytest.raises(ParameterDomainError):
        ExperimentConfig("example1", [1.0], grid_sizes=(64, 32))


def test_programming_error_in_replicate_propagates(monkeypatch):
    import spatialcox.experiment as ex

    def broken(*args, **kwargs):
        raise TypeError("injected")

    monkeypatch.setattr(ex, "estimate", broken)
    with pytest.raises(TypeError, match="injected"):
        run_experiment(small_cfg(grid_sizes=(24,), replicates=2))


def test_all_failed_reports_first_failure():
    # theta = 3.5 gives l1 = 3.5^2 / pi^2 > 1 on mode 1: not causal
    with pytest.raises(RuntimeError, match=r"all 2 replicates failed.*StationarityError.*mode 1"):
        run_experiment(small_cfg(theta_true=[3.5], grid_sizes=(24,), replicates=2))
