import numpy as np
import pytest

from oracles import experiment_csv_loop
from spatialcox import ExperimentConfig, ExperimentTable, run_experiment
from spatialcox.errors import ParameterDomainError, SingularSpectrumError


def test_select_of_a_missing_row_is_a_key_error():
    table = run_experiment(small_cfg(grid_sizes=(24,), replicates=2))
    assert table.select(576)["N"] == 576
    with pytest.raises(KeyError, match=r"\(400, 1\)"):
        table.select(400)
    with pytest.raises(KeyError, match=r"\(576, 2\)"):
        table.select(576, component=2)


def small_cfg(**kw):
    base = dict(family="example1", theta_true=[1.0], grid_sizes=(24, 32),
                replicates=4, n_modes=3, seed=7)
    base.update(kw)
    return ExperimentConfig(**base)


def test_single_replicate_mse_is_squared_error():
    table = run_experiment(small_cfg(grid_sizes=(24,), replicates=1))
    row = table.select(24 * 24, component=1)
    assert row["mse"] == pytest.approx((row["mean"] - 1.0) ** 2, rel=1e-12)
    assert row["sd"] == 0.0
    assert row["n_failed"] == 0


def test_burn_in_changes_no_table():
    # the fields are drawn from their exact stationary law, with no margin
    rows = [run_experiment(small_cfg(grid_sizes=(16,), replicates=2, burn_in=b)).rows
            for b in (0, 100)]
    assert rows[0] == rows[1]


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
    experiment_csv_loop(table, tmp_path / "loop.csv")
    assert path.read_bytes() == (tmp_path / "loop.csv").read_bytes()


def test_csv_bytes_are_the_row_writers(tmp_path):
    # one block per N through the package's one CSV writer gives the bytes of writing
    # each row with csv.writer: 2 sizes x 4 components, an sd of 0.0, -0.0, a
    # subnormal, the largest float and n_failed = 3; and the empty table's header alone
    values = [0.1, 1 / 3, -0.0, 5e-324, 1.7976931348623157e308, -2.5e-17, 1e16, 7.0]
    tables = [ExperimentTable([
        {"N": n, "component": c, "mean": values[i + c], "sd": 0.0 if c == 2 else values[c - 1],
         "mse": values[(i + 2 * c) % 8], "n_failed": 3 * i}
        for i, n in enumerate((576, 1024)) for c in range(1, 5)]), ExperimentTable([])]
    for table in tables:
        table.to_csv(tmp_path / "got.csv")
        experiment_csv_loop(table, tmp_path / "want.csv")
        assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()


def test_threads_match_serial():
    cfg = small_cfg(grid_sizes=(16, 24), replicates=3)
    serial = run_experiment(cfg, threads=1)
    pooled = run_experiment(cfg, threads=2)
    assert [r["N"] for r in serial.rows] == [256, 576]
    assert serial.rows == pooled.rows


@pytest.mark.parametrize("threads, pools", [(2, 1), (1, 0)])
def test_one_pool_per_run(monkeypatch, threads, pools):
    # a pool used to be started for each grid size, three here
    import concurrent.futures

    built = []

    class Counted(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            built.append(kwargs)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Counted)
    table = run_experiment(small_cfg(grid_sizes=(8, 12, 16), replicates=2, n_modes=2),
                           threads=threads)
    assert len(built) == pools
    assert sorted({r["N"] for r in table.rows}) == [64, 144, 256]


def test_config_validation():
    with pytest.raises(ParameterDomainError):
        ExperimentConfig("example1", [1.0], replicates=0)
    with pytest.raises(ParameterDomainError):
        ExperimentConfig("example1", [1.0], grid_sizes=(64, 32))


@pytest.mark.parametrize("bad", [{"grid_sizes": (1, 24)}, {"grid_sizes": (0,)},
                                 {"burn_in": -1}, {"n_modes": 0},
                                 {"theta_true": [1.0, 2.0]}, {"family": "example3"},
                                 {"theta_true": [5.0]}, {"seed": -1},
                                 {"grid_sizes": (8.5,)}, {"replicates": 2.5},
                                 {"burn_in": 2.5}, {"n_modes": 2.5}, {"n_modes": np.nan},
                                 {"grid_sizes": (24, np.inf)}, {"seed": 1.5},
                                 {"grid_sizes": ()}])
def test_config_rejects_degenerate_sizes(bad):
    # each used to reach the replicates, fail in all of them and end in RuntimeError;
    # a float side used to simulate a truncated field and report N = side^2,
    # a float replicate count or burn-in to end in a bare TypeError; n_modes = 2.5
    # used to construct (three modes), and NaN to end in a bare ValueError
    with pytest.raises(ParameterDomainError):
        small_cfg(**bad)


def test_integral_float_side_reports_integer_n():
    # a side of 8.0 used to be rejected; it is the integer 8, so N is the int 64
    table = run_experiment(small_cfg(grid_sizes=(8.0,), replicates=2))
    assert {r["N"] for r in table.rows} == {64}
    assert all(type(r["N"]) is int for r in table.rows)


@pytest.mark.parametrize("threads", [0, -2])
def test_threads_below_one_rejected(threads):
    with pytest.raises(ParameterDomainError, match="threads"):
        run_experiment(small_cfg(grid_sizes=(24,), replicates=1), threads=threads)


def test_programming_error_in_replicate_propagates(monkeypatch):
    import spatialcox.experiment as ex

    def broken(*args, **kwargs):
        raise TypeError("injected")

    monkeypatch.setattr(ex, "estimate", broken)
    with pytest.raises(TypeError, match="injected"):
        run_experiment(small_cfg(grid_sizes=(24,), replicates=2))


def test_all_failed_reports_first_failure(monkeypatch):
    import spatialcox.experiment as ex

    def singular(*args, **kwargs):
        raise SingularSpectrumError("injected")

    monkeypatch.setattr(ex, "estimate", singular)
    with pytest.raises(RuntimeError, match=r"all 2 replicates failed.*SingularSpectrumError"):
        run_experiment(small_cfg(grid_sizes=(24,), replicates=2))


def test_all_failed_names_the_failing_size(monkeypatch):
    # the first size fits, the second fails in every replicate
    import spatialcox.experiment as ex

    real = ex.estimate

    def fails_at_24(model, fld):
        if fld.dims == (24, 24):
            raise SingularSpectrumError("injected")
        return real(model, fld)

    monkeypatch.setattr(ex, "estimate", fails_at_24)
    with pytest.raises(RuntimeError, match=r"all 2 replicates failed at side=24;"):
        run_experiment(small_cfg(grid_sizes=(16, 24), replicates=2))


def test_non_causal_theta_rejected_at_construction():
    # theta = 3.5 is in the example1 box, but l1 = 3.5^2 / pi^2 > 1 on mode 1:
    # every replicate used to fail and the run ended in RuntimeError
    with pytest.raises(ParameterDomainError, match="not causal on mode 1"):
        small_cfg(theta_true=[3.5])
