import json
import warnings

import numpy as np
import pytest

from spatialcox import load_field_binary, make_synthetic_counts, save_series_csv
from spatialcox.cli import main
from spatialcox.errors import BoundaryError, FileFormatError, ParameterDomainError


def run(argv):
    return main([str(a) for a in argv])


def test_simulate_periodogram_estimate_predict_chain(tmp_path):
    field = tmp_path / "field.bin"
    run(["--seed", 7, "simulate", "--family", "example1", "--theta", "1.0",
         "--dims", "48x48", "--modes", "4", "--burn-in", 30, "--out", field, "--csv"])
    fld = load_field_binary(field)
    assert fld.dims == (48, 48) and fld.n_modes == 4
    assert (tmp_path / "field.bin.csv").exists()

    pgram = tmp_path / "pg.bin"
    run(["periodogram", "--field", field, "--out", pgram, "--csv"])
    assert pgram.exists() and (tmp_path / "pg.bin.csv").exists()

    est = tmp_path / "est.json"
    run(["estimate", "--family", "example1", "--field", field, "--modes", "4",
         "--theta-box", "0.7:4", "--out", est])
    payload = json.loads(est.read_text())
    assert payload["family"] == "example1"
    assert 0.7 <= payload["theta_hat"][0] <= 4.0

    pred = tmp_path / "pred.bin"
    run(["predict", "--field", field, "--theta", est, "--out", pred])
    assert load_field_binary(pred).dims == (48, 48)


def test_cox_moments_command(tmp_path):
    field = tmp_path / "field.bin"
    run(["--seed", 3, "simulate", "--dims", "16x16", "--modes", "3",
         "--burn-in", 10, "--out", field])
    phi = tmp_path / "phi.csv"
    phi.write_text("1.0\n0.0\n0.0\n")
    out = tmp_path / "moments.json"
    run(["cox-moments", "--field", field, "--phi", phi, "--rect", "3:7x3:7",
         "--family", "example1", "--theta", "1.0", "--max-lag", "6", "--out", out])
    payload = json.loads(out.read_text())
    assert payload["area"] == 25
    assert payload["conditional_mean"] > 0
    # phi = e_1: mean = |B| exp(R_0/2) with the separable closed-form R_0
    l1 = 1.0 / np.pi**2
    l2 = 1.0 / np.pi**2
    r0 = 1.0 / ((1 - l1**2) * (1 - l2**2))
    assert payload["model_mean"] == pytest.approx(25 * np.exp(r0 / 2), rel=1e-8)
    assert payload["model_variance"] > 0


@pytest.mark.parametrize("model_flags", [["--family", "example1"], ["--theta", "1.0"]])
def test_cox_moments_family_needs_theta(tmp_path, model_flags):
    field = tmp_path / "field.bin"
    run(["simulate", "--dims", "8x8", "--modes", "2", "--burn-in", 5, "--out", field])
    phi = tmp_path / "phi.csv"
    phi.write_text("1.0\n0.0\n")
    out = tmp_path / "moments.json"
    with pytest.raises(SystemExit) as err:
        run(["cox-moments", "--field", field, "--phi", phi, "--rect", "1:3x1:3",
             *model_flags, "--out", out])
    assert err.value.code == 2
    assert not out.exists()


def test_estimate_starts_flag_gone(tmp_path):
    with pytest.raises(SystemExit) as err:
        run(["estimate", "--field", tmp_path / "field.bin", "--starts", 3])
    assert err.value.code == 2


@pytest.mark.parametrize("text, error", [
    ("", FileFormatError),
    ("1.0\nabc\n", FileFormatError),
    ("1.0\n0.0\n0.0\n", ParameterDomainError),  # three coefficients, two modes
    ("nan\n0\n", ParameterDomainError),
], ids=["empty", "non_numeric", "wrong_count", "nan"])
def test_cox_moments_bad_phi_rejected(tmp_path, text, error):
    field = tmp_path / "field.bin"
    run(["simulate", "--dims", "8x8", "--modes", "2", "--burn-in", 5, "--out", field])
    phi = tmp_path / "phi.csv"
    phi.write_text(text)
    out = tmp_path / "moments.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(error):
            run(["cox-moments", "--field", field, "--phi", phi, "--rect", "1:3x1:3",
                 "--out", out])
    assert not out.exists()


def test_pipeline_and_cross_validate_synthetic(tmp_path):
    out = tmp_path / "pipe.json"
    run(["--seed", 5, "pipeline", "--lattice", "10x10", "--time-nodes", 300,
         "--knots", 14, "--trend-degree", 3, "--modes", 10, "--out", out])
    payload = json.loads(out.read_text())
    assert not payload["estimation_skipped"]
    assert len(payload["lambda_hat"]) == 10
    assert len(payload["lambda_true"]) == 10

    cv = tmp_path / "cv.json"
    run(["--seed", 5, "cross-validate", "--lattice", "8x8", "--time-nodes", 250,
         "--knots", 12, "--trend-degree", 3, "--folds", 2, "--out", cv])
    stats = json.loads(cv.read_text())
    assert stats["l1"] >= 0 and len(stats["fold_l1"]) == 2


def test_experiment_command(tmp_path):
    out = tmp_path / "table.csv"
    run(["experiment", "--family", "example1", "--theta", "1.0",
         "--grid-sizes", "24", "--replicates", 2, "--modes", 3,
         "--burn-in", 15, "--out", out])
    rows = np.loadtxt(out, delimiter=",", skiprows=1, ndmin=2)
    assert rows.shape[0] == 1 and rows[0, 0] == 576


def test_config_file_merging(tmp_path):
    field = tmp_path / "cfg_field.bin"
    cfg = tmp_path / "run.cfg"
    cfg.write_text("dims = 12x10\nmodes = 2\nburn-in = 5\n# comment line\n")
    run(["--config", cfg, "simulate", "--out", field])
    fld = load_field_binary(field)
    assert fld.dims == (12, 10) and fld.n_modes == 2
    # explicit flag beats the config value
    run(["--config", cfg, "simulate", "--modes", 3, "--out", field])
    assert load_field_binary(field).n_modes == 3


def test_config_loses_to_explicit_flag_with_equals_sign(tmp_path):
    field = tmp_path / "eq_field.bin"
    cfg = tmp_path / "run.cfg"
    cfg.write_text("dims = 6x6\nmodes = 2\nburn-in = 5\n")
    run(["--config", cfg, "simulate", "--dims=4x4", "--burn-in=3", "--out", field])
    fld = load_field_binary(field)
    assert fld.dims == (4, 4) and fld.n_modes == 2


def test_data_roundtrip_through_cli(tmp_path):
    series, _ = make_synthetic_counts(lattice_dims=(6, 6), n_months=100,
                                      support_length=400.0, seed=9)
    data = tmp_path / "data.csv"
    save_series_csv(series, data)
    out = tmp_path / "pipe2.json"
    run(["pipeline", "--data", data, "--lattice", "6x6", "--time-nodes", 200,
         "--knots", 10, "--trend-degree", 3, "--modes", 10, "--out", out])
    assert json.loads(out.read_text())["lambda_hat"] is not None


def test_parse_box_multicoordinate():
    from spatialcox.cli import _parse_box
    box = _parse_box("0.7:1.3,1.3:1.9,1.2:1.8,0.9:1.5")
    assert box.shape == (4, 2)
    np.testing.assert_allclose(box[1], [1.3, 1.9])
    np.testing.assert_allclose(_parse_box("0.7:4"), [[0.7, 4.0]])


def test_abbreviated_flag_refused(tmp_path, capsys):
    # argparse would expand --dim to --dims, which the config merge does not
    # see as explicit, so dims = 6x6 from the file would win
    field = tmp_path / "abbrev_field.bin"
    cfg = tmp_path / "run.cfg"
    cfg.write_text("dims = 6x6\nmodes = 2\nburn-in = 5\n")
    with pytest.raises(SystemExit) as err:
        run(["--config", cfg, "simulate", "--dim", "4x4", "--out", field])
    assert err.value.code == 2
    assert "--dim" in capsys.readouterr().err
    assert not field.exists()
    with pytest.raises(SystemExit):
        run(["--conf", cfg, "simulate", "--out", field])


@pytest.mark.parametrize("text, error", [
    ("{not json", FileFormatError),
    ('{"theta_hat": [1.0]}', FileFormatError),
    ('[{"family": "example1"}]', FileFormatError),
    ('{"family": "example1", "theta_hat": "abc"}', FileFormatError),
    ('{"family": ["example1"], "theta_hat": [1.0]}', ParameterDomainError),
], ids=["not_json", "no_family", "list", "text_theta", "list_family"])
def test_predict_bad_estimate_json_rejected(tmp_path, text, error):
    field = tmp_path / "field.bin"
    run(["simulate", "--dims", "8x8", "--modes", "2", "--burn-in", 5, "--out", field])
    est = tmp_path / "est.json"
    est.write_text(text)
    pred = tmp_path / "pred.bin"
    with pytest.raises(error):
        run(["predict", "--field", field, "--theta", est, "--out", pred])
    assert not pred.exists()


def test_cox_moments_rect_outside_lattice_rejected(tmp_path):
    field = tmp_path / "field.bin"
    run(["simulate", "--dims", "8x8", "--modes", "2", "--burn-in", 5, "--out", field])
    phi = tmp_path / "phi.csv"
    phi.write_text("1.0\n0.0\n")
    out = tmp_path / "moments.json"
    with pytest.raises(BoundaryError):
        run(["cox-moments", "--field", field, "--phi", phi, "--rect", "0:20x0:3",
             "--out", out])
    assert not out.exists()


def test_triple_family_simulate_and_estimate(tmp_path):
    # every family of sarh.FAMILIES is a choice of both commands
    field = tmp_path / "field.bin"
    assert run(["simulate", "--family", "triple", "--theta", "0.1,0.1,0", "--dims", "16x16",
                "--modes", "2", "--burn-in", 10, "--out", field]) is None
    est = tmp_path / "est.json"
    assert run(["estimate", "--family", "triple", "--field", field, "--modes", "2",
                "--out", est]) is None
    payload = json.loads(est.read_text())
    assert payload["family"] == "triple" and len(payload["theta_hat"]) == 3
