import json
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

from spatialcox import (BasisSpec, CoeffField, load_field_binary, make_synthetic_counts,
                        save_field_binary, save_series_csv)
from spatialcox.cli import main
from spatialcox.errors import (BoundaryError, FileFormatError, OverflowGuardError,
                               ParameterDomainError)
from spatialcox.spectral import load_periodogram_binary


def run(argv):
    return main([str(a) for a in argv])


def test_simulate_periodogram_estimate_predict_chain(tmp_path):
    field = tmp_path / "field.bin"
    run(["--seed", 7, "simulate", "--family", "example1", "--theta", "1.0",
         "--dims", "48x48", "--modes", "4", "--out", field, "--csv"])
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


def test_periodogram_full_writes_the_cross_block(tmp_path):
    field, plain, full = tmp_path / "field.bin", tmp_path / "pg.bin", tmp_path / "pgram.bin"
    run(["simulate", "--dims", "6x5", "--modes", "3", "--out", field])
    run(["periodogram", "--field", field, "--out", plain])
    run(["periodogram", "--field", field, "--full", "--csv", "--out", full])
    back = load_periodogram_binary(full)
    assert back.cross.shape == (6, 5, 3, 3)
    assert back.values.tobytes() == load_periodogram_binary(plain).values.tobytes()
    assert len((tmp_path / "pgram.bin.csv").read_text().splitlines()) == 1 + 6 * 5 * 3 * 3
    # the loader checks the diagonal, |x_w|^2: the first payload value, after
    # the 32-byte header, is the real part of cross[0, 0, 0, 0]
    raw = bytearray(full.read_bytes())
    top = np.abs(back.values.real).max()
    for first, fails in ((-1e-12 * top, False), (-0.5 * top, True)):
        raw[32:40] = np.array([first], dtype="<f8").tobytes()
        full.write_bytes(bytes(raw))
        if fails:
            with pytest.raises(FileFormatError, match="negative real value"):
                load_periodogram_binary(full)
        else:
            assert load_periodogram_binary(full).values[0, 0, 0] == first
    raw[32:48] = np.array([top, 1e-6 * top], dtype="<f8").tobytes()
    full.write_bytes(bytes(raw))
    with pytest.raises(FileFormatError, match="imaginary residue"):
        load_periodogram_binary(full)


def test_estimate_refuses_a_box_wider_than_the_family_box(tmp_path):
    # example1's triples are defined on [0.7, 4] only: the box is refused when
    # the model is built, before the field is read, not inside the fit
    field, est = tmp_path / "field.bin", tmp_path / "est.json"
    run(["simulate", "--dims", "16x16", "--modes", "4", "--out", field])
    with pytest.raises(ParameterDomainError, match="example1 theta box leaves"):
        run(["estimate", "--field", field, "--modes", "4", "--theta-box", "0.5:4.5",
             "--out", est])
    assert not est.exists()
    run(["estimate", "--field", field, "--modes", "4", "--theta-box", "0.8:1.5", "--out", est])
    assert 0.8 <= json.loads(est.read_text())["theta_hat"][0] <= 1.5


@pytest.mark.parametrize("argv", [
    ["estimate", "--field", "{field}", "--family", "triple", "--modes", "4",
     "--theta-box=-inf:inf,-inf:inf,-inf:inf"],
    ["simulate", "--family", "triple", "--modes", "4", "--theta", "nan,0,0"],
], ids=["estimate_infinite_box", "simulate_nan_theta"])
def test_non_finite_theta_and_box_rejected(tmp_path, argv):
    # the estimate used to write "theta_hat": [NaN, NaN, NaN], not valid JSON, and
    # simulate to raise a StationarityError
    field, out = tmp_path / "field.bin", tmp_path / "out"
    run(["simulate", "--dims", "16x16", "--modes", "4", "--out", field])
    with pytest.raises(ParameterDomainError, match="triple theta"):
        run([arg.format(field=field) for arg in argv] + ["--out", out])
    assert not out.exists()


def test_cox_moments_command(tmp_path):
    field = tmp_path / "field.bin"
    run(["--seed", 3, "simulate", "--dims", "16x16", "--modes", "3", "--out", field])
    phi = tmp_path / "phi.csv"
    phi.write_text("1.0\n0.0\n0.0\n")
    out = tmp_path / "moments.json"
    run(["cox-moments", "--field", field, "--phi", phi, "--rect", "3:7x3:7",
         "--family", "example1", "--theta", "1.0", "--out", out])
    payload = json.loads(out.read_text())
    assert payload["area"] == 25
    assert payload["conditional_mean"] > 0
    # phi = e_1: mean = |B| exp(R_0/2) with the separable closed-form R_0
    l1 = 1.0 / np.pi**2
    l2 = 1.0 / np.pi**2
    r0 = 1.0 / ((1 - l1**2) * (1 - l2**2))
    assert payload["model_mean"] == pytest.approx(25 * np.exp(r0 / 2), rel=1e-8)
    assert payload["model_variance"] > 0


def test_cox_moments_overflow_writes_no_json(tmp_path):
    # a triple 1e-7 from the torus-zero band: R_0 is about 2236, so the model
    # moments overflow.  The command wrote "model_mean": Infinity and
    # "model_variance": NaN, which is not JSON
    field = tmp_path / "field.bin"
    run(["simulate", "--dims", "8x8", "--modes", "4", "--out", field])
    phi = tmp_path / "phi.csv"
    phi.write_text("1.0\n0.0\n0.0\n0.0\n")
    out = tmp_path / "moments.json"
    with pytest.raises(OverflowGuardError):
        run(["cox-moments", "--field", field, "--phi", phi, "--rect", "0:2x0:2",
             "--family", "triple", "--theta", "0.5,0.4999999,0", "--out", out])
    assert not out.exists()


def test_cox_moments_refuses_a_mean_numpy_cannot_draw(tmp_path):
    # 4 e^45 = 1.4e20 passes the exponent guard, but numpy's Poisson sampler takes no
    # mean above 9.22e18: the command ended in "ValueError: lam value too large"
    field = tmp_path / "huge_mean.bin"
    save_field_binary(CoeffField(np.full((4, 4, 1), 45.0), BasisSpec(1.0, 1)), field)
    phi = tmp_path / "phi.csv"
    phi.write_text("1.0\n")
    out = tmp_path / "moments.json"
    with pytest.raises(OverflowGuardError, match="Poisson mean"):
        run(["cox-moments", "--field", field, "--phi", phi, "--rect", "0:1x0:1", "--out", out])
    assert not out.exists()


def test_cox_moments_wide_rect_reads_its_own_lags(tmp_path):
    # the model moments take the lags B - B, here up to 20 on each axis
    field = tmp_path / "field.bin"
    run(["simulate", "--dims", "32x32", "--modes", "2", "--out", field])
    phi = tmp_path / "phi.csv"
    phi.write_text("1.0\n0.0\n")
    out = tmp_path / "moments.json"
    run(["cox-moments", "--field", field, "--phi", phi, "--rect", "0:20x0:20",
         "--family", "example1", "--theta", "1.0", "--out", out])
    payload = json.loads(out.read_text())
    assert payload["area"] == 441
    l1 = l2 = 1.0 / np.pi**2
    r0 = 1.0 / ((1 - l1**2) * (1 - l2**2))
    assert payload["model_mean"] == pytest.approx(441 * np.exp(r0 / 2), rel=1e-8)
    assert payload["model_variance"] > payload["model_mean"]


def test_cox_moments_rect_wider_than_half_the_quadrature(tmp_path):
    # lags up to 259 on the first axis, past the 512-node quadrature's Nyquist limit
    field = tmp_path / "field.bin"
    run(["simulate", "--dims", "262x12", "--modes", "4", "--out", field])
    phi = tmp_path / "phi.csv"
    phi.write_text("1.0\n0.0\n0.0\n0.0\n")
    out = tmp_path / "moments.json"
    run(["cox-moments", "--field", field, "--phi", phi, "--rect", "0:259x0:9",
         "--family", "example1", "--theta", "1.0", "--out", out])
    payload = json.loads(out.read_text())
    assert payload["area"] == 2600
    l1 = l2 = 1.0 / np.pi**2
    r0 = 1.0 / ((1 - l1**2) * (1 - l2**2))
    assert payload["model_mean"] == pytest.approx(2600 * np.exp(r0 / 2), rel=1e-8)
    assert payload["model_variance"] > payload["model_mean"]


@pytest.mark.parametrize("argv", [
    ["estimate", "--field", "field.bin", "--loss-tol", "1e-8"],
    ["estimate", "--field", "field.bin", "--max-evals", "100"],
    ["cox-moments", "--field", "field.bin", "--phi", "phi.csv", "--rect", "1:3x1:3",
     "--max-lag", "6"],
], ids=["loss_tol", "max_evals", "max_lag"])
def test_removed_tuning_flags_refused(argv):
    # refused by the parser, before any file is read
    with pytest.raises(SystemExit) as err:
        run(argv)
    assert err.value.code == 2


@pytest.mark.parametrize("model_flags", [["--family", "example1"], ["--theta", "1.0"]])
def test_cox_moments_family_needs_theta(tmp_path, model_flags):
    field = tmp_path / "field.bin"
    run(["simulate", "--dims", "8x8", "--modes", "2", "--out", field])
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


@pytest.mark.parametrize("command", ["simulate", "experiment"])
def test_burn_in_flag_gone(tmp_path, command):
    # fields are drawn from their exact stationary law, so no margin is set
    with pytest.raises(SystemExit) as err:
        run([command, "--burn-in", 10, "--out", tmp_path / "out"])
    assert err.value.code == 2


@pytest.mark.parametrize("text", ["1.0,0.5\n0.25,0.125\n", "1.0,0.5,0.25,0.125\n"],
                         ids=["two_by_two", "one_line"])
def test_cox_moments_phi_reads_one_coefficient_per_line(tmp_path, text):
    # both files used to be ravelled into the four coefficients of a 4-mode field
    field = tmp_path / "field.bin"
    run(["simulate", "--dims", "8x8", "--modes", "4", "--out", field])
    phi = tmp_path / "phi.csv"
    phi.write_text(text)
    out = tmp_path / "moments.json"
    with pytest.raises(FileFormatError, match="one coefficient per line"):
        run(["cox-moments", "--field", field, "--phi", phi, "--rect", "1:3x1:3", "--out", out])
    assert not out.exists()


@pytest.mark.parametrize("text, error", [
    ("", FileFormatError),
    ("1.0\nabc\n", FileFormatError),
    ("1.0\n0.0\n0.0\n", ParameterDomainError),  # three coefficients, two modes
    ("nan\n0\n", ParameterDomainError),
], ids=["empty", "non_numeric", "wrong_count", "nan"])
def test_cox_moments_bad_phi_rejected(tmp_path, text, error):
    field = tmp_path / "field.bin"
    run(["simulate", "--dims", "8x8", "--modes", "2", "--out", field])
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
    # each normalized mode's least loss over all triples is 1
    assert payload["loss_at_min"] >= 1 - 1e-9

    cv = tmp_path / "cv.json"
    run(["--seed", 5, "cross-validate", "--lattice", "8x8", "--time-nodes", 250,
         "--knots", 12, "--trend-degree", 3, "--folds", 2, "--out", cv])
    stats = json.loads(cv.read_text())
    assert stats["l1"] >= 0 and len(stats["fold_l1"]) == 2


def test_cross_validate_no_cumulate(tmp_path):
    # both pipeline subcommands take --no-cumulate, and cross-validation honours it
    flags = ["--lattice", "6x6", "--time-nodes", 200, "--knots", 10, "--folds", 2]
    l1 = {}
    for extra in ([], ["--no-cumulate"]):
        out = tmp_path / f"cv{len(extra)}.json"
        run(["--seed", 3, "cross-validate", *flags, *extra, "--out", out])
        l1[bool(extra)] = json.loads(out.read_text())["l1"]
    assert np.isfinite(l1[True]) and l1[True] != l1[False]


def test_pipeline_defaults_come_from_config(tmp_path):
    # every flag but --lattice at its PipelineConfig default, trend degree 3 included
    run(["--out-dir", tmp_path, "pipeline", "--lattice", "8x8"])
    payload = json.loads((tmp_path / "pipeline.json").read_text())
    assert payload["estimation_skipped"] is False
    assert len(payload["lambda_hat"]) == 10


def test_pipeline_names_the_unread_coordinates(tmp_path):
    # at 4 modes no mode is in the pmf group (7, 9): its deltas 2, 5 and 8 are
    # named, and come back at their box midpoint, 0; at 10 modes every one is read
    for modes, unread in ((4, [2, 5, 8]), (10, [])):
        out = tmp_path / f"pipe{modes}.json"
        run(["pipeline", "--lattice", "6x6", "--time-nodes", 121, "--knots", 8,
             "--modes", modes, "--out", out])
        payload = json.loads(out.read_text())
        assert payload["theta_unread"] == unread
        assert [payload["theta_hat"][i] for i in unread] == [0.0] * len(unread)


def test_experiment_command(tmp_path):
    out = tmp_path / "table.csv"
    run(["experiment", "--family", "example1", "--theta", "1.0",
         "--grid-sizes", "24", "--replicates", 2, "--modes", 3,
         "--out", out])
    rows = np.loadtxt(out, delimiter=",", skiprows=1, ndmin=2)
    assert rows.shape[0] == 1 and rows[0, 0] == 576


def test_experiment_command_any_family(tmp_path):
    out = tmp_path / "triple.csv"
    run(["experiment", "--family", "triple", "--theta", "0.1,0.1,0", "--grid-sizes", "12",
         "--replicates", 2, "--modes", 2, "--out", out])
    rows = np.loadtxt(out, delimiter=",", skiprows=1, ndmin=2)
    assert rows.shape[0] == 3 and np.all(rows[:, 0] == 144)


@pytest.mark.parametrize("via_config", [False, True])
def test_experiment_bad_grid_sizes_is_usage_error(tmp_path, capsys, via_config):
    out = tmp_path / "table.csv"
    if via_config:
        cfg = tmp_path / "run.cfg"
        cfg.write_text("grid-sizes = 12,abc\n")
        argv = ["--config", cfg, "experiment", "--out", out]
    else:
        argv = ["experiment", "--grid-sizes", "12,abc", "--out", out]
    with pytest.raises(SystemExit) as err:
        run(argv)
    assert err.value.code == 2
    assert "--grid-sizes" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("via_config", [False, True])
@pytest.mark.parametrize("command", [["simulate", "--dims", "6x6", "--modes", "2"],
                                     ["experiment", "--grid-sizes", "8", "--replicates", "1"]],
                         ids=["simulate", "experiment"])
def test_negative_seed_is_usage_error(tmp_path, capsys, via_config, command):
    # a negative seed used to reach numpy's SeedSequence and end in a bare ValueError
    if via_config:
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed = -1\n")
        argv = ["--config", cfg, *command]
    else:
        argv = ["--seed", "-1", *command]
    with pytest.raises(SystemExit) as err:
        run([*argv, "--out", tmp_path / "out"])
    assert err.value.code == 2
    assert "--seed" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


_SCIPY_PER_COMMAND = """
import json, sys
from spatialcox.cli import main

def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

main(["simulate", "--dims", "8x8", "--modes", "2", "--out", "f.bin"])
main(["periodogram", "--field", "f.bin", "--out", "pg.bin"])
with open("est.json", "w") as fh:
    json.dump({"family": "example1", "theta_hat": [1.0]}, fh)
main(["predict", "--field", "f.bin", "--theta", "est.json", "--out", "pred.bin"])
with open("phi.csv", "w") as fh:
    fh.write("1.0\\n0.5\\n")
main(["cox-moments", "--field", "f.bin", "--phi", "phi.csv", "--rect", "1:3x1:3",
      "--family", "example1", "--theta", "1.0", "--out", "m.json"])
main(["estimate", "--field", "f.bin", "--modes", "2", "--out", "est2.json"])
for family in ("triple", "custom", "realdata_pmf"):
    main(["estimate", "--field", "f.bin", "--modes", "2", "--family", family,
          "--out", f"est_{family}.json"])
main(["pipeline", "--lattice", "6x6", "--time-nodes", "121", "--knots", "8", "--modes", "4",
      "--out", "pipe.json"])
main(["cross-validate", "--lattice", "6x6", "--time-nodes", "121", "--knots", "8",
      "--modes", "4", "--folds", "2", "--no-cumulate", "--out", "cv.json"])
main(["estimate", "--field", "f.bin", "--modes", "2", "--family", "example2",
      "--out", "est_example2.json"])
main(["experiment", "--grid-sizes", "8", "--replicates", "2", "--modes", "2",
      "--family", "example2", "--theta", "1.0,1.6,1.5,1.2", "--out", "exp2.csv"])
print(json.dumps(scipy_modules()))
"""


def test_numpy_only_commands_load_no_scipy(tmp_path):
    # a fresh interpreter: the test modules' own scipy imports would mask the check
    out = subprocess.run([sys.executable, "-c", _SCIPY_PER_COMMAND], capture_output=True,
                         text=True, check=True, cwd=tmp_path,
                         env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
    # every command is numpy only: the fits of every family, example2's included,
    # the pipeline and the experiment
    assert json.loads(out.stdout.splitlines()[-1]) == []


def test_config_file_merging(tmp_path):
    field = tmp_path / "cfg_field.bin"
    cfg = tmp_path / "run.cfg"
    cfg.write_text("dims = 12x10\nmodes = 2\n# comment line\n")
    run(["--config", cfg, "simulate", "--out", field])
    fld = load_field_binary(field)
    assert fld.dims == (12, 10) and fld.n_modes == 2
    # explicit flag beats the config value
    run(["--config", cfg, "simulate", "--modes", 3, "--out", field])
    assert load_field_binary(field).n_modes == 3


def test_config_loses_to_explicit_flag_with_equals_sign(tmp_path):
    field = tmp_path / "eq_field.bin"
    cfg = tmp_path / "run.cfg"
    cfg.write_text("dims = 6x6\nmodes = 2\n")
    run(["--config", cfg, "simulate", "--dims=4x4", "--out", field])
    fld = load_field_binary(field)
    assert fld.dims == (4, 4) and fld.n_modes == 2


def test_config_bad_value_is_usage_error(tmp_path, capsys):
    field = tmp_path / "bad_field.bin"
    cfg = tmp_path / "run.cfg"
    cfg.write_text("dims = abc\n")
    with pytest.raises(SystemExit) as err:
        run(["--config", cfg, "simulate", "--out", field])
    assert err.value.code == 2
    assert "--dims" in capsys.readouterr().err
    assert not field.exists()


def test_config_unknown_key_rejected(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("folds = 3\n")
    with pytest.raises(SystemExit) as err:
        run(["--config", cfg, "simulate", "--out", tmp_path / "f.bin"])
    assert err.value.code == 2
    assert (f"{cfg}: config key 'folds' does not match any flag of simulate"
            in capsys.readouterr().err)
    assert not (tmp_path / "f.bin").exists()


@pytest.mark.parametrize("line, key", [("csv", "'csv'"), ("out", "'out'"),
                                       ("command = periodogram", "'command'"),
                                       ("config = other.cfg", "'config'")],
                         ids=["csv_line", "out_line", "command_key", "config_key"])
def test_config_line_or_key_naming_no_flag_is_usage_error(tmp_path, capsys, line, key):
    # read as key = "", a line "csv" turned --csv off and the command exited 0, and a
    # line "out" ran the command, then died on open(""); the keys command and config
    # name no settable flag, and were ignored
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"dims = 4x4\nmodes = 2\n{line}\n")
    with pytest.raises(SystemExit) as err:
        run(["--config", cfg, "simulate", "--out", tmp_path / "f.bin"])
    assert err.value.code == 2
    message = capsys.readouterr().err
    assert str(cfg) in message and key in message
    assert not (tmp_path / "f.bin").exists()


@pytest.mark.parametrize("where", ["flag", "flag_under_out_dir", "config_line"])
def test_empty_out_is_usage_error_before_any_work(tmp_path, capsys, monkeypatch, where):
    # an empty --out, or a config line "out =", ran the whole command and then died on
    # open(""): a bare FileNotFoundError, or IsADirectoryError under --out-dir
    monkeypatch.setattr("spatialcox.cli.simulate_sarh1",
                        lambda *a, **k: pytest.fail("the command ran"))
    cfg = tmp_path / "run.cfg"
    cfg.write_text("out =\n")
    argv = {"flag": ["simulate", "--out", ""],
            "flag_under_out_dir": ["--out-dir", tmp_path / "od", "simulate", "--out", ""],
            "config_line": ["--config", cfg, "simulate"]}[where]
    with pytest.raises(SystemExit) as err:
        run(argv)
    assert err.value.code == 2
    assert "simulate: --out must name a file" in capsys.readouterr().err
    assert not (tmp_path / "od").exists()


def test_config_supplies_required_flags(tmp_path):
    field = tmp_path / "f.bin"
    run(["simulate", "--dims", "8x8", "--modes", "2", "--out", field])
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"field = {field}\n")
    run(["--config", cfg, "periodogram", "--out", tmp_path / "pg.bin"])
    assert (tmp_path / "pg.bin").exists()
    phi = tmp_path / "phi.csv"
    phi.write_text("1.0\n0.0\n")
    cfg.write_text(f"field = {field}\nphi = {phi}\nrect = 1:3x1:3\n")
    out = tmp_path / "moments.json"
    run(["--config", cfg, "cox-moments", "--out", out])
    assert json.loads(out.read_text())["area"] == 9


def test_required_flag_missing_from_config_is_usage_error(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"field = {tmp_path / 'f.bin'}\n")
    with pytest.raises(SystemExit) as err:
        run(["--config", cfg, "cox-moments", "--rect", "1:3x1:3"])
    assert err.value.code == 2
    assert "--phi" in capsys.readouterr().err


def test_config_store_true_and_top_level_keys(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("csv = yes\nout-dir = {}\nseed = 4\ndims = 6x6\nmodes = 2\n"
                   .format(tmp_path / "out"))
    run(["--config", cfg, "simulate", "--out", "f.bin"])
    assert (tmp_path / "out" / "f.bin.csv").exists()
    first = load_field_binary(tmp_path / "out" / "f.bin").data
    run(["--config", cfg, "--seed", 4, "simulate", "--out", "g.bin"])
    np.testing.assert_array_equal(load_field_binary(tmp_path / "out" / "g.bin").data, first)
    run(["--config", cfg, "--seed", 5, "simulate", "--out", "h.bin"])
    assert not np.array_equal(load_field_binary(tmp_path / "out" / "h.bin").data, first)
    cfg.write_text(cfg.read_text().replace("csv = yes", "csv = no"))
    run(["--config", cfg, "simulate", "--out", "k.bin"])
    assert not (tmp_path / "out" / "k.bin.csv").exists()


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
    # a flag has one spelling, its full name, on the command line as in a
    # config file: argparse would otherwise expand --dim to --dims
    field = tmp_path / "abbrev_field.bin"
    cfg = tmp_path / "run.cfg"
    cfg.write_text("dims = 6x6\nmodes = 2\n")
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
    run(["simulate", "--dims", "8x8", "--modes", "2", "--out", field])
    est = tmp_path / "est.json"
    est.write_text(text)
    pred = tmp_path / "pred.bin"
    with pytest.raises(error):
        run(["predict", "--field", field, "--theta", est, "--out", pred])
    assert not pred.exists()


def test_cox_moments_rect_outside_lattice_rejected(tmp_path):
    field = tmp_path / "field.bin"
    run(["simulate", "--dims", "8x8", "--modes", "2", "--out", field])
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
                "--modes", "2", "--out", field]) is None
    est = tmp_path / "est.json"
    assert run(["estimate", "--family", "triple", "--field", field, "--modes", "2",
                "--out", est]) is None
    payload = json.loads(est.read_text())
    assert payload["family"] == "triple" and len(payload["theta_hat"]) == 3
