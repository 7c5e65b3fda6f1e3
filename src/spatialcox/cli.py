"""Command-line interface.

Subcommands: simulate, periodogram, estimate, cox-moments, predict,
pipeline, cross-validate, experiment.  Every flag can also be supplied
through ``--config FILE`` holding ``key = value`` lines (keys match the
long flag names with dashes or underscores); explicit flags win.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

import numpy as np

from . import __version__
from .basis import BasisSpec
from .cox import (BorelRect, TestFunction, cov_map, count_moments, ls_count_predictor,
                  predict_field, sample_counts)
from .errors import FileFormatError
from .experiment import ExperimentConfig, run_experiment
from .field import _read_numeric_csv, load_field_binary, save_field_binary, save_field_csv
from .pipeline import (PipelineConfig, load_series_csv, make_synthetic_counts,
                       run_cross_validation, run_pipeline)
from .sarh import FAMILIES, Sarh1Params, SpectralModel, simulate_sarh1
from .spectral import periodogram, save_periodogram_binary, save_periodogram_csv
from .whittle import EstimateOptions, estimate


def _parse_dims(text):
    a, b = text.lower().split("x")
    return int(a), int(b)


def _parse_box(text):
    # "0.7:4" or "0.7:1.3,1.3:1.9,..." per coordinate
    rows = []
    for part in text.split(","):
        lo, hi = part.split(":")
        rows.append([float(lo), float(hi)])
    return np.array(rows)


def _parse_rect(text):
    part1, part2 = text.split("x")
    a1, b1 = (int(v) for v in part1.split(":"))
    a2, b2 = (int(v) for v in part2.split(":"))
    return BorelRect(a1, b1, a2, b2)


def _theta_vector(text):
    return np.array([float(v) for v in text.split(",")])


def _read_config(path):
    values = {}
    with open(path) as fh:
        for line in fh:
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            key, _, val = line.partition("=")
            values[key.strip().replace("-", "_")] = val.strip()
    return values


_CONFIG_PARSERS = {
    "dims": _parse_dims,
    "lattice": _parse_dims,
    "theta": _theta_vector,
    "theta_box": _parse_box,
    "rect": _parse_rect,
}


def _apply_config(args_ns, config_values, argv):
    argv = argv if argv is not None else sys.argv[1:]
    for key, raw in config_values.items():
        if not hasattr(args_ns, key):
            raise SystemExit(f"config key {key!r} does not match any flag")
        flag_forms = {f"--{key.replace('_', '-')}", f"--{key}"}
        if any(str(a).split("=", 1)[0] in flag_forms for a in argv):
            continue  # explicit flag (--flag value or --flag=value) wins
        current = getattr(args_ns, key)
        if key in _CONFIG_PARSERS:
            value = _CONFIG_PARSERS[key](raw)
        elif isinstance(current, bool):
            value = raw.lower() in ("1", "true", "yes")
        elif isinstance(current, int):
            value = int(raw)
        elif isinstance(current, float):
            value = float(raw)
        else:
            value = raw
        setattr(args_ns, key, value)
    return args_ns


def _out_path(args, name):
    if args.out_dir:
        os.makedirs(args.out_dir, exist_ok=True)
        return os.path.join(args.out_dir, name)
    return name


def build_parser():
    # abbreviated long flags are refused: --config precedence matches full names only
    p = argparse.ArgumentParser(prog="spatialcox", allow_abbrev=False,
                                description="Spatial Cox / SARH(1) spectral toolbox")
    p.add_argument("--version", action="version", version=__version__)
    p.add_argument("--config", default=None, help="key = value file mirroring the flags")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--threads", type=int, default=1)
    p.add_argument("--out-dir", default="", help="directory for output artifacts")
    sub = p.add_subparsers(dest="command", required=True, parser_class=functools.partial(
        argparse.ArgumentParser, allow_abbrev=False))

    s = sub.add_parser("simulate", help="generate a SARH(1) coefficient field")
    s.add_argument("--family", default="example1", choices=FAMILIES)
    s.add_argument("--theta", type=_theta_vector, default=np.array([1.0]))
    s.add_argument("--dims", type=_parse_dims, default=(200, 200))
    s.add_argument("--modes", type=int, default=10)
    s.add_argument("--burn-in", type=int, default=100)
    s.add_argument("--support-length", type=float, default=1.0)
    s.add_argument("--out", default="field.bin")
    s.add_argument("--csv", action="store_true", help="also write CSV next to the binary")

    s = sub.add_parser("periodogram", help="periodogram of a stored field")
    s.add_argument("--field", required=True)
    s.add_argument("--full", action="store_true", help="store the full cross block")
    s.add_argument("--out", default="pgram.bin")
    s.add_argument("--csv", action="store_true")

    s = sub.add_parser("estimate", help="Whittle estimation from a stored field")
    s.add_argument("--family", default="example1", choices=FAMILIES)
    s.add_argument("--field", required=True)
    s.add_argument("--modes", type=int, default=10)
    s.add_argument("--theta-box", type=_parse_box, default=None)
    s.add_argument("--max-evals", type=int, default=2000)
    s.add_argument("--loss-tol", type=float, default=1e-10)
    s.add_argument("--out", default="est.json")

    s = sub.add_parser("cox-moments", help="count moments over a lattice rectangle")
    s.add_argument("--field", required=True)
    s.add_argument("--phi", required=True, help="CSV with one coefficient per line")
    s.add_argument("--rect", type=_parse_rect, required=True, help="a1:b1xa2:b2")
    s.add_argument("--family", default=None, help="model family for unconditional moments")
    s.add_argument("--theta", type=_theta_vector, default=None)
    s.add_argument("--max-lag", type=int, default=12)
    s.add_argument("--out", default="moments.json")

    s = sub.add_parser("predict", help="plug-in one-step field prediction")
    s.add_argument("--field", required=True)
    s.add_argument("--theta", required=True, help="estimate JSON from the estimate command")
    s.add_argument("--out", default="pred.bin")

    s = sub.add_parser("pipeline", help="run the estimation pipeline on site series")
    s.add_argument("--data", default=None, help="CSV site_id,lon,lat,time,value; "
                                                "omit to run on synthetic data")
    s.add_argument("--lattice", type=_parse_dims, default=(20, 20))
    s.add_argument("--time-nodes", type=int, default=1725)
    s.add_argument("--knots", type=int, default=40)
    s.add_argument("--trend-degree", type=int, default=10)
    s.add_argument("--modes", type=int, default=10)
    s.add_argument("--no-cumulate", action="store_true")
    s.add_argument("--out", default="pipeline.json")

    s = sub.add_parser("cross-validate", help="leave-site-out CVFARE")
    s.add_argument("--data", default=None)
    s.add_argument("--lattice", type=_parse_dims, default=(20, 20))
    s.add_argument("--time-nodes", type=int, default=1725)
    s.add_argument("--knots", type=int, default=40)
    s.add_argument("--trend-degree", type=int, default=10)
    s.add_argument("--modes", type=int, default=10)
    s.add_argument("--folds", type=int, default=12)
    s.add_argument("--radius", type=float, default=0.0)
    s.add_argument("--out", default="cvfare.json")

    s = sub.add_parser("experiment", help="Monte Carlo consistency table")
    s.add_argument("--family", default="example1", choices=["example1", "example2"])
    s.add_argument("--theta", type=_theta_vector, default=np.array([1.0]))
    s.add_argument("--grid-sizes", default="100,150,200")
    s.add_argument("--replicates", type=int, default=30)
    s.add_argument("--modes", type=int, default=10)
    s.add_argument("--burn-in", type=int, default=100)
    s.add_argument("--out", default="experiment.csv")
    return p


def cmd_simulate(args):
    params = Sarh1Params(args.family, args.theta, args.modes)
    basis = BasisSpec(support_length=args.support_length, n_modes=args.modes)
    fld = simulate_sarh1(params, args.dims, burn_in=args.burn_in, seed=args.seed, basis=basis)
    out = _out_path(args, args.out)
    save_field_binary(fld, out)
    if args.csv:
        save_field_csv(fld, out + ".csv")
    print(f"wrote {out} ({args.dims[0]}x{args.dims[1]} sites, {args.modes} modes)")


def cmd_periodogram(args):
    fld = load_field_binary(args.field)
    pg = periodogram(fld, full=args.full)
    out = _out_path(args, args.out)
    save_periodogram_binary(pg, out)
    if args.csv:
        save_periodogram_csv(pg, out + ".csv")
    print(f"wrote {out}")


def cmd_estimate(args):
    fld = load_field_binary(args.field)
    pg = periodogram(fld)
    model = SpectralModel(args.family, n_modes=args.modes, theta_box=args.theta_box)
    opts = EstimateOptions(loss_tol=args.loss_tol, max_evals=args.max_evals)
    fit = estimate(model, pg, opts)
    out = _out_path(args, args.out)
    fit.to_json(out)
    print(f"theta_hat = {np.asarray(fit.theta_hat)} loss = {fit.loss_at_min:.6f} -> {out}")


def cmd_cox_moments(args):
    fld = load_field_binary(args.field)
    phi = TestFunction(_read_numeric_csv(args.phi, ndmin=1).ravel())
    rect = args.rect
    payload = {
        "rect": [rect.a1, rect.b1, rect.a2, rect.b2],
        "area": rect.area,
        "conditional_mean": ls_count_predictor(fld, rect, phi),
    }
    payload["sampled_count"] = sample_counts(fld, rect, phi, args.seed)
    if args.family:
        model = SpectralModel(args.family, n_modes=fld.n_modes)
        cmap = cov_map(model, args.theta, phi, (args.max_lag, args.max_lag))
        mean, var = count_moments(rect, cmap)
        payload["model_mean"], payload["model_variance"] = mean, var
    out = _out_path(args, args.out)
    with open(out, "w") as fh:
        json.dump(payload, fh, indent=2)
    print(f"wrote {out}")


def _read_estimate(path):
    # (family, theta_hat) of an estimate JSON written by the estimate command
    try:
        with open(path) as fh:
            est = json.load(fh)
        return est["family"], np.array(est["theta_hat"], dtype=float)
    except (ValueError, KeyError, TypeError) as exc:  # ValueError covers JSONDecodeError
        raise FileFormatError(f"{path}: not an estimate JSON ({exc!r})") from None


def cmd_predict(args):
    fld = load_field_binary(args.field)
    family, theta_hat = _read_estimate(args.theta)
    pred = predict_field(fld, SpectralModel(family, n_modes=fld.n_modes), theta_hat)
    out = _out_path(args, args.out)
    save_field_binary(pred, out)
    print(f"wrote {out}")


def _pipeline_config(args):
    return PipelineConfig(lattice_dims=args.lattice, n_time_nodes=args.time_nodes,
                          n_knots=args.knots, trend_degree=args.trend_degree,
                          n_modes=args.modes,
                          cumulate=not getattr(args, "no_cumulate", False))


def _load_or_make_series(args):
    if args.data:
        return load_series_csv(args.data), None
    series, truth = make_synthetic_counts(lattice_dims=args.lattice, n_modes=args.modes,
                                          seed=args.seed)
    return series, truth


def cmd_pipeline(args):
    series, truth = _load_or_make_series(args)
    cfg = _pipeline_config(args)
    res = run_pipeline(series, cfg)
    out = _out_path(args, args.out)
    payload = {
        "estimation_skipped": res.estimation_skipped,
        "theta_hat": None if res.theta_hat is None else np.asarray(res.theta_hat).tolist(),
        "lambda_hat": None if res.lambda_hat is None else res.lambda_hat.tolist(),
        "mode_scale": res.mode_scale.tolist(),
        "stage_seconds": {k: v for k, v in res.diagnostics.items() if isinstance(v, float)},
    }
    if truth is not None:
        payload["lambda_true"] = truth.lambda_true.tolist()
    with open(out, "w") as fh:
        json.dump(payload, fh, indent=2)
    print(f"wrote {out}")


def cmd_cross_validate(args):
    series, _ = _load_or_make_series(args)
    cfg = _pipeline_config(args)
    result = run_cross_validation(series, cfg, max_folds=args.folds,
                                  radius=args.radius, seed=args.seed)
    out = _out_path(args, args.out)
    with open(out, "w") as fh:
        json.dump({"l1": result["l1"], "folds": result["folds"],
                   "fold_l1": result["fold_l1"],
                   "cvfare": result["cvfare"].tolist()}, fh, indent=2)
    print(f"CVFARE L1 = {result['l1']:.6f} over {len(result['folds'])} folds -> {out}")


def cmd_experiment(args):
    sizes = tuple(int(s) for s in args.grid_sizes.split(","))
    cfg = ExperimentConfig(family=args.family, theta_true=args.theta, grid_sizes=sizes,
                           replicates=args.replicates, n_modes=args.modes,
                           burn_in=args.burn_in, seed=args.seed)
    table = run_experiment(cfg, threads=args.threads)
    out = _out_path(args, args.out)
    table.to_csv(out)
    for r in table.rows:
        print(f"N={r['N']} comp={r['component']} mean={r['mean']:.4f} "
              f"sd={r['sd']:.4f} mse={r['mse']:.5f} failed={r['n_failed']}")
    print(f"wrote {out}")


_COMMANDS = {
    "simulate": cmd_simulate,
    "periodogram": cmd_periodogram,
    "estimate": cmd_estimate,
    "cox-moments": cmd_cox_moments,
    "predict": cmd_predict,
    "pipeline": cmd_pipeline,
    "cross-validate": cmd_cross_validate,
    "experiment": cmd_experiment,
}


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.config:
        args = _apply_config(args, _read_config(args.config), argv)
    if args.command == "cox-moments" and (args.family is None) != (args.theta is None):
        parser.error("cox-moments: --family and --theta go together")
    return _COMMANDS[args.command](args)


if __name__ == "__main__":
    main()
