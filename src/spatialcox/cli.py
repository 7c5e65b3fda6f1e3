"""Command-line interface.

Subcommands: simulate, periodogram, estimate, cox-moments, predict, pipeline,
cross-validate, experiment.  Each writes ``--out``, under ``--out-dir`` (made before
the command runs) if given; JSON outputs are strict (no NaN or Infinity).  Every flag
can also be supplied through ``--config FILE`` of ``key = value`` lines (keys match the
long flag names with dashes or underscores); they become parser defaults, so each value
goes through its flag's type and explicit flags win.  A line without ``=``, or a key
naming no flag of the top-level parser or of the chosen subcommand, is a usage error, and
so is an empty ``--out``, before the command runs.
"""

from __future__ import annotations

import argparse
import json
import os

import numpy as np

from . import __version__
from .basis import BasisSpec
from .cox import (BorelRect, TestFunction, cov_map, count_moments, ls_count_predictor,
                  predict_field, sample_counts)
from .errors import FileFormatError, check_int
from .experiment import ExperimentConfig, run_experiment
from .field import (_read_numeric_csv, _write_json, load_field_binary, save_field_binary,
                    save_field_csv)
from .pipeline import (PipelineConfig, load_series_csv, make_synthetic_counts,
                       run_cross_validation, run_pipeline)
from .sarh import FAMILIES, Sarh1Params, SpectralModel, family_jacobian, simulate_sarh1
from .spectral import periodogram, save_periodogram_binary, save_periodogram_csv
from .whittle import estimate


def _parse_dims(text):
    a, b = text.lower().split("x")
    return int(a), int(b)


def _parse_box(text):
    # "0.7:4" or "0.7:1.3,1.3:1.9,..." per coordinate
    return np.array([[float(lo), float(hi)] for lo, hi in (p.split(":") for p in text.split(","))])


def _parse_rect(text):
    part1, part2 = text.split("x")
    a1, b1 = (int(v) for v in part1.split(":"))
    a2, b2 = (int(v) for v in part2.split(":"))
    return BorelRect(a1, b1, a2, b2)


def _theta_vector(text):
    return np.array([float(v) for v in text.split(",")])


def _non_negative_int(text):
    return check_int(int(text), "seed", 0)


def _int_list(text):
    return tuple(int(v) for v in text.split(","))


def _read_config(path, parser):
    values = {}
    with open(path) as fh:
        for line in filter(None, (text.split("#", 1)[0].strip() for text in fh)):
            key, eq, val = line.partition("=")
            if not eq:  # read as key = "", it would turn a store_true flag off
                parser.error(f"{path}: config line {line!r} is not key = value")
            values[key.strip().replace("-", "_")] = val.strip()
    return values


def _options(parser):
    # the config keys of a parser: its options that hold a value (not --help, --version, --config)
    return {a.dest: a for a in parser._actions
            if a.option_strings and a.default is not argparse.SUPPRESS}


def _set_config_defaults(parsers, config_values):
    # config values become defaults, converted by the flag's type and beaten by an
    # explicit flag, of every parser owning the flag; they satisfy required=True
    for action in (a for p in parsers for k, a in _options(p).items() if k in config_values):
        raw = config_values[action.dest]
        store_true = isinstance(action.default, bool)  # takes a truth word
        action.default = raw.lower() in ("1", "true", "yes") if store_true else raw
        action.required = False


def _command_parser(func, **kwargs):
    # a subcommand's parser, naming its handler where it is built
    parser = argparse.ArgumentParser(allow_abbrev=False, **kwargs)
    parser.set_defaults(func=func)
    return parser


def build_parser():
    # abbreviated long flags are refused, so a flag is spelled one way: its full
    # name, the same on the command line as in a --config file
    p = argparse.ArgumentParser(prog="spatialcox", allow_abbrev=False,
                                description="Spatial Cox / SARH(1) spectral toolbox")
    p.add_argument("--version", action="version", version=__version__)
    p.add_argument("--config", default=argparse.SUPPRESS, help="key = value file of flags")
    p.add_argument("--seed", type=_non_negative_int, default=0)
    p.add_argument("--threads", type=int, default=1)
    p.add_argument("--out-dir", default="", help="directory for output artifacts")
    sub = p.add_subparsers(dest="command", required=True, parser_class=_command_parser)

    s = sub.add_parser("simulate", func=cmd_simulate, help="generate a SARH(1) coefficient field")
    s.add_argument("--family", default="example1", choices=FAMILIES)
    s.add_argument("--theta", type=_theta_vector, default=np.array([1.0]))
    s.add_argument("--dims", type=_parse_dims, default=(200, 200))
    s.add_argument("--modes", type=int, default=10)
    s.add_argument("--support-length", type=float, default=1.0)
    s.add_argument("--out", default="field.bin")
    s.add_argument("--csv", action="store_true", help="also write CSV next to the binary")

    s = sub.add_parser("periodogram", func=cmd_periodogram, help="periodogram of a stored field")
    s.add_argument("--field", required=True)
    s.add_argument("--full", action="store_true", help="store the full cross block")
    s.add_argument("--out", default="pgram.bin")
    s.add_argument("--csv", action="store_true")

    s = sub.add_parser("estimate", func=cmd_estimate, help="Whittle estimation from a stored field")
    s.add_argument("--family", default="example1", choices=FAMILIES)
    s.add_argument("--field", required=True)
    s.add_argument("--modes", type=int, default=10)
    s.add_argument("--theta-box", type=_parse_box, default=None)
    s.add_argument("--out", default="est.json")

    s = sub.add_parser("cox-moments", func=cmd_cox_moments,
                       help="count moments over a lattice rectangle")
    s.add_argument("--field", required=True)
    s.add_argument("--phi", required=True, help="CSV with one coefficient per line")
    s.add_argument("--rect", type=_parse_rect, required=True, help="a1:b1xa2:b2")
    s.add_argument("--family", default=None, help="model family for unconditional moments")
    s.add_argument("--theta", type=_theta_vector, default=None)
    s.add_argument("--out", default="moments.json")

    s = sub.add_parser("predict", func=cmd_predict, help="plug-in one-step field prediction")
    s.add_argument("--field", required=True)
    s.add_argument("--theta", required=True, help="estimate JSON from the estimate command")
    s.add_argument("--out", default="pred.bin")

    pipe = sub.add_parser("pipeline", func=cmd_pipeline,
                          help="run the estimation pipeline on site series")
    cv = sub.add_parser("cross-validate", func=cmd_cross_validate, help="leave-site-out CVFARE")
    cfg = PipelineConfig()
    for s in (pipe, cv):
        s.add_argument("--data", default=None, help="CSV site_id,lon,lat,time,value; "
                                                    "omit to run on synthetic data")
        s.add_argument("--lattice", type=_parse_dims, default=cfg.lattice_dims)
        s.add_argument("--time-nodes", type=int, default=cfg.n_time_nodes)
        s.add_argument("--knots", type=int, default=cfg.n_knots)
        s.add_argument("--trend-degree", type=int, default=cfg.trend_degree)
        s.add_argument("--modes", type=int, default=cfg.n_modes)
        s.add_argument("--no-cumulate", action="store_true")
    pipe.add_argument("--out", default="pipeline.json")
    cv.add_argument("--folds", type=int, default=12)
    cv.add_argument("--radius", type=float, default=0.0)
    cv.add_argument("--out", default="cvfare.json")

    s = sub.add_parser("experiment", func=cmd_experiment, help="Monte Carlo consistency table")
    s.add_argument("--family", default="example1", choices=FAMILIES)
    s.add_argument("--theta", type=_theta_vector, default=np.array([1.0]))
    s.add_argument("--grid-sizes", type=_int_list, default="100,150,200")
    s.add_argument("--replicates", type=int, default=30)
    s.add_argument("--modes", type=int, default=10)
    s.add_argument("--out", default="experiment.csv")
    return p


def cmd_simulate(args):
    params = Sarh1Params(args.family, args.theta, args.modes)
    basis = BasisSpec(support_length=args.support_length, n_modes=args.modes)
    fld = simulate_sarh1(params, args.dims, seed=args.seed, basis=basis)
    save_field_binary(fld, args.out)
    if args.csv:
        save_field_csv(fld, args.out + ".csv")
    print(f"wrote {args.out} ({args.dims[0]}x{args.dims[1]} sites, {args.modes} modes)")


def cmd_periodogram(args):
    fld = load_field_binary(args.field)
    pg = periodogram(fld, full=args.full)
    save_periodogram_binary(pg, args.out)
    if args.csv:
        save_periodogram_csv(pg, args.out + ".csv")
    print(f"wrote {args.out}")


def cmd_estimate(args):
    model = SpectralModel(args.family, n_modes=args.modes, theta_box=args.theta_box)
    fit = estimate(model, load_field_binary(args.field))
    fit.to_json(args.out)
    print(f"theta_hat = {np.asarray(fit.theta_hat)} loss = {fit.loss_at_min:.6f} -> {args.out}")


def cmd_cox_moments(args):
    fld = load_field_binary(args.field)
    phi = _read_numeric_csv(args.phi)
    if phi.shape[1] != 1:
        raise FileFormatError(f"{args.phi}: expected one coefficient per line, "
                              f"got {phi.shape[1]} columns")
    phi = TestFunction(phi[:, 0])
    rect = args.rect
    payload = {"rect": [rect.a1, rect.b1, rect.a2, rect.b2], "area": rect.area,
               "conditional_mean": ls_count_predictor(fld, rect, phi),
               "sampled_count": sample_counts(fld, rect, phi, args.seed)}
    if args.family:
        # the moments read exactly the lags B - B
        model = SpectralModel(args.family, n_modes=fld.n_modes)
        cmap = cov_map(model, args.theta, phi, (rect.b1 - rect.a1, rect.b2 - rect.a2))
        mean, var = count_moments(rect, cmap)
        payload["model_mean"], payload["model_variance"] = mean, var
    _write_json(args.out, payload)
    print(f"wrote {args.out}")


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
    save_field_binary(pred, args.out)
    print(f"wrote {args.out}")


def _pipeline_inputs(args):
    # (config, series, truth); the truth is None unless the series is synthetic
    cfg = PipelineConfig(lattice_dims=args.lattice, n_time_nodes=args.time_nodes,
                         n_knots=args.knots, trend_degree=args.trend_degree,
                         n_modes=args.modes, cumulate=not args.no_cumulate)
    if args.data:
        return cfg, load_series_csv(args.data), None
    return cfg, *make_synthetic_counts(lattice_dims=args.lattice, n_modes=args.modes,
                                       seed=args.seed)


def cmd_pipeline(args):
    cfg, series, truth = _pipeline_inputs(args)
    res = run_pipeline(series, cfg)
    payload = {
        "estimation_skipped": res.estimation_skipped,
        "theta_hat": None if res.theta_hat is None else np.asarray(res.theta_hat).tolist(),
        "theta_unread": np.flatnonzero(~family_jacobian("realdata_pmf", None, cfg.n_modes)
                                       .any(axis=(0, 1))).tolist(),
        "lambda_hat": None if res.lambda_hat is None else res.lambda_hat.tolist(),
        "mode_scale": res.mode_scale.tolist(),
        "loss_at_min": None if res.fit is None else res.fit.loss_at_min,
        "stage_seconds": {k: v for k, v in res.diagnostics.items() if isinstance(v, float)},
    }
    if truth is not None:
        payload["lambda_true"] = truth.lambda_true.tolist()
    _write_json(args.out, payload)
    print(f"wrote {args.out}")


def cmd_cross_validate(args):
    cfg, series, _ = _pipeline_inputs(args)
    result = run_cross_validation(series, cfg, max_folds=args.folds,
                                  radius=args.radius, seed=args.seed)
    _write_json(args.out, {"l1": result["l1"], "folds": result["folds"],
                           "fold_l1": result["fold_l1"], "cvfare": result["cvfare"].tolist()})
    print(f"CVFARE L1 = {result['l1']:.6f} over {len(result['folds'])} folds -> {args.out}")


def cmd_experiment(args):
    cfg = ExperimentConfig(family=args.family, theta_true=args.theta,
                           grid_sizes=args.grid_sizes, replicates=args.replicates,
                           n_modes=args.modes, seed=args.seed)
    table = run_experiment(cfg, threads=args.threads)
    table.to_csv(args.out)
    for r in table.rows:
        print(f"N={r['N']} comp={r['component']} mean={r['mean']:.4f} "
              f"sd={r['sd']:.4f} mse={r['mse']:.5f} failed={r['n_failed']}")
    print(f"wrote {args.out}")


def main(argv=None):
    parser = build_parser()
    # --config is read before the full parse, so that it can supply required flags
    pre = argparse.ArgumentParser(add_help=False, allow_abbrev=False)
    pre.add_argument("--config")
    config = pre.parse_known_args(argv)[0].config
    config_values = _read_config(config, parser) if config else {}
    subs = next(a for a in parser._actions if a.dest == "command").choices
    _set_config_defaults([parser, *subs.values()], config_values)
    args = parser.parse_args(argv)
    known = _options(parser).keys() | _options(subs[args.command]).keys()
    for key in (k for k in config_values if k not in known):
        parser.error(f"{config}: config key {key!r} does not match any flag of {args.command}")
    if args.command == "cox-moments" and (args.family is None) != (args.theta is None):
        parser.error("cox-moments: --family and --theta go together")
    if not args.out:  # from --out '' or a config line out =
        parser.error(f"{args.command}: --out must name a file")
    if args.out_dir:  # every subcommand writes its --out under --out-dir
        os.makedirs(args.out_dir, exist_ok=True)
        args.out = os.path.join(args.out_dir, args.out)
    return args.func(args)


if __name__ == "__main__":
    main()
