"""Command-line interface: estimate from CSV files, evaluate bounds,
run simulation studies, emit versioned JSON reports.

Exit codes: 0 success, 2 configuration/validation error, 3 estimation
failure, 4 incomplete simulation report.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import fields
from typing import Optional

import numpy as np

from . import __version__
from .datamodel import read_one_sample_csv, read_two_sample_csv
from .errors import ReportIncomplete, SsateError
from .estimators import NuisanceConfig, check_run_args, estimate_os_eff, estimate_ts_eff
from .oracle import dgp_from_dict, oracle_bounds
from .simharness import (
    McConfig,
    Misspec,
    run_infinite_unlabeled_study,
    run_mc,
)

SCHEMA = "ssate/v1"

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_ESTIMATION = 3
EXIT_INCOMPLETE = 4


def _emit(command: str, config: dict, report: dict, output: Optional[str]):
    envelope = {
        "schema": SCHEMA,
        "version": __version__,
        "command": command,
        "config": config,
        "report": report,
    }
    text = json.dumps(_finite(envelope), sort_keys=True, indent=2, allow_nan=False)
    if output:
        try:
            with open(output, "w") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            raise SsateError(f"cannot write --output: {exc}") from None
    else:
        sys.stdout.write(text + "\n")


def _finite(obj):
    """``obj`` with every non-finite float replaced by None, so the JSON is strict."""
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {key: _finite(val) for key, val in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_finite(val) for val in obj]
    return obj


def _load_config_file(path: Optional[str]) -> dict:
    if not path:
        return {}
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except (OSError, ValueError) as exc:
        raise SsateError(f"config file {path}: {exc}") from None
    if not isinstance(cfg, dict):
        raise SsateError("config file must hold a JSON object")
    return cfg


# parsed arguments that are not settings of the run
_NOT_SETTINGS = ("command", "func", "config", "output")

# the settings a command echoes with these values when none is given
_RUN_DEFAULTS = {"folds": 2, "seed": 0, "level": 0.95}
_DEFAULTS = {"estimate-os": _RUN_DEFAULTS, "estimate-ts": _RUN_DEFAULTS,
             "bounds": {"grid_step": 0.01}}

# the JSON type of every config key a command reads; that of an object is
# the table of its own keys, and it takes no other. "dgp", a path for bounds
# and an object for simulate, is checked by those commands
_TYPES = {
    **dict.fromkeys(("input", "labeled", "unlabeled", "riesz_mode", "study", "scenario",
                     "estimator"), str),
    **dict.fromkeys(("folds", "seed", "degree", "reps", "threads", "n", "m", "l",
                     "n_labeled", "ratio"), int),
    **dict.fromkeys(("level", "ridge_lambda", "clip_eps", "clip_c", "beta-star", "beta_star",
                     "alpha", "grid_step"), float),
}
_TYPES["nuisance"] = {f.name: _TYPES[f.name] for f in fields(NuisanceConfig)}
_TYPES["hook"] = {"kind": str, "c": float}
_TYPE_NAMES = {str: "a string", int: "an integer", float: "a number"}

# the keys a command reads besides its options' dests; simulate's depend on
# the study, and cmd_simulate checks them
_NUISANCE_KEYS = {f.name for f in fields(NuisanceConfig)}
_MORE_KEYS = {"estimate-os": _NUISANCE_KEYS, "estimate-ts": _NUISANCE_KEYS, "bounds": set()}

# the config keys each simulate study reads
_STUDY_RUN = ("dgp", "study", "scenario", "nuisance", "folds", "seed", "level", "reps",
              "beta_star", "threads")
_STUDY_KEYS = {"mc": {*_STUDY_RUN, "estimator", "hook", "n", "m", "l"},
               "infinite-unlabeled": {*_STUDY_RUN, "n_labeled", "ratio"}}


def _merged(args: argparse.Namespace) -> dict:
    """The command's defaults, the --config file on them, then every option
    given on the command line on top; a null, at any depth, is an absent key."""
    flags = {key: val for key, val in vars(args).items() if key not in _NOT_SETTINGS}
    return {**_DEFAULTS.get(args.command, {}),
            **_without_nulls(_load_config_file(args.config)), **_without_nulls(flags)}


def _without_nulls(cfg: dict) -> dict:
    return {key: _without_nulls(val) if isinstance(val, dict) else val
            for key, val in cfg.items() if val is not None}


def _typed(key: str, val, want=None):
    """``val`` checked against ``want``, a type or a table of an object's
    keys, by default the key's in ``_TYPES``: a number as an int or float,
    an object key by key, any value of an unknown key as it is. A bool, a
    string for a number, a fraction for an integer or a key an object's
    table lacks is a config error rather than being coerced or dropped."""
    want = want or _TYPES.get(key)
    if type(val) in (int, float) and (want is float or want is int and val % 1 == 0):
        return want(val)
    if isinstance(want, dict) and isinstance(val, dict):
        for inner in val:
            if inner not in want:
                raise SsateError(f"config {key!r} has no key {inner!r}")
        return {inner: _typed(inner, v, want[inner]) for inner, v in val.items()}
    if want is None or want is str and isinstance(val, str):
        return val
    name = "a JSON object" if isinstance(want, dict) else _TYPE_NAMES[want]
    raise SsateError(f"config {key!r} must be {name}, got {val!r}")


def _nuisance_from(cfg: dict) -> NuisanceConfig:
    kwargs = {f.name: cfg[f.name] for f in fields(NuisanceConfig) if f.name in cfg}
    try:
        return NuisanceConfig(**kwargs)
    except ValueError as exc:
        raise SsateError(f"bad nuisance config: {exc}") from None


# ---------------------------------------------------------------------------
# Commands: each takes the checked config and returns the report, or for an
# estimate a call that makes it. A bad setting or an unreadable input raises;
# ``main`` turns that into the exit code.
# ---------------------------------------------------------------------------

def cmd_estimate_os(cfg: dict):
    if not cfg.get("input"):
        raise SsateError("an input CSV is required (--input)")
    data = read_one_sample_csv(cfg["input"])
    nuisance = _nuisance_from(cfg)
    check_run_args(cfg["folds"], cfg["level"], data.n)
    return lambda: estimate_os_eff(data, n_folds=cfg["folds"], seed=cfg["seed"],
                                   config=nuisance, level=cfg["level"]).to_dict()


def cmd_estimate_ts(cfg: dict):
    if not cfg.get("labeled") or not cfg.get("unlabeled"):
        raise SsateError("labeled and unlabeled CSVs are required")
    if "beta-star" not in cfg:
        raise SsateError("--beta-star is required (usage: estimate-ts "
                         "--labeled L.csv --unlabeled U.csv --beta-star B)")
    data = read_two_sample_csv(cfg["labeled"], cfg["unlabeled"])
    nuisance = _nuisance_from(cfg)
    beta = cfg["beta-star"]
    check_run_args(cfg["folds"], cfg["level"], min(data.m, data.l), beta, nuisance.riesz_mode)
    return lambda: estimate_ts_eff(data, beta_star=beta, n_folds=cfg["folds"], seed=cfg["seed"],
                                   config=nuisance, level=cfg["level"]).to_dict()


def cmd_bounds(cfg: dict):
    path = _typed("dgp", cfg.get("dgp", ""), str)
    if not path:
        raise SsateError("a DGP spec JSON file is required (--dgp)")
    with open(path) as fh:
        spec = json.load(fh)
    report = oracle_bounds(dgp_from_dict(spec), alpha=cfg.get("alpha"), grid_step=cfg["grid_step"])
    v_ts = {str(k): v for k, v in report.v_ts.items()} if report.v_ts else None
    return {**vars(report), "v_ts": v_ts}


def cmd_simulate(cfg: dict):
    study = cfg.get("study", "mc")
    if study not in _STUDY_KEYS:
        raise SsateError(f"unknown study {study!r}")
    for key in cfg:
        if key not in _STUDY_KEYS[study]:
            raise SsateError(f"config {key!r} is not read by the {study} study")
    if not cfg.get("dgp"):
        raise SsateError("the config file must carry an inline 'dgp' spec")
    dgp = dgp_from_dict(cfg["dgp"])
    # seed, level and reps, when not given, take the study's own defaults
    run = {"nuisance": _nuisance_from(cfg.get("nuisance", {})), "n_folds": cfg.get("folds", 2),
           "scenario": cfg.get("scenario", "one-sample"),
           **{key: cfg[key] for key in ("seed", "level", "reps", "beta_star") if key in cfg}}
    if study == "infinite-unlabeled":  # whose n_labeled has no default: None is rejected
        report = run_infinite_unlabeled_study(dgp, _typed("n_labeled", cfg.get("n_labeled")),
                                              ratio=cfg.get("ratio", 100),
                                              threads=cfg.get("threads"), **run)
    else:
        hook = cfg.get("hook")
        if hook is not None and "kind" not in hook:
            raise SsateError("config 'hook' needs a 'kind'")
        sizes = {key: cfg[key] for key in ("n", "m", "l") if key in cfg}
        mc = McConfig(dgp=dgp, estimator=cfg.get("estimator", "os-eff"),
                      hook=None if hook is None else Misspec(**hook), **run, **sizes)
        report = run_mc(mc, threads=cfg.get("threads"))
    return report.to_dict()


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def _add_common(sub: argparse.ArgumentParser, seeded: bool = True):
    """--config and --output, and for a command that reads them --seed and --level."""
    sub.add_argument("--config", help="JSON config file; flags override its values")
    sub.add_argument("--output", help="write the JSON report here instead of stdout")
    if seeded:
        sub.add_argument("--seed", type=int)
        sub.add_argument("--level", type=float)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ssate",
        description="Semi-supervised ATE estimation with auxiliary unlabeled covariates",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    # each option's dest is its config key
    def estimator_parser(name: str, summary: str, func):
        p = sub.add_parser(name, help=summary)
        _add_common(p)
        p.add_argument("--folds", type=int)
        p.add_argument("--degree", type=int)
        p.add_argument("--ridge-lambda", type=float)
        p.add_argument("--clip-eps", type=float)
        p.set_defaults(func=func)
        return p

    p = estimator_parser("estimate-os", "one-sample efficient estimate from CSV", cmd_estimate_os)
    p.add_argument("--input", help="one-sample CSV (x1..xk,o,d,y with NA)")
    p.add_argument("--riesz-mode", choices=["mle-g", "ls-riesz", "kl-riesz"])

    p = estimator_parser("estimate-ts", "two-sample efficient estimate from CSVs", cmd_estimate_ts)
    p.add_argument("--labeled", help="labeled CSV (x1..xk,d,y)")
    p.add_argument("--unlabeled", help="unlabeled CSV (x1..xk)")
    p.add_argument("--beta-star", type=float, dest="beta-star")

    p = sub.add_parser("bounds", help="closed-form efficiency bounds for a DGP spec")
    _add_common(p, seeded=False)
    p.add_argument("--dgp", help="DGP spec JSON file")
    p.add_argument("--alpha", type=float, help="labeled fraction for the two-sample bounds")
    p.add_argument("--grid-step", type=float)
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("simulate", help="Monte Carlo study from a config file")
    _add_common(p)
    p.add_argument("--reps", type=int)
    p.add_argument("--threads", type=int,
                   help="worker processes; SSATE_THREADS honored when absent")
    p.set_defaults(func=cmd_simulate)

    return parser


def _fail(command: str, message, code: int) -> int:
    print(f"{command}: {message}", file=sys.stderr)
    return code


def main(argv=None) -> int:
    """Run one command; the only place where a failure becomes an exit code."""
    args = build_parser().parse_args(argv)
    incomplete = None
    try:
        cfg = _merged(args)
        if args.command in _MORE_KEYS:
            reads = _MORE_KEYS[args.command] | (set(vars(args)) - set(_NOT_SETTINGS))
            for key in cfg:
                if key not in reads:
                    raise SsateError(f"config {key!r} is not read by {args.command}")
        report = args.func({key: _typed(key, val) for key, val in cfg.items()})
    except ReportIncomplete as exc:  # a study: emit the partial report, then fail
        incomplete = exc
        partial = exc.partial_report.to_dict() if exc.partial_report else None
        report = {"error": str(exc), "partial": partial}
    except (ValueError, TypeError, KeyError, OSError, OverflowError) as exc:  # SsateError too
        return _fail(args.command, exc, EXIT_CONFIG)
    if callable(report):  # the estimator call: only its SsateError is an estimation failure
        try:
            with np.errstate(all="ignore"):  # a non-finite fit fails below, in one line
                report = report()
        except SsateError as exc:
            return _fail(args.command, f"estimation failed: {exc}", EXIT_ESTIMATION)
    # a study's inline DGP spec is not echoed
    echo = {key: val for key, val in cfg.items() if key != "dgp" or args.command != "simulate"}
    try:
        _emit(args.command, echo, report, args.output)
    except SsateError as exc:  # an unwritable --output
        return _fail(args.command, exc, EXIT_CONFIG)
    return EXIT_OK if incomplete is None else _fail(args.command, incomplete, EXIT_INCOMPLETE)


if __name__ == "__main__":
    sys.exit(main())
