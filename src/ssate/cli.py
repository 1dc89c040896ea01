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
from typing import NamedTuple, Optional

import numpy as np

from . import __version__
from .datamodel import read_one_sample_csv, read_two_sample_csv
from .errors import ReportIncomplete, SsateError
from .estimators import (RIESZ_MODES, NuisanceConfig, check_run_args, estimate_os_eff,
                         estimate_ts_eff)
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


def _read_json(what: str, path: str):
    """The JSON value in the file at ``path``; a file that cannot be read or decoded is a
    config error that names it."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:  # ValueError covers bad JSON and undecodable bytes
        raise SsateError(f"{what} {path}: {exc}") from None


def _load_config_file(path: Optional[str]) -> dict:
    if not path:
        return {}
    cfg = _read_json("config file", path)
    if not isinstance(cfg, dict):
        raise SsateError("config file must hold a JSON object")
    return cfg


class _Key(NamedTuple):
    type: object  # str, int, float, dict for any object, or the table of an object's keys
    default: object = None  # what the envelope's config echoes when the key is not given


# The keys each command reads, and each simulate study; a key its table lacks is
# one it does not read. simulate's own table holds both studies' keys, so each
# key it is given is type-checked before its study is known.
_NUISANCE = {"degree": _Key(int), "ridge_lambda": _Key(float), "clip_eps": _Key(float),
             "clip_c": _Key(float), "riesz_mode": _Key(str)}
_ESTIMATE = {"seed": _Key(int, 0), "level": _Key(float, 0.95), "folds": _Key(int, 2), **_NUISANCE}
_RUN = {"seed": _Key(int), "level": _Key(float), "reps": _Key(int), "threads": _Key(int),
        "folds": _Key(int), "dgp": _Key(dict), "study": _Key(str), "scenario": _Key(str),
        "nuisance": _Key(_NUISANCE), "beta_star": _Key(float)}
_STUDIES = {"mc": {**_RUN, "estimator": _Key(str), "n": _Key(int), "m": _Key(int),
                   "l": _Key(int), "hook": _Key({"kind": _Key(str), "c": _Key(float)})},
            "infinite-unlabeled": {**_RUN, "n_labeled": _Key(int), "ratio": _Key(int)}}
_KEYS = {"estimate-os": {**_ESTIMATE, "input": _Key(str)},
         "estimate-ts": {**_ESTIMATE, "labeled": _Key(str), "unlabeled": _Key(str),
                         "beta-star": _Key(float)},
         "bounds": {"dgp": _Key(str), "alpha": _Key(float), "grid_step": _Key(float, 0.01)},
         "simulate": {**_STUDIES["mc"], **_STUDIES["infinite-unlabeled"]}}
_TYPE_NAMES = {str: "a string", int: "an integer", float: "a number", dict: "a JSON object"}


def _merged(args: argparse.Namespace) -> dict:
    """The command's defaults, the --config file on them, then every option given
    on the command line on top; a null, at any depth, is an absent key."""
    keys = _KEYS[args.command]
    return {**{key: k.default for key, k in keys.items() if k.default is not None},
            **_without_nulls(_load_config_file(args.config)),
            **{key: val for key, val in vars(args).items() if key in keys and val is not None}}


def _checked(command: str, cfg: dict) -> dict:
    """``cfg`` with every key type-checked; then a key the command, or its
    simulate study, does not read is a config error."""
    keys = _KEYS[command]
    cfg = {key: _typed(key, val, keys[key].type) if key in keys else val
           for key, val in cfg.items()}
    reads, reader = keys, command
    if command == "simulate":
        study = cfg.get("study", "mc")
        if study not in _STUDIES:
            raise SsateError(f"unknown study {study!r}")
        reads, reader = _STUDIES[study], f"the {study} study"
    for key in cfg:
        if key not in reads:
            raise SsateError(f"config {key!r} is not read by {reader}")
    return cfg


def _without_nulls(cfg: dict) -> dict:
    return {key: _without_nulls(val) if isinstance(val, dict) else val
            for key, val in cfg.items() if val is not None}


def _typed(key: str, val, want):
    """``val`` checked against ``want``, a key's type: a number as an int or
    float, an object key by key against the table of its keys. A bool, a string
    for a number, a fraction for an integer, an integer past the float range or a
    key an object's table lacks is a config error rather than being coerced or
    dropped."""
    if type(val) in (int, float) and (want is float or want is int and val % 1 == 0):
        try:
            return want(val)
        except OverflowError:
            raise SsateError(f"config {key!r} is too large for a float") from None
    if isinstance(want, dict) and isinstance(val, dict):
        for inner in val:
            if inner not in want:
                raise SsateError(f"config {key!r} has no key {inner!r}")
        return {inner: _typed(inner, v, want[inner].type) for inner, v in val.items()}
    if want in (str, dict) and isinstance(val, want):
        return val
    name = "a JSON object" if isinstance(want, dict) else _TYPE_NAMES[want]
    raise SsateError(f"config {key!r} must be {name}, got {val!r}")


def _nuisance_from(cfg: dict) -> NuisanceConfig:
    kwargs = {key: cfg[key] for key in _NUISANCE if key in cfg}
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
    check_run_args(cfg["folds"], cfg["level"], data.n, cfg["seed"])
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
    check_run_args(cfg["folds"], cfg["level"], min(data.m, data.l), cfg["seed"], beta,
                   nuisance.riesz_mode)
    return lambda: estimate_ts_eff(data, beta_star=beta, n_folds=cfg["folds"], seed=cfg["seed"],
                                   config=nuisance, level=cfg["level"]).to_dict()


def cmd_bounds(cfg: dict):
    path = cfg.get("dgp")
    if not path:
        raise SsateError("a DGP spec JSON file is required (--dgp)")
    dgp = dgp_from_dict(_read_json("DGP spec file", path))
    report = oracle_bounds(dgp, alpha=cfg.get("alpha"), grid_step=cfg["grid_step"])
    v_ts = {str(k): v for k, v in report.v_ts.items()} if report.v_ts else None
    return {**vars(report), "v_ts": v_ts}


def cmd_simulate(cfg: dict):
    if not cfg.get("dgp"):
        raise SsateError("the config file must carry an inline 'dgp' spec")
    dgp = dgp_from_dict(cfg["dgp"])
    # the study gets only the keys it was given; the rest take its own defaults
    run = {"n_folds" if key == "folds" else key: val for key, val in cfg.items()
           if key not in ("dgp", "study", "threads")}
    if "nuisance" in cfg:
        run["nuisance"] = _nuisance_from(cfg["nuisance"])
    if cfg.get("study") == "infinite-unlabeled":
        if "n_labeled" not in cfg:
            raise SsateError("an infinite-unlabeled study needs an 'n_labeled'")
        return run_infinite_unlabeled_study(dgp, threads=cfg.get("threads"), **run).to_dict()
    if "hook" in cfg:
        if "kind" not in cfg["hook"]:
            raise SsateError("config 'hook' needs a 'kind'")
        run["hook"] = Misspec(**cfg["hook"])
    return run_mc(McConfig(dgp=dgp, **run), threads=cfg.get("threads")).to_dict()


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ssate",
        description="Semi-supervised ATE estimation with auxiliary unlabeled covariates",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    estimate = ("seed", "level", "folds", "degree", "ridge_lambda", "clip_eps")
    extra = {"input": {"help": "one-sample CSV (x1..xk,o,d,y with NA)"},
             "riesz_mode": {"choices": RIESZ_MODES},
             "labeled": {"help": "labeled CSV (x1..xk,d,y)"},
             "unlabeled": {"help": "unlabeled CSV (x1..xk)"},
             "dgp": {"help": "DGP spec JSON file"},
             "alpha": {"help": "labeled fraction for the two-sample bounds"},
             "threads": {"help": "worker processes; SSATE_THREADS honored when absent"}}
    for name, summary, func, options in (
            ("estimate-os", "one-sample efficient estimate from CSV", cmd_estimate_os,
             (*estimate, "input", "riesz_mode")),
            ("estimate-ts", "two-sample efficient estimate from CSVs", cmd_estimate_ts,
             (*estimate, "labeled", "unlabeled", "beta-star")),
            ("bounds", "closed-form efficiency bounds for a DGP spec", cmd_bounds,
             ("dgp", "alpha", "grid_step")),
            ("simulate", "Monte Carlo study from a config file", cmd_simulate,
             ("seed", "level", "reps", "threads"))):
        p = sub.add_parser(name, help=summary)
        p.add_argument("--config", help="JSON config file; flags override its values")
        p.add_argument("--output", help="write the JSON report here instead of stdout")
        for key in options:  # each option sets its config key, and takes that key's type
            p.add_argument("--" + key.replace("_", "-"), dest=key, type=_KEYS[name][key].type,
                           **extra.get(key, {}))
        p.set_defaults(func=func)
    return parser


def _fail(command: str, message, code: int) -> int:
    print(f"{command}: {message}", file=sys.stderr)
    return code


def main(argv=None) -> int:
    """Run one command; the only place where a failure becomes an exit code."""
    args = build_parser().parse_args(argv)
    incomplete = None
    try:
        cfg = _merged(args)  # echoed as given; the command gets the checked copy
        report = args.func(_checked(args.command, cfg))
    except ReportIncomplete as exc:  # a study: emit the partial report, then fail
        incomplete = exc
        partial = exc.partial_report.to_dict() if exc.partial_report else None
        report = {"error": str(exc), "partial": partial}
    except (ValueError, TypeError, KeyError, OSError, OverflowError) as exc:  # SsateError too
        return _fail(args.command, exc, EXIT_CONFIG)
    except MemoryError as exc:  # a read or a study too large for the machine
        return _fail(args.command, f"out of memory: {exc}", EXIT_ESTIMATION)
    if callable(report):  # the estimator call: only its SsateError is an estimation failure
        try:
            with np.errstate(all="ignore"):  # a non-finite fit fails below, in one line
                report = report()
        except SsateError as exc:
            return _fail(args.command, f"estimation failed: {exc}", EXIT_ESTIMATION)
        except MemoryError as exc:
            return _fail(args.command, f"out of memory: {exc}", EXIT_ESTIMATION)
    # a study's inline DGP spec is not echoed
    echo = {key: val for key, val in cfg.items() if key != "dgp" or args.command != "simulate"}
    try:
        _emit(args.command, echo, report, args.output)
    except SsateError as exc:  # an unwritable --output
        return _fail(args.command, exc, EXIT_CONFIG)
    return EXIT_OK if incomplete is None else _fail(args.command, incomplete, EXIT_INCOMPLETE)


if __name__ == "__main__":
    sys.exit(main())
