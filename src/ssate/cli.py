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
from typing import Optional

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


def _merged(args: argparse.Namespace) -> dict:
    """The command's defaults, the --config file on them, then every option
    given on the command line on top."""
    flags = {key: val for key, val in vars(args).items()
             if val is not None and key not in _NOT_SETTINGS}
    return {**_DEFAULTS.get(args.command, {}), **_load_config_file(args.config), **flags}


def _number(cfg: dict, key: str, integral: bool = False, default=None):
    """cfg[key] as an int or float, or ``default``, if one is given, when the
    key is absent or null; bools, strings and fractions for an integral
    field are config errors rather than being coerced."""
    val = cfg.get(key)
    if val is None and default is not None:
        return default
    if type(val) not in (int, float) or (integral and not float(val).is_integer()):
        kind = "an integer" if integral else "a number"
        raise SsateError(f"config {key!r} must be {kind}, got {val!r}")
    return int(val) if integral else float(val)


def _object(cfg: dict, key: str) -> dict:
    """cfg[key], which must be a JSON object; {} when absent or null."""
    val = cfg.get(key)
    if val is not None and not isinstance(val, dict):
        raise SsateError(f"config {key!r} must be a JSON object, got {val!r}")
    return val or {}


def _nuisance_from(cfg: dict) -> NuisanceConfig:
    kwargs = {key: _number(cfg, key, key == "degree")
              for key in ("degree", "ridge_lambda", "clip_eps", "clip_c")
              if cfg.get(key) is not None}
    if cfg.get("riesz_mode") is not None:
        kwargs["riesz_mode"] = cfg["riesz_mode"]
    try:
        return NuisanceConfig(**kwargs)
    except ValueError as exc:
        raise SsateError(f"bad nuisance config: {exc}") from None


def _run_args(cfg: dict, n: int, beta_star: Optional[float] = None):
    """Checked (folds, seed, level); ``n`` is the size of the smallest sample."""
    folds, seed, level = (_number(cfg, "folds", True), _number(cfg, "seed", True),
                          _number(cfg, "level"))
    check_run_args(folds, level, n, beta_star)
    return folds, seed, level


# ---------------------------------------------------------------------------
# Commands: each takes the merged config and returns the config to echo and
# the report, or for an estimate a call that makes it. A bad setting or an
# unreadable input raises; ``main`` turns that into the exit code.
# ---------------------------------------------------------------------------

def cmd_estimate_os(cfg: dict):
    if not cfg.get("input"):
        raise SsateError("an input CSV is required (--input)")
    data = read_one_sample_csv(cfg["input"])
    nuisance = _nuisance_from(cfg)
    folds, seed, level = _run_args(cfg, data.n)
    return cfg, lambda: estimate_os_eff(data, n_folds=folds, seed=seed, config=nuisance,
                                        level=level).to_dict()


def cmd_estimate_ts(cfg: dict):
    if not cfg.get("labeled") or not cfg.get("unlabeled"):
        raise SsateError("labeled and unlabeled CSVs are required")
    if cfg.get("beta-star") is None:
        raise SsateError("--beta-star is required (usage: estimate-ts "
                         "--labeled L.csv --unlabeled U.csv --beta-star B)")
    data = read_two_sample_csv(cfg["labeled"], cfg["unlabeled"])
    nuisance = _nuisance_from(cfg)
    if nuisance.riesz_mode != "mle-g":  # the two-sample estimator has no Riesz mode
        raise SsateError(f"estimate-ts needs riesz_mode 'mle-g', got {nuisance.riesz_mode!r}")
    beta = _number(cfg, "beta-star")
    folds, seed, level = _run_args(cfg, min(data.m, data.l), beta)
    return cfg, lambda: estimate_ts_eff(data, beta_star=beta, n_folds=folds, seed=seed,
                                        config=nuisance, level=level).to_dict()


def cmd_bounds(cfg: dict):
    if not cfg.get("dgp"):
        raise SsateError("a DGP spec JSON file is required (--dgp)")
    with open(cfg["dgp"]) as fh:
        spec = json.load(fh)
    alpha = None if cfg.get("alpha") is None else _number(cfg, "alpha")
    report = oracle_bounds(dgp_from_dict(spec), alpha=alpha, grid_step=_number(cfg, "grid_step"))
    v_ts = {str(k): v for k, v in report.v_ts.items()} if report.v_ts else None
    return cfg, {**vars(report), "v_ts": v_ts}


def _study_echo(cfg: dict) -> dict:
    """A simulate config as echoed: without its inline DGP spec."""
    return {key: val for key, val in cfg.items() if key != "dgp"}


def cmd_simulate(cfg: dict):
    if not cfg.get("dgp"):
        raise SsateError("the config file must carry an inline 'dgp' spec")
    dgp = dgp_from_dict(cfg["dgp"])
    h = _object(cfg, "hook")
    hook = Misspec(kind=h["kind"], c=_number(h, "c", default=0.5)) if h else None
    nuisance = _nuisance_from(_object(cfg, "nuisance"))
    study = cfg.get("study", "mc")
    threads = None if cfg.get("threads") is None else _number(cfg, "threads", True)
    sizes = {key: _number(cfg, key, key != "beta_star")
             for key in ("n", "m", "l", "beta_star") if cfg.get(key) is not None}
    run = {"nuisance": nuisance, "seed": _number(cfg, "seed", True, 0),
           "n_folds": _number(cfg, "folds", True, 2),
           "level": _number(cfg, "level", default=0.95)}
    if study == "infinite-unlabeled":
        report = run_infinite_unlabeled_study(
            dgp,
            n_labeled=_number(cfg, "n_labeled", True),
            ratio=_number(cfg, "ratio", True, 100),
            reps=_number(cfg, "reps", True, 200),
            scenario=cfg.get("scenario", "one-sample"),
            beta_star=sizes.get("beta_star"),
            threads=threads,
            **run,
        )
    elif study == "mc":
        mc = McConfig(
            dgp=dgp,
            scenario=cfg.get("scenario", "one-sample"),
            estimator=cfg.get("estimator", "os-eff"),
            reps=_number(cfg, "reps", True, 100),
            hook=hook,
            **run,
            **sizes,
        )
        report = run_mc(mc, threads=threads)
    else:
        raise SsateError(f"unknown study {study!r}")
    return _study_echo(cfg), report.to_dict()


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
        echo, report = args.func(cfg)
    except ReportIncomplete as exc:  # a study: emit the partial report, then fail
        incomplete = exc
        partial = exc.partial_report.to_dict() if exc.partial_report else None
        echo, report = _study_echo(cfg), {"error": str(exc), "partial": partial}
    except (ValueError, TypeError, KeyError, OSError) as exc:  # SsateError is a ValueError
        return _fail(args.command, exc, EXIT_CONFIG)
    if callable(report):  # the estimator call: only its SsateError is an estimation failure
        try:
            report = report()
        except SsateError as exc:
            return _fail(args.command, f"estimation failed: {exc}", EXIT_ESTIMATION)
    try:
        _emit(args.command, echo, report, args.output)
    except SsateError as exc:  # an unwritable --output
        return _fail(args.command, exc, EXIT_CONFIG)
    return EXIT_OK if incomplete is None else _fail(args.command, incomplete, EXIT_INCOMPLETE)


if __name__ == "__main__":
    sys.exit(main())
