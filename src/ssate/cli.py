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
from .oracle import (
    dgp_from_dict,
    oracle_bounds,
)
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
        with open(output, "w") as fh:
            fh.write(text + "\n")
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
    with open(path) as fh:
        cfg = json.load(fh)
    if not isinstance(cfg, dict):
        raise SsateError("config file must hold a JSON object")
    return cfg


def _merged(args: argparse.Namespace, keys: list) -> dict:
    """File config first, then any explicitly supplied flags on top."""
    cfg = _load_config_file(getattr(args, "config", None))
    for key in keys:
        val = getattr(args, key.replace("-", "_"), None)
        if val is not None:
            cfg[key] = val
    return cfg


def _number(cfg: dict, key: str, integral: bool = False):
    """cfg[key] as an int or float; bools, strings and fractions for an
    integral field are config errors rather than being coerced."""
    val = cfg[key]
    if type(val) not in (int, float) or (integral and not float(val).is_integer()):
        kind = "an integer" if integral else "a number"
        raise SsateError(f"config {key!r} must be {kind}, got {val!r}")
    return int(val) if integral else float(val)


def _nuisance_from(cfg: dict) -> NuisanceConfig:
    kwargs = {key: _number(cfg, key, key == "degree")
              for key in ("degree", "ridge_lambda", "clip_eps", "clip_c")
              if cfg.get(key) is not None}
    if cfg.get("riesz_mode") is not None:
        kwargs["riesz_mode"] = cfg["riesz_mode"]
    try:
        config = NuisanceConfig(**kwargs)
        config.basis  # BasisSpec rejects a degree below 1
    except ValueError as exc:
        raise SsateError(f"bad nuisance config: {exc}") from None
    return config


def _run_args(cfg: dict, n: int):
    """Checked (folds, seed, level); ``n`` is the size of the smallest sample."""
    folds, seed, level = (_number(cfg, "folds", True), _number(cfg, "seed", True),
                          _number(cfg, "level"))
    check_run_args(folds, level, n)
    return folds, seed, level


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_estimate_os(args) -> int:
    cfg = _merged(args, ["input", "folds", "seed", "level", "degree",
                         "ridge_lambda", "clip_eps", "riesz_mode"])
    cfg.setdefault("folds", 2)
    cfg.setdefault("seed", 0)
    cfg.setdefault("level", 0.95)
    if not cfg.get("input"):
        print("estimate-os: an input CSV is required (--input)", file=sys.stderr)
        return EXIT_CONFIG
    try:
        data = read_one_sample_csv(cfg["input"])
        nuisance = _nuisance_from(cfg)
        folds, seed, level = _run_args(cfg, data.n)
    except (SsateError, OSError) as exc:
        print(f"estimate-os: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        report = estimate_os_eff(data, n_folds=folds, seed=seed, config=nuisance, level=level)
    except SsateError as exc:
        print(f"estimate-os: estimation failed: {exc}", file=sys.stderr)
        return EXIT_ESTIMATION
    _emit("estimate-os", cfg, report.to_dict(), args.output)
    return EXIT_OK


def cmd_estimate_ts(args) -> int:
    cfg = _merged(args, ["labeled", "unlabeled", "beta-star", "folds", "seed",
                         "level", "degree", "ridge_lambda", "clip_eps"])
    cfg.setdefault("folds", 2)
    cfg.setdefault("seed", 0)
    cfg.setdefault("level", 0.95)
    if not cfg.get("labeled") or not cfg.get("unlabeled"):
        print("estimate-ts: labeled and unlabeled CSVs are required", file=sys.stderr)
        return EXIT_CONFIG
    if cfg.get("beta-star") is None:
        print("estimate-ts: --beta-star is required (usage: estimate-ts "
              "--labeled L.csv --unlabeled U.csv --beta-star B)", file=sys.stderr)
        return EXIT_CONFIG
    try:
        data = read_two_sample_csv(cfg["labeled"], cfg["unlabeled"])
        nuisance = _nuisance_from(cfg)
        folds, seed, level = _run_args(cfg, min(data.m, data.l))
        beta = _number(cfg, "beta-star")
        if not 0.0 <= beta <= 1.0:
            raise SsateError(f"beta-star must lie in [0, 1], got {beta}")
    except (SsateError, OSError) as exc:
        print(f"estimate-ts: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        report = estimate_ts_eff(data, beta_star=beta, n_folds=folds, seed=seed,
                                 config=nuisance, level=level)
    except SsateError as exc:
        print(f"estimate-ts: estimation failed: {exc}", file=sys.stderr)
        return EXIT_ESTIMATION
    _emit("estimate-ts", cfg, report.to_dict(), args.output)
    return EXIT_OK


def cmd_bounds(args) -> int:
    cfg = _merged(args, ["dgp", "alpha", "grid_step"])
    cfg.setdefault("grid_step", 0.01)
    if not cfg.get("dgp"):
        print("bounds: a DGP spec JSON file is required (--dgp)", file=sys.stderr)
        return EXIT_CONFIG
    try:
        with open(cfg["dgp"]) as fh:
            spec = json.load(fh)
        dgp = dgp_from_dict(spec)
        alpha = cfg.get("alpha")
        report = oracle_bounds(dgp, alpha=float(alpha) if alpha is not None else None,
                               grid_step=float(cfg["grid_step"]))
    except (SsateError, OSError, json.JSONDecodeError, TypeError) as exc:
        print(f"bounds: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    out = {
        "tau0": report.tau0,
        "v_os": report.v_os,
        "v_tilde_os": report.v_tilde_os,
        "v_ipw": report.v_ipw,
        "v_hahn": report.v_hahn,
        "v_ts": {str(k): v for k, v in report.v_ts.items()} if report.v_ts else None,
        "v_tilde_ts": report.v_tilde_ts,
        "beta_star": report.beta_star,
    }
    _emit("bounds", cfg, out, args.output)
    return EXIT_OK


def cmd_simulate(args) -> int:
    cfg = _merged(args, ["reps", "seed", "threads"])
    if not cfg.get("dgp"):
        print("simulate: the config file must carry an inline 'dgp' spec",
              file=sys.stderr)
        return EXIT_CONFIG
    try:
        dgp = dgp_from_dict(cfg["dgp"])
        hook = None
        if cfg.get("hook"):
            h = cfg["hook"]
            hook = Misspec(kind=h["kind"], c=float(h.get("c", 0.5)))
        nuisance = _nuisance_from(cfg.get("nuisance", {}))
        study = cfg.get("study", "mc")
        threads = None if cfg.get("threads") is None else int(cfg["threads"])
        sizes = {key: _number(cfg, key, key != "beta_star")
                 for key in ("n", "m", "l", "beta_star") if cfg.get(key) is not None}
        run = {"nuisance": nuisance, "seed": int(cfg.get("seed", 0)),
               "n_folds": int(cfg.get("folds", 2)), "level": float(cfg.get("level", 0.95))}
        if study == "infinite-unlabeled":
            report = run_infinite_unlabeled_study(
                dgp,
                n_labeled=int(cfg["n_labeled"]),
                ratio=int(cfg.get("ratio", 100)),
                reps=int(cfg.get("reps", 200)),
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
                reps=int(cfg.get("reps", 100)),
                hook=hook,
                **run,
                **sizes,
            )
            report = run_mc(mc, threads=threads)
        else:
            print(f"simulate: unknown study {study!r}", file=sys.stderr)
            return EXIT_CONFIG
    except ReportIncomplete as exc:
        partial = exc.partial_report.to_dict() if exc.partial_report else None
        _emit("simulate", {k: v for k, v in cfg.items() if k != "dgp"},
              {"error": str(exc), "partial": partial}, args.output)
        print(f"simulate: {exc}", file=sys.stderr)
        return EXIT_INCOMPLETE
    except (ValueError, KeyError, SsateError) as exc:
        print(f"simulate: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    _emit("simulate", {k: v for k, v in cfg.items() if k != "dgp"},
          report.to_dict(), args.output)
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def _add_common(sub: argparse.ArgumentParser):
    sub.add_argument("--config", help="JSON config file; flags override its values")
    sub.add_argument("--output", help="write the JSON report here instead of stdout")
    sub.add_argument("--seed", type=int, default=None)
    sub.add_argument("--level", type=float, default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ssate",
        description="Semi-supervised ATE estimation with auxiliary unlabeled covariates",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("estimate-os", help="one-sample efficient estimate from CSV")
    _add_common(p)
    p.add_argument("--input", help="one-sample CSV (x1..xk,o,d,y with NA)")
    p.add_argument("--folds", type=int, default=None)
    p.add_argument("--degree", type=int, default=None)
    p.add_argument("--ridge-lambda", type=float, default=None)
    p.add_argument("--clip-eps", type=float, default=None)
    p.add_argument("--riesz-mode", choices=["mle-g", "ls-riesz", "kl-riesz"], default=None)
    p.set_defaults(func=cmd_estimate_os)

    p = sub.add_parser("estimate-ts", help="two-sample efficient estimate from CSVs")
    _add_common(p)
    p.add_argument("--labeled", help="labeled CSV (x1..xk,d,y)")
    p.add_argument("--unlabeled", help="unlabeled CSV (x1..xk)")
    p.add_argument("--beta-star", type=float, default=None)
    p.add_argument("--folds", type=int, default=None)
    p.add_argument("--degree", type=int, default=None)
    p.add_argument("--ridge-lambda", type=float, default=None)
    p.add_argument("--clip-eps", type=float, default=None)
    p.set_defaults(func=cmd_estimate_ts)

    p = sub.add_parser("bounds", help="closed-form efficiency bounds for a DGP spec")
    _add_common(p)
    p.add_argument("--dgp", help="DGP spec JSON file")
    p.add_argument("--alpha", type=float, default=None,
                   help="labeled fraction for the two-sample bounds")
    p.add_argument("--grid-step", type=float, default=None)
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("simulate", help="Monte Carlo study from a config file")
    _add_common(p)
    p.add_argument("--reps", type=int, default=None)
    p.add_argument("--threads", type=int, default=None,
                   help="worker processes; SSATE_THREADS honored when absent")
    p.set_defaults(func=cmd_simulate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
