"""Sampling from synthetic DGPs and replicated Monte Carlo studies."""

from __future__ import annotations

import os
import threading
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field, replace
from itertools import repeat
from typing import Callable, NamedTuple, Optional

import numpy as np

from .datamodel import OneSampleDataset, TwoSampleDataset
from .errors import DomainViolation, ReportIncomplete, SsateError
from .estimators import (
    NuisanceConfig,
    check_run_args,
    estimate_os_eff,
    estimate_os_ipw,
    estimate_os_ra,
    estimate_ts_eff,
)
from .nuisance import fit_gmodel_mle, fit_outcome_both
from . import oracle


# ---------------------------------------------------------------------------
# Sampling
# ---------------------------------------------------------------------------

def sample_one(dgp, n: int, seed: int) -> OneSampleDataset:
    """n i.i.d. one-sample rows: X ~ p0, O ~ pi0(.|X), D ~ e0(.|X) when
    observed, Y ~ Normal(mu0(D, X), sigma0^2(D, X))."""
    rng = np.random.default_rng(seed)
    x = dgp.sample_x(rng, n, "p")
    laws = dgp._draw_laws(x, with_pi=True)
    o = (rng.random(n) < next(laws)).astype(np.int8)
    d, y = _draw_labeled(rng, laws, n)
    d = np.where(o == 1, d, 0).astype(np.int8)
    y = np.where(o == 1, y, 0.0)
    return OneSampleDataset.from_arrays(x, o, d, y)


def sample_two(dgp, m: int, l: int, seed: int) -> TwoSampleDataset:
    """Independent labeled (X, D, Y) ~ p0 and unlabeled Z ~ q0 draws."""
    rng = np.random.default_rng(seed)
    x = dgp.sample_x(rng, m, "p")
    d, y = _draw_labeled(rng, dgp._draw_laws(x, with_pi=False), m)
    z = dgp.sample_x(rng, l, "q")
    return TwoSampleDataset.from_arrays(x, d, y, z)


def _draw_labeled(rng: np.random.Generator, laws, n: int):
    """D ~ e0(.|X), then Y ~ Normal(mu0(D, X), sigma0^2(D, X)), from the e(1), mu(1),
    mu(0), sigma2(1), sigma2(0) that ``laws`` yields next, one at a time, so that no
    more of them are held at once than each step uses."""
    d = (rng.random(n) < next(laws)).astype(np.int8)
    mu = np.where(d == 1, next(laws), next(laws))
    sd = np.sqrt(np.where(d == 1, next(laws), next(laws)))
    return d, mu + sd * rng.standard_normal(n)


# ---------------------------------------------------------------------------
# Configuration and hooks
# ---------------------------------------------------------------------------

MISSPEC_KINDS = (
    "zero-mu", "constant-g", "constant-e",
    "true-mu", "true-g", "true-e", "true-r", "true-nuisance",
)


@dataclass(frozen=True)
class Misspec:
    """Post-fit nuisance replacement used by the Monte Carlo studies.

    Forced functions substitute for the corresponding fitted nuisance,
    leaving the data untouched, so the double-robustness disjunction can
    be probed one nuisance at a time.
    """

    kind: str
    c: float = 0.5

    def __post_init__(self):
        if self.kind not in MISSPEC_KINDS:
            raise ValueError(f"unknown misspecification kind {self.kind!r}")
        if not 0.0 < self.c < 1.0:  # NaN fails too
            raise ValueError(f"hook constant c must lie in (0, 1), got {self.c}")


def _hook_overrides(hook: Optional[Misspec], dgp, takes: tuple) -> dict:
    """The overrides ``hook`` forces, among the estimator keywords in ``takes``."""
    if hook is None:
        return {}
    forced = {  # kind -> (keyword, forced function)
        "zero-mu": ("mu_override", lambda d, x: np.zeros(len(np.atleast_2d(x)))),
        "constant-g": ("g_override", lambda d, x: np.full(len(np.atleast_2d(x)), hook.c)),
        "constant-e": ("e_override", lambda d, x: np.full(len(np.atleast_2d(x)), hook.c)),
        "true-mu": ("mu_override", dgp.mu),
        "true-g": ("g_override", dgp.g),
        "true-e": ("e_override", dgp.e),
        "true-r": ("r_override", lambda x: dgp.p_pdf(x) / dgp.q_pdf(x)),
    }
    kinds = (hook.kind,)
    if hook.kind == "true-nuisance":
        kinds = ("true-mu", "true-g", "true-e", "true-r")
    return {key: fn for key, fn in map(forced.get, kinds) if key in takes}


class _Estimator(NamedTuple):
    scenario: str
    takes: tuple  # the hook overrides it accepts, as keywords of ``run``
    run: Callable  # (config, data, seed, **overrides) -> EstimateReport
    bound: Callable  # config -> the oracle bound of its scaled variance, or None


# Each entry calls the estimators, fits and oracle bounds through their module
# names when it runs, so a function rebound later (by a tracer, say) is used.
_ESTIMATORS = {
    "os-eff": _Estimator(
        "one-sample", ("mu_override", "g_override"),
        lambda c, data, seed, **o: estimate_os_eff(
            data, n_folds=c.n_folds, seed=seed, config=c.nuisance, level=c.level, **o),
        lambda c: oracle.bound_v_os(c.dgp)),
    "os-ipw": _Estimator(
        "one-sample", ("g_override",),
        lambda c, data, seed, g_override=None: estimate_os_ipw(
            data, fit_gmodel_mle(data, degree=c.nuisance.degree, clip_eps=c.nuisance.clip_eps)
            if g_override is None else g_override, level=c.level),
        lambda c: oracle.bound_v_ipw(c.dgp)),
    "os-ra": _Estimator(
        "one-sample", ("mu_override",),
        lambda c, data, seed, mu_override=None: estimate_os_ra(
            data, fit_outcome_both(*data.labeled_arrays(), degree=c.nuisance.degree,
                                   ridge_lambda=c.nuisance.ridge_lambda, clip_c=c.nuisance.clip_c)
            if mu_override is None else mu_override, level=c.level),
        lambda c: None),
    "ts-eff": _Estimator(
        "two-sample", ("mu_override", "e_override", "r_override"),
        lambda c, data, seed, **o: estimate_ts_eff(
            data, beta_star=c.beta_star, n_folds=c.n_folds, seed=seed, config=c.nuisance,
            level=c.level, **o),
        lambda c: oracle.bound_v_ts(c.dgp, c.beta_star, c.m / (c.m + c.l))),
}
_SCENARIOS = ("one-sample", "two-sample")


@dataclass(frozen=True)
class McConfig:
    dgp: object
    scenario: str = "one-sample"  # or "two-sample"
    estimator: str = "os-eff"  # os-eff | os-ipw | os-ra (one-sample) | ts-eff (two-sample)
    n: Optional[int] = None
    m: Optional[int] = None
    l: Optional[int] = None
    reps: int = 100
    n_folds: int = 2
    beta_star: Optional[float] = None
    nuisance: NuisanceConfig = NuisanceConfig()
    hook: Optional[Misspec] = None
    seed: int = 0
    level: float = 0.95

    def __post_init__(self):
        if self.scenario not in _SCENARIOS:
            raise ValueError("scenario must be one-sample or two-sample")
        spec = _ESTIMATORS.get(self.estimator)
        if spec is None or spec.scenario != self.scenario:
            raise ValueError(f"estimator {self.estimator!r} not valid for {self.scenario}")
        overrides = _hook_overrides(self.hook, self.dgp, spec.takes)
        if self.hook is not None and not overrides:
            raise ValueError(f"hook {self.hook.kind!r} overrides no nuisance of {self.estimator}")
        if "r_override" in overrides and self.dgp.q_vanishes:
            raise DomainViolation(f"hook {self.hook.kind!r} divides by q0, which is 0 where p0 > 0")
        if self.reps < 1:
            raise ValueError("reps must be >= 1")
        if self.scenario == "one-sample":
            if self.n is None or self.n < 1:
                raise ValueError("one-sample studies need n >= 1")
            if self.beta_star is not None:  # no one-sample estimator reads it
                raise ValueError("one-sample studies take no beta_star")
        if self.scenario == "two-sample":
            if self.m is None or self.l is None or self.m < 1 or self.l < 1:
                raise ValueError("two-sample studies need m, l >= 1")
            if self.beta_star is None:
                raise ValueError("two-sample studies need beta_star")
        check_run_args(self.n_folds, self.level,
                       self.n if self.scenario == "one-sample" else min(self.m, self.l),
                       self.beta_star, self.nuisance.riesz_mode)


@dataclass
class McReport:
    scenario: str
    estimator: str
    sizes: dict
    reps_completed: int
    mean_tau_hat: float
    tau0: float
    mc_bias: float
    mc_se_of_bias: float
    scaled_variance: float
    bound_value: Optional[float]
    coverage: float
    mean_se: float
    level: float
    seed: int
    failures: list = field(default_factory=list)

    def to_dict(self) -> dict:
        return dict(vars(self))


# ---------------------------------------------------------------------------
# Replication driver
# ---------------------------------------------------------------------------

def _one_rep(config: McConfig, r: int):
    seed = config.seed + r
    spec = _ESTIMATORS[config.estimator]
    data = (sample_one(config.dgp, config.n, seed) if config.scenario == "one-sample"
            else sample_two(config.dgp, config.m, config.l, seed))
    return spec.run(config, data, seed, **_hook_overrides(config.hook, config.dgp, spec.takes))


def _rep_record(config: McConfig, r: int):
    try:
        rep = _one_rep(config, r)
        return (r, rep.tau_hat, rep.se, rep.ci[0], rep.ci[1], None)
    except SsateError as exc:
        return (r, None, None, None, None, f"{exc.code}: {exc}")


def resolve_threads(threads: Optional[int] = None) -> int:
    """``threads``, else SSATE_THREADS, else the CPU count. A count below 1 is a
    ValueError naming the argument or variable it came from."""
    source, count = "threads", threads
    if count is None:
        source, count = "SSATE_THREADS", os.environ.get("SSATE_THREADS") or None
    if count is None:
        return os.cpu_count() or 1
    if int(count) < 1:
        raise ValueError(f"{source} must be >= 1, got {count!r}")
    return int(count)


# (worker count, executor): the process's worker pool, reused by run_mc
_pool = (0, None)
_pool_lock = threading.Lock()


def _map_reps(config: McConfig, workers: int) -> list:
    """Replication records from the pool, (re)built for ``workers``, in chunks of a
    quarter of a worker's share. A broken pool is replaced once: reps are pure."""
    global _pool
    with _pool_lock:
        for retry in (False, True):
            if _pool[0] != workers:
                if _pool[1] is not None:
                    _pool[1].shutdown()
                _pool = (workers, ProcessPoolExecutor(max_workers=workers))
            try:
                return list(_pool[1].map(_rep_record, repeat(config), range(1, config.reps + 1),
                                         chunksize=-(-config.reps // (4 * workers))))
            except BrokenProcessPool:
                _pool = (0, _pool[1])  # no call asks for 0 workers, so the next pass rebuilds
                if retry:
                    raise


def run_mc(config: McConfig, threads: Optional[int] = None) -> McReport:
    """Replicated study: sample, estimate, aggregate against the oracle bound.

    Per-rep failures are recorded, not fatal; the run aborts with a partial
    report attached only when more than 5% of replications fail.
    Aggregation folds over the rep index, so the report is identical for
    any thread count. Workers are capped at the CPUs this process may use.
    The pool is built at the first parallel call and reused while the worker
    count stays the same; its workers are forked then, so module state the
    parent changes afterwards does not reach them.
    """
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    workers = min(resolve_threads(threads), cpus or 1)
    # the oracle values next: a DGP they reject fails before any replication
    tau0 = oracle.true_ate(config.dgp, config.beta_star if config.beta_star is not None else 1.0)
    bound = _ESTIMATORS[config.estimator].bound(config)
    records = (_map_reps(config, workers) if workers > 1
               else [_rep_record(config, r) for r in range(1, config.reps + 1)])

    taus, ses, covers, failures = [], [], [], []
    for r, tau, se, lo, hi, err in records:
        if err is not None:
            failures.append({"rep": r, "error": err})
        else:
            taus.append(tau)
            ses.append(se)
            covers.append(1.0 if lo <= tau0 <= hi else 0.0)
    sizes = {"n": config.n} if config.scenario == "one-sample" else {"m": config.m, "l": config.l}
    scale = sum(sizes.values())

    # no completed replication: every statistic below is NaN
    taus_a, ses_a, covers_a = (np.asarray(v if taus else [np.nan]) for v in (taus, ses, covers))
    report = McReport(
        scenario=config.scenario,
        estimator=config.estimator,
        sizes=sizes,
        reps_completed=len(taus),
        mean_tau_hat=float(np.mean(taus_a)),
        tau0=tau0,
        mc_bias=float(np.mean(taus_a) - tau0),
        mc_se_of_bias=float(np.std(taus_a) / np.sqrt(len(taus_a))),
        scaled_variance=float(scale * np.var(taus_a)),
        bound_value=bound,
        coverage=float(np.mean(covers_a)),
        mean_se=float(np.mean(ses_a)),
        level=config.level,
        seed=config.seed,
        failures=failures,
    )
    if len(failures) > 0.05 * config.reps:
        raise ReportIncomplete(
            f"{len(failures)} of {config.reps} replications failed",
            partial_report=report,
        )
    return report


def run_infinite_unlabeled_study(
    dgp,
    n_labeled: int,
    ratio: int = 100,
    reps: int = 200,
    seed: int = 0,
    scenario: str = "one-sample",
    beta_star: Optional[float] = None,
    nuisance: NuisanceConfig = NuisanceConfig(),
    n_folds: int = 2,
    level: float = 0.95,
    threads: Optional[int] = None,
) -> McReport:
    """Emulate the unlabeled-data-rich limit and compare to the reduced bound.

    Two-sample: l = ratio * m; variance normalized by m against the
    labeled-sample limit bound. One-sample: the observation probability is
    shrunk at fixed expected labeled count, and the variance is normalized
    by n times the shrink factor, whose limit matches the reduced bound of
    the unshrunk DGP.
    """
    if scenario not in _SCENARIOS:
        raise ValueError("scenario must be one-sample or two-sample")
    if n_labeled < 1:
        raise ValueError("n_labeled must be >= 1")
    if ratio < 10:
        raise ValueError("ratio must be >= 10 for the limit emulation")
    if scenario == "two-sample":
        m = n_labeled
        config = McConfig(
            dgp=dgp, scenario="two-sample", estimator="ts-eff",
            m=m, l=ratio * m, reps=reps, n_folds=n_folds,
            beta_star=beta_star, nuisance=nuisance, seed=seed, level=level,
        )
        report = run_mc(config, threads=threads)
        n_total = m + ratio * m
        report.scaled_variance = report.scaled_variance * m / n_total
        report.bound_value = oracle.bound_v_tilde_ts(dgp, beta_star)
        return report

    if beta_star is not None:
        raise ValueError("one-sample studies take no beta_star")
    if dgp.family != "DiscreteX":  # checked before any node grid is built
        raise ValueError("pi-shrinking emulation implemented for discrete DGPs only")
    if not dgp.has_pi:
        raise ValueError("one-sample study needs an observation probability")
    # one-sample: shrink pi0 with n * E[pi_shrunk] held at n_labeled
    xp, wp = dgp.nodes_p()
    e_pi = float(np.sum(wp * dgp.pi(xp)))
    n = int(round((1 + ratio) * n_labeled))
    shrink = n_labeled / (n * e_pi)
    shrunk = replace(dgp, pi1=dgp.pi1 * shrink)
    min_g = min(float(np.min(shrunk.g(1, xp))), float(np.min(shrunk.g(0, xp))))
    # keep the clamp well below the true joint probabilities of the
    # shrunk DGP, otherwise clipping would bias the inverse weights
    clip_eps = min(nuisance.clip_eps, 0.1 * min_g)
    nuisance_adj = replace(nuisance, clip_eps=clip_eps)
    config = McConfig(
        dgp=shrunk, scenario="one-sample", estimator="os-eff",
        n=n, reps=reps, n_folds=n_folds,
        nuisance=nuisance_adj, seed=seed, level=level,
    )
    report = run_mc(config, threads=threads)
    # n * shrink = n_labeled / E_p[pi0]; its limit value normalizes the
    # variance against the fixed-labeled-count bound of the base DGP
    report.scaled_variance = report.scaled_variance * shrink
    report.bound_value = oracle.bound_v_tilde_os(dgp)
    return report
