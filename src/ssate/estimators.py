"""Orthogonal scores, cross-fitted ATE estimators, and baselines."""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Tuple

import numpy as np
from scipy.stats import norm

from .datamodel import OneSampleDataset, TwoSampleDataset, make_fold_plan
from .errors import (
    BadFoldCount, BadLevel, DomainViolation, FoldTooSmall, NonfiniteValue, check_beta,
    check_integer,
)
from .nuisance import (
    LSIF,
    UKL,
    arms,
    assemble_v_beta,
    fit_density_ratio,
    fit_e_model,
    fit_gmodel_mle,
    fit_outcome_both,
    fit_riesz,
    weighted_residual,
)

RIESZ_MODES = ("mle-g", "ls-riesz", "kl-riesz")


@dataclass(frozen=True)
class NuisanceConfig:
    """Shared nuisance-fitting options for the cross-fitted estimators."""

    degree: int = 1
    ridge_lambda: float = 1e-6
    clip_eps: float = 0.01
    clip_c: Optional[float] = None
    riesz_mode: str = "mle-g"

    def __post_init__(self):
        # each check is written so that NaN fails it: JSON configs may hold NaN
        check_integer("degree", self.degree, ValueError, low=1)
        if not 0.0 <= self.ridge_lambda < math.inf:
            raise ValueError(f"ridge_lambda must be finite and >= 0, got {self.ridge_lambda}")
        if not 0.0 < self.clip_eps < 0.5:
            raise ValueError(f"clip_eps must lie in (0, 0.5), got {self.clip_eps}")
        if self.clip_c is not None and not self.clip_c > 0.0:
            raise ValueError(f"clip_c must be > 0, got {self.clip_c}")
        if self.riesz_mode not in RIESZ_MODES:
            raise ValueError(f"riesz_mode must be one of {RIESZ_MODES}")


@dataclass
class EstimateReport:
    tau_hat: float
    se: float
    ci: Tuple[float, float]
    level: float
    method: str
    sizes: dict
    folds: int
    seed: Optional[int] = None
    diagnostics: list = field(default_factory=list)

    def to_dict(self) -> dict:
        return {**vars(self), "ci": list(self.ci)}


def ci(tau_hat: float, se: float, level: float) -> Tuple[float, float]:
    """Normal-approximation interval tau_hat +/- z * se."""
    z = _quantile(level)
    if not (math.isfinite(tau_hat) and math.isfinite(se)):
        raise NonfiniteValue(f"estimate is not finite: tau_hat {tau_hat}, se {se}")
    if se < 0.0:
        raise ValueError("se must be nonnegative")
    return (tau_hat - z * se, tau_hat + z * se)


@functools.lru_cache(maxsize=16)
def _quantile(level: float) -> float:
    """Two-sided normal quantile, cached: a scipy call costs tens of microseconds.
    Raises BadLevel for a level outside (0, 1), or one so near 1 that
    0.5 * (1 + level) rounds to 1 and the quantile is infinite."""
    if not 0.0 < level < 1.0:
        raise BadLevel(f"confidence level must lie in (0, 1), got {level}")
    z = float(norm.ppf(0.5 * (1.0 + level)))
    if not math.isfinite(z):
        raise BadLevel(f"confidence level {level} is too close to 1: "
                       "its normal quantile is infinite")
    return z


def check_run_args(n_folds: int, level: float, n: int, seed: int,
                   beta_star: Optional[float] = None, riesz_mode: str = "mle-g") -> None:
    """Reject a fold count that is not an integer in 1..n, ``n`` the smallest
    sample, a level ``ci`` rejects, a seed that is not an integer >= 0, which
    no random generator takes, or, in a two-sample run (one given a
    ``beta_star``), a ``beta_star`` outside [0, 1] or a ``riesz_mode`` other
    than "mle-g"."""
    check_integer("n_folds", n_folds, BadFoldCount)
    if not 1 <= n_folds <= n:
        raise BadFoldCount(f"fold count must satisfy 1 <= L <= {n}, got {n_folds}")
    _quantile(level)
    check_integer("seed", seed, DomainViolation, low=0)
    if beta_star is not None:
        check_beta("beta_star", beta_star)
        if riesz_mode != "mle-g":  # its weights come from fitted e and r
            raise DomainViolation(f"a two-sample run needs riesz_mode 'mle-g', got {riesz_mode!r}")


# ---------------------------------------------------------------------------
# Scores and the shared cross-fitting loop
# ---------------------------------------------------------------------------

def score_os_vec(
    o: np.ndarray,
    d: np.ndarray,
    y: np.ndarray,
    mu1x: np.ndarray,
    mu0x: np.ndarray,
    alpha1: np.ndarray,
    alpha0: np.ndarray,
) -> np.ndarray:
    """Efficient one-sample score; alpha1 ~ 1/g(1|x) and alpha0 ~ -1/g(0|x) (signed)."""
    return np.where(o == 1, weighted_residual(d, y, mu1x, mu0x, alpha1, alpha0), 0.0) + mu1x - mu0x


def score_ts_x(x: np.ndarray, mu) -> np.ndarray:
    """Outcome-model contrast mu(1, x) - mu(0, x)."""
    mu1, mu0 = arms(mu, x)
    return mu1 - mu0


def _mean_se(values: np.ndarray) -> Tuple[float, float]:
    n = len(values)
    tau = float(np.mean(values))
    se = float(np.sqrt(np.sum((values - tau) ** 2))) / n
    return tau, se


def _folds(n_folds: int, *samples):
    """For each fold b, the (fold, complement) mask pair of every (size, seed)
    sample. Each sample gets its own fold plan, and fold b of every plan comes
    together; n_folds=1 fits and scores on all rows."""
    if n_folds == 1:
        return [tuple((np.ones(n, dtype=bool),) * 2 for n, _ in samples)]
    return zip(*([(plan == b, plan != b) for b in range(1, n_folds + 1)]
                 for plan in (make_fold_plan(n, n_folds, seed) for n, seed in samples)))


def _fitted(override, fit, diag: dict, key: str):
    """``override``, or else ``fit()`` with its ``converged`` flag put in ``diag[key]``."""
    if override is None:
        override = fit()
        diag[key] = override.converged
    return override


def _fit_mu(x: np.ndarray, d: np.ndarray, y: np.ndarray, config: NuisanceConfig):
    if not (np.any(d == 1) and np.any(d == 0)):
        raise FoldTooSmall("a fold complement lacks labeled rows in some arm")
    return fit_outcome_both(x, d, y, degree=config.degree,
                            ridge_lambda=config.ridge_lambda, clip_c=config.clip_c)


# ---------------------------------------------------------------------------
# One-sample estimators
# ---------------------------------------------------------------------------

def estimate_os_eff(
    data: OneSampleDataset,
    n_folds: int = 2,
    seed: int = 0,
    config: NuisanceConfig = NuisanceConfig(),
    level: float = 0.95,
    mu_override: Optional[Callable[[int, np.ndarray], np.ndarray]] = None,
    g_override: Optional[Callable[[int, np.ndarray], np.ndarray]] = None,
) -> EstimateReport:
    """Cross-fitted efficient one-sample estimator.

    ``riesz_mode`` selects where the inverse weights come from: the
    plug-in 1/g of a multinomial MLE fit, or a directly estimated
    representer (least-squares or KL generator). Overrides replace the
    corresponding fitted nuisance with a fixed function of (d, x).
    """
    check_run_args(n_folds, level, data.n, seed)
    scores = np.empty(data.n)
    diagnostics = []
    for ((fold, comp),) in _folds(n_folds, (data.n, seed)):
        diag = {"n_train": int(comp.sum())}
        # the training rows die with _os_fits, and the scored rows' arrays with
        # _os_scores, so one fold's arrays are all that is alive at a time
        mu, weights = _os_fits(data.rows(comp), config, mu_override, g_override, diag)
        scores[fold] = _os_scores(data, fold, mu, weights)
        diagnostics.append(diag)
    tau, se = _mean_se(scores)
    return EstimateReport(tau, se, ci(tau, se, level), level, "OS-eff",
                          {"n": data.n, "n_labeled": data.n_labeled}, n_folds, seed, diagnostics)


def _os_fits(train: OneSampleDataset, config: NuisanceConfig, mu_override, g_override,
             diag: dict):
    """A fold's outcome model and its weight function x -> (a1(x), a0(x)), fitted on
    ``train``: the inverse of a fitted or given g, or a fitted representer."""
    mu = mu_override if mu_override is not None else _fit_mu(*train.labeled_arrays(), config)
    if g_override is not None or config.riesz_mode == "mle-g":
        g = _fitted(g_override, lambda: fit_gmodel_mle(
            train, degree=config.degree, clip_eps=config.clip_eps), diag, "g_converged")
        return mu, functools.partial(_reciprocal_pair, g)
    gen = LSIF if config.riesz_mode == "ls-riesz" else UKL
    riesz = fit_riesz(train, gen=gen, degree=config.degree)
    diag["riesz_converged"] = riesz.converged
    return mu, riesz.a1_a0


def _reciprocal_pair(f, x: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """(1/f(1, x), -1/f(0, x)), the score's signed weights: f is g, or v two-sample."""
    f1, f0 = arms(f, x)
    return 1.0 / f1, -1.0 / f0


def _os_scores(data: OneSampleDataset, fold: np.ndarray, mu, weights) -> np.ndarray:
    xf = data.x[fold]
    return score_os_vec(data.o[fold], data.d[fold], data.y[fold], *arms(mu, xf), *weights(xf))


def estimate_os_ipw(
    data: OneSampleDataset,
    g: Callable[[int, np.ndarray], np.ndarray],
    level: float = 0.95,
) -> EstimateReport:
    """Inverse-probability-weighting baseline with a supplied g(d, x): a
    fitted GModel or any callable of the same signature."""
    ipw = weighted_residual(data.d, data.y, 0.0, 0.0, *_reciprocal_pair(g, data.x))
    tau, se = _mean_se(np.where(data.o == 1, ipw, 0.0))
    return EstimateReport(tau, se, ci(tau, se, level), level, "OS-IPW",
                          {"n": data.n, "n_labeled": data.n_labeled}, 1)


def estimate_os_ra(
    data: OneSampleDataset,
    mu: Callable[[int, np.ndarray], np.ndarray],
    level: float = 0.95,
) -> EstimateReport:
    """Regression-adjustment baseline: mean outcome-model contrast over all
    rows, labeled and unlabeled alike. The SE is the naive sample variance
    of the contrast and ignores outcome-model estimation error."""
    tau, se = _mean_se(score_ts_x(data.x, mu))
    return EstimateReport(tau, se, ci(tau, se, level), level, "OS-RA",
                          {"n": data.n, "n_labeled": data.n_labeled}, 1)


# ---------------------------------------------------------------------------
# Two-sample estimator
# ---------------------------------------------------------------------------

def estimate_ts_eff(
    data: TwoSampleDataset,
    beta_star: float,
    n_folds: int = 2,
    seed: int = 0,
    config: NuisanceConfig = NuisanceConfig(),
    level: float = 0.95,
    mu_override: Optional[Callable[[int, np.ndarray], np.ndarray]] = None,
    e_override: Optional[Callable[[int, np.ndarray], np.ndarray]] = None,
    r_override: Optional[Callable[[np.ndarray], np.ndarray]] = None,
) -> EstimateReport:
    """Cross-fitted efficient two-sample estimator at a supplied beta_star.

    Fold plans are drawn independently for the labeled and unlabeled
    samples, preserving their independence. For frozen nuisances
    (all overrides supplied) the point estimate is affine in beta_star.
    Only ``riesz_mode`` "mle-g" applies: the weights come from fitted e and r.
    """
    m, l = data.m, data.l
    check_run_args(n_folds, level, min(m, l), seed, beta_star, config.riesz_mode)
    seed_m, seed_l = (int(s) for s in np.random.SeedSequence(seed).generate_state(2))
    s_xdy, s_x_lab, s_x_unl = np.empty(m), np.empty(m), np.empty(l)
    diagnostics = []
    for (fm, cm), (fu, cu) in _folds(n_folds, (m, seed_m), (l, seed_l)):
        diag = {"m_train": int(cm.sum()), "l_train": int(cu.sum())}
        x, d, y = data.x[cm], data.d[cm], data.y[cm]
        mu = mu_override if mu_override is not None else _fit_mu(x, d, y, config)
        e = _fitted(e_override, lambda: fit_e_model(
            x, d, degree=config.degree, clip_eps=config.clip_eps), diag, "e_converged")
        r = _fitted(r_override, lambda: fit_density_ratio(x, data.z[cu], degree=config.degree),
                    diag, "r_converged")
        v = assemble_v_beta(e, r, beta_star)
        xf = data.x[fm]
        mu1, mu0 = arms(mu, xf)
        s_xdy[fm] = weighted_residual(data.d[fm], data.y[fm], mu1, mu0, *_reciprocal_pair(v, xf))
        s_x_lab[fm] = mu1 - mu0
        s_x_unl[fu] = score_ts_x(data.z[fu], mu)
        diagnostics.append(diag)
        del xf, mu1, mu0  # as in estimate_os_eff, let the fold's arrays go before the next fits

    n_total = m + l
    tau = float(
        np.mean(s_xdy) + beta_star * np.mean(s_x_lab)
        + (1.0 - beta_star) * np.mean(s_x_unl)
    )
    lab_combined = s_xdy + beta_star * s_x_lab
    v_hat = (n_total / m) * float(np.var(lab_combined)) \
        + (n_total / l) * (1.0 - beta_star) ** 2 * float(np.var(s_x_unl))
    se = float(np.sqrt(v_hat / n_total))
    return EstimateReport(tau, se, ci(tau, se, level), level, "TS-eff", {"m": m, "l": l},
                          n_folds, seed, diagnostics)
