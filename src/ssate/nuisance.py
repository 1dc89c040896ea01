"""Nuisance-function estimation.

Covers ridge outcome regressions, the multinomial observation/treatment
model, binary propensity scores, classifier-based density-ratio
estimation, Riesz-representer estimation via Bregman-divergence
minimization (least-squares and KL variants), the TMLE fluctuation step
and the iterative debiasing loop that alternates weighted representer
fits with fluctuations.

Every fitted model that takes an arm also has ``arms(x)``, which returns
``(f(1, x), f(0, x))`` from one basis transform; ``arms(f, x)`` below
calls it, or falls back to two calls for a plain callable.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from typing import Callable, Optional, Tuple

import numpy as np

from .datamodel import OneSampleDataset
from .errors import (
    ClassAbsent,
    DomainViolation,
    InsufficientArmData,
    NonfiniteValue,
    SingularSystem,
    ZeroDenominator,
    arm_position,
    arm_rows,
    check_beta,
    check_integer,
    covariates,
)
from .optimize import TOL, minimize_newton

DEFAULT_CLIP_EPS = 0.01
DEFAULT_R_CLIP = (0.01, 100.0)


# ---------------------------------------------------------------------------
# Feature maps
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FittedBasis:
    """Feature map on k coordinates: an intercept plus the powers 1..degree of each."""

    degree: int
    k: int

    def __post_init__(self):
        check_integer("degree", self.degree, ValueError, low=1)

    @property
    def dim(self) -> int:
        return 1 + self.k * self.degree

    def transform(self, x: np.ndarray) -> np.ndarray:
        x = covariates(x, self.k)
        powers = [x**t if t > 1 else x for t in range(1, self.degree + 1)]
        return np.column_stack([np.ones(x.shape[0])] + powers)


def arms(f, x: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """(f(1, x), f(0, x)) for a fitted model or any callable of (arm, x)."""
    pair = getattr(f, "arms", None)
    return pair(x) if pair is not None else (f(1, x), f(0, x))


def weighted_residual(d, y, mu1, mu0, a1, a0) -> np.ndarray:
    """The arm-matched weight times the arm-matched residual, a_d(x) * (y - mu_d(x)): the
    correction term of every efficient score, whatever the weights' source."""
    return np.where(d == 1, a1, a0) * np.where(d == 1, y - mu1, y - mu0)


class _ArmPair:
    """A model of (arm, x) that evaluates both arms at once in ``arms(x)``."""

    def __call__(self, d: int, x: np.ndarray) -> np.ndarray:
        return self.arms(x)[arm_position(d)]

    def predict_rows(self, d: np.ndarray, x: np.ndarray) -> np.ndarray:
        """Arm-matched prediction, row by row."""
        return np.where(arm_rows(d, covariates(x)) == 1, *self.arms(x))


# ---------------------------------------------------------------------------
# Outcome regression
# ---------------------------------------------------------------------------

@dataclass
class OutcomeModel(_ArmPair):
    """Per-arm ridge regression with bounded predictions, called as mu(arm, x).

    ``fluctuations`` holds (riesz_model, epsilon) pairs appended by the
    TMLE step; fluctuation terms are added after clipping so the score
    identity from the fluctuation remains exact.
    """

    basis: FittedBasis
    coef: dict
    clip_c: float
    fluctuations: tuple = ()

    def arms(self, x: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        phi = self.basis.transform(x)
        val1, val0 = (np.clip(phi @ self.coef[arm], -self.clip_c, self.clip_c) for arm in (1, 0))
        for riesz, eps in self.fluctuations:
            a1, a0 = riesz.a1_a0(x)
            val1, val0 = val1 + eps * a1, val0 + eps * a0
        return val1, val0


def _ridge_solve(phi: np.ndarray, y: np.ndarray, lam: float) -> np.ndarray:
    p = phi.shape[1]
    if lam > 0:
        return np.linalg.solve(phi.T @ phi + lam * np.eye(p), phi.T @ y)
    coef, _, rank, _ = np.linalg.lstsq(phi, y, rcond=None)
    if rank < p:
        raise SingularSystem("design matrix is rank deficient; use ridge_lambda > 0")
    return coef


def fit_outcome_both(
    x: np.ndarray,
    d: np.ndarray,
    y: np.ndarray,
    degree: int = 1,
    ridge_lambda: float = 1e-6,
    clip_c: Optional[float] = None,
) -> OutcomeModel:
    """Closed-form ridge fit of E[Y | X, arm] for each arm, on a shared
    feature map. An arm with fewer rows than basis columns raises
    InsufficientArmData; a short arm with rows is reported before an empty one."""
    x, y = covariates(x), np.asarray(y, dtype=float)
    d = arm_rows(d, x, y)
    fb = FittedBasis(degree, x.shape[1])
    phi = fb.transform(x)  # row by row, so phi[mask] is the arm's own transform
    masks = {arm: d == arm for arm in (1, 0)}
    coef = {}
    for arm in sorted(masks, key=lambda a: not masks[a].any()):
        rows = int(masks[arm].sum())
        if rows < fb.dim:
            raise InsufficientArmData(f"arm {arm} has {rows} rows, need at least {fb.dim}")
        coef[arm] = _ridge_solve(phi[masks[arm]], y[masks[arm]], ridge_lambda)
    cc = 100.0 * float(np.max(np.abs(y))) if clip_c is None else float(clip_c)
    return OutcomeModel(basis=fb, coef=coef, clip_c=cc)


# ---------------------------------------------------------------------------
# Observation/treatment probability models
# ---------------------------------------------------------------------------

def _softmax(logits: np.ndarray) -> np.ndarray:
    # written over logits, which the caller made for it; a max is exact, so the running max
    # over the columns equals logits.max(axis=1) bit for bit and skips a strided reduction
    np.subtract(logits, functools.reduce(np.maximum, logits.T)[:, None], out=logits)
    np.exp(logits, out=logits)
    logits /= logits.sum(axis=1, keepdims=True)
    return logits


@dataclass
class GModel(_ArmPair):
    """Multinomial model of the 3 outcomes (o=1,d=1), (o=1,d=0), (o=0),
    called as g(d, x) for the clipped joint probability of (o=1, d)."""

    basis: FittedBasis
    # (p, 3), C-contiguous, last column pinned at zero: phi @ a transposed (3, p) array
    # would hand OpenBLAS a transposed operand, whose threaded kernel can stall
    # (17-25 ms at 50k rows on 2 vCPUs, against 0.2-0.3 ms)
    weights: np.ndarray
    clip_eps: float
    converged: bool = True

    def arms(self, x: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        probs = _softmax(self.basis.transform(x) @ self.weights)
        lo, hi = self.clip_eps, 1.0 - self.clip_eps
        return np.clip(probs[:, 0], lo, hi), np.clip(probs[:, 1], lo, hi)


def fit_gmodel_mle(
    data: OneSampleDataset,
    degree: int = 1,
    clip_eps: float = DEFAULT_CLIP_EPS,
) -> GModel | EModel:
    """Full-batch multinomial maximum likelihood for the joint class label; with no
    unlabeled row, pi = 1 and g(d|x) = e(d|x), which ``fit_e_model`` fits."""
    labels = np.where(data.o == 0, 2, np.where(data.d == 1, 0, 1))
    counts = np.bincount(labels, minlength=3)
    if np.any(counts[:2] == 0):
        missing = [("(o=1,d=1)", "(o=1,d=0)", "(o=0)")[c] for c in range(3) if counts[c] == 0]
        raise ClassAbsent(f"class(es) {', '.join(missing)} absent from the sample")
    if counts[2] == 0:
        return fit_e_model(data.x, data.d, degree, clip_eps)
    fb = FittedBasis(degree, data.k)
    phi = fb.transform(data.x)
    n, p = phi.shape
    onehot = labels[:, None] == np.arange(2)  # the two free classes, subtracted as 1.0 or 0.0
    labels = labels.astype(np.int8)  # lives through every Hessian below, so one byte a row
    wt = np.zeros((p, 3))  # GModel.weights; last column pinned at zero

    def nll_grad_hess(w_free: np.ndarray):
        wt[:, :2] = w_free.reshape(2, p).T
        probs = _softmax(phi @ wt)
        # the residuals are freed before the log-likelihood's temporaries are made:
        # each row's own class in the flat (n, 3) probabilities, then its log
        grad = ((probs[:, :2] - onehot).T @ phi).ravel() / n
        ll = np.sum(np.log(probs.take(np.arange(n) * 3 + labels)))
        def hess():  # block Hessian of the multinomial NLL for the two free classes
            out = np.empty((2 * p, 2 * p))
            for a, b in ((0, 0), (0, 1), (1, 1)):
                wgt = probs[:, a] * ((a == b) - probs[:, b])
                out[a * p:(a + 1) * p, b * p:(b + 1) * p] = (phi * wgt[:, None]).T @ phi / n
            # p0 * (0 - p1) and p1 * (0 - p0) are the same float, so block (1, 0) is (0, 1)
            out[p:, :p] = out[:p, p:]
            return out
        return -ll / n, grad, hess

    res = minimize_newton(nll_grad_hess, np.zeros(2 * p))
    wt[:, :2] = res.x.reshape(2, p).T  # the last point evaluated may be a rejected trial
    return GModel(basis=fb, weights=wt, clip_eps=clip_eps, converged=res.converged)


@dataclass
class EModel(_ArmPair):
    """Binary logistic propensity model, called as e(d, x) = P(D = d | X = x)."""

    basis: FittedBasis
    weights: np.ndarray
    clip_eps: float
    converged: bool = True

    def arms(self, x: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        p1 = 1.0 / (1.0 + np.exp(-(self.basis.transform(x) @ self.weights)))
        p1 = np.clip(p1, self.clip_eps, 1.0 - self.clip_eps)
        return p1, 1.0 - p1


def _fit_logistic(phi: np.ndarray, target: np.ndarray) -> Tuple[np.ndarray, bool]:
    n, p = phi.shape

    def nll_grad_hess(w: np.ndarray):
        eta = phi @ w
        # log(1 + exp(eta)) computed stably
        ll = np.sum(target * eta - np.logaddexp(0.0, eta))
        prob = 1.0 / (1.0 + np.exp(-eta))
        grad = phi.T @ (prob - target) / n
        return -ll / n, grad, lambda: (phi * (prob * (1.0 - prob))[:, None]).T @ phi / n

    res = minimize_newton(nll_grad_hess, np.zeros(p))
    return res.x, res.converged


def fit_e_model(
    x: np.ndarray,
    d: np.ndarray,
    degree: int = 1,
    clip_eps: float = DEFAULT_CLIP_EPS,
) -> EModel:
    x = covariates(x)
    d = arm_rows(d, x)
    if not (np.any(d == 1) and np.any(d == 0)):
        raise ClassAbsent("both treatment arms must be present")
    fb = FittedBasis(degree, x.shape[1])
    weights, converged = _fit_logistic(fb.transform(x), (d == 1).astype(float))
    return EModel(basis=fb, weights=weights, clip_eps=clip_eps, converged=converged)


@dataclass
class DensityRatioModel:
    """Classifier-based estimate of p(x)/q(x) with prior correction l/m,
    called as r(x)."""

    basis: FittedBasis
    weights: np.ndarray
    prior_correction: float  # l / m
    clip: Tuple[float, float]
    converged: bool = True

    def __call__(self, x: np.ndarray) -> np.ndarray:
        phi = self.basis.transform(x)
        odds = np.exp(phi @ self.weights)  # P(labeled|x) / P(unlabeled|x)
        return np.clip(odds * self.prior_correction, self.clip[0], self.clip[1])


def fit_density_ratio(
    labeled_x: np.ndarray,
    unlabeled_z: np.ndarray,
    degree: int = 1,
) -> DensityRatioModel:
    labeled_x = covariates(labeled_x)
    unlabeled_z = covariates(unlabeled_z, labeled_x.shape[1], "labeled sample")
    pooled = np.vstack([labeled_x, unlabeled_z])
    source = np.concatenate([np.ones(len(labeled_x)), np.zeros(len(unlabeled_z))])
    fb = FittedBasis(degree, pooled.shape[1])
    weights, converged = _fit_logistic(fb.transform(pooled), source)
    return DensityRatioModel(
        basis=fb,
        weights=weights,
        prior_correction=len(unlabeled_z) / len(labeled_x),
        clip=DEFAULT_R_CLIP,
        converged=converged,
    )


# ---------------------------------------------------------------------------
# Riesz representer estimation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BregmanGenerator:
    """Convex generator of the divergence used for representer fitting.

    Objectives, representer links and the brute-force oracle dispatch on
    ``tag``, so an unknown tag is rejected here, once.
    """

    tag: str  # "LSIF" or "UKL"

    def __post_init__(self):
        if self.tag not in ("LSIF", "UKL"):
            raise ValueError(f"unknown generator {self.tag!r}; expected LSIF or UKL")


LSIF = BregmanGenerator("LSIF")
UKL = BregmanGenerator("UKL")


@dataclass
class RieszModel:
    """Fitted representer; zero on unlabeled rows, arm-specific otherwise.

    LSIF uses linear per-arm functions; UKL uses a link that keeps
    a1 > 1 and a0 < -1 everywhere.
    """

    generator: BregmanGenerator
    basis: FittedBasis
    theta1: np.ndarray
    theta0: np.ndarray
    converged: bool = True

    def a1_a0(self, x: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """(a1(x), a0(x)) from one transform. Not named ``arms``: a representer
        is not a probability, so ``arms`` must not accept it as a g."""
        phi = self.basis.transform(x)
        u1, u0 = phi @ self.theta1, phi @ self.theta0
        if self.generator.tag == "LSIF":
            return u1, u0
        return 1.0 + np.exp(u1), -1.0 - np.exp(u0)


def _riesz_weights(
    data: OneSampleDataset, residuals: Optional[np.ndarray]
) -> Tuple[np.ndarray, np.ndarray]:
    """Per-row weights for the labeled term and the representer-moment term.

    Labeled rows are weighted by their squared residual in both terms;
    unlabeled rows (which carry no residual) receive the mean labeled
    squared residual in the moment term, so unit residuals reproduce the
    unweighted objective and a common positive rescaling leaves the
    minimizer unchanged.
    """
    n = data.n
    if residuals is None:
        return np.ones(n), np.ones(n)
    residuals = np.asarray(residuals, dtype=float)
    lab = data.labeled_mask
    if len(residuals) != int(lab.sum()):
        raise ValueError("residuals must be supplied for all labeled rows")
    w_lab = np.zeros(n)
    w_lab[lab] = residuals**2
    w_mom = np.full(n, float(np.mean(residuals**2)))
    w_mom[lab] = residuals**2
    return w_lab, w_mom


def _riesz_arm_objectives(
    data: OneSampleDataset,
    gen: BregmanGenerator,
    fb: FittedBasis,
    residuals: Optional[np.ndarray] = None,
) -> list:
    """The empirical divergence objective, split into its two arm terms.

    Returns [arm 1, arm 0] objectives in ``minimize_newton``'s form, with loss
    (sum over the arm's labeled rows of w_lab * h(phi @ theta) - b @ theta) / n
    where mom = sum over all rows of w_mom * phi. LSIF: h(u) = u^2 and
    b = +-2 mom; UKL: h(u) = u + 1 + e^u and b = mom. The two losses sum to
    the expanded per-generator form of ``riesz_loss``; additive constants
    relative to the generic f-based form do not affect the minimizer.
    """
    lsif = gen.tag == "LSIF"
    phi = fb.transform(data.x)
    n = data.n
    w_lab, w_mom = _riesz_weights(data, residuals)
    mom = w_mom @ phi
    objectives = []
    for arm, sign in ((1, 1.0), (0, -1.0)):
        rows = (data.o == 1) & (data.d == arm)
        phi_a, w_a = phi[rows], w_lab[rows]
        b = 2.0 * sign * mom if lsif else mom

        def fun_grad_hess(theta, phi_a=phi_a, w_a=w_a, b=b):
            u = phi_a @ theta
            if lsif:
                h, dh, d2h = u * u, 2.0 * u, np.full_like(u, 2.0)
            else:
                eu = np.exp(u)
                h, dh, d2h = u + 1.0 + eu, 1.0 + eu, eu
            loss = (w_a @ h - b @ theta) / n
            grad = (phi_a.T @ (w_a * dh) - b) / n
            return float(loss), grad, lambda: (phi_a * (w_a * d2h)[:, None]).T @ phi_a / n

        objectives.append(fun_grad_hess)
    return objectives


def _riesz_arm_terms(model: RieszModel, data: OneSampleDataset, residuals) -> list:
    objectives = _riesz_arm_objectives(data, model.generator, model.basis, residuals)
    return [f(theta) for f, theta in zip(objectives, (model.theta1, model.theta0))]


def riesz_loss(
    model: RieszModel,
    data: OneSampleDataset,
    residuals: Optional[np.ndarray] = None,
) -> float:
    """Empirical divergence objective at the model's parameters.

    LSIF: mean of -2(a1 - a0) over all rows plus the labeled mean of
    alpha^2. UKL: labeled mean of log(|alpha| - 1) + |alpha| minus the
    all-row mean of log(a1 - 1) + log(-a0 - 1). The representer-moment
    term is averaged over all rows, labeled and unlabeled alike.
    """
    if model.generator.tag == "UKL":
        a1, a0 = model.a1_a0(data.x)
        if np.any(a1 <= 1.0) or np.any(a0 >= -1.0):
            raise DomainViolation("UKL representer must satisfy a1 > 1 and a0 < -1")
    return float(sum(loss for loss, _, _ in _riesz_arm_terms(model, data, residuals)))


def riesz_loss_grad(
    model: RieszModel,
    data: OneSampleDataset,
    residuals: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Analytic gradient of ``riesz_loss`` in (theta1, theta0)."""
    (_, g1, _), (_, g0, _) = _riesz_arm_terms(model, data, residuals)
    return g1, g0


# share of an arm's gradient outside its Gram matrix's range that is not round-off
_CONSISTENT_RTOL = math.sqrt(np.finfo(float).eps)


def fit_riesz(
    data: OneSampleDataset,
    gen: BregmanGenerator = LSIF,
    degree: int = 1,
    residuals: Optional[np.ndarray] = None,
) -> RieszModel:
    """Minimize the empirical divergence exactly, one arm at a time.

    Each arm's convex problem is posed on the range of its weighted Gram
    matrix, since directions outside it change no basis product on the
    arm's labeled rows; collinear columns (binary x at degree >= 2) thus
    give the minimum-norm theta and unique a1, a0. LSIF solves the arm's
    normal equations (phi' W phi) theta = +-mom in closed form; UKL runs
    damped Newton. ``residuals`` (labeled row order) weight the fit as in
    ``_riesz_weights``. If the moment leaves that range (default basis: an
    arm's labeled rows share one x, other rows do not) the objective is
    unbounded below and SingularSystem is raised. LSIF ``converged`` means
    a finite solve whose gradient is within ``optimize.TOL`` relative to
    |grad(0)| + |H| |theta| (its backward error); UKL uses Newton's flag.
    """
    if data.n_labeled < 1:
        raise InsufficientArmData("representer fitting needs at least one labeled row")
    fb = FittedBasis(degree, data.k)
    p = fb.dim
    thetas, converged = [], True
    objectives = _riesz_arm_objectives(data, gen, fb, residuals)
    for arm, fun_grad_hess in zip((1, 0), objectives):
        _, grad, hess = fun_grad_hess(np.zeros(p))
        evals, evecs = np.linalg.eigh(hess())
        if not np.isfinite(evals).all():  # NaN eigenvalues would leave no range to solve on
            raise NonfiniteValue(f"arm {arm}: weighted Gram matrix is not finite")
        keep = evals > evals.max() * p * np.finfo(float).eps
        span, evals = evecs[:, keep], evals[keep]
        g_span = span.T @ grad
        if np.linalg.norm(grad - span @ g_span) > _CONSISTENT_RTOL * np.linalg.norm(grad):
            raise SingularSystem(
                f"arm {arm}: the moment is outside the range of the arm's singular "
                "weighted Gram matrix, so the objective is unbounded below"
            )
        if gen.tag == "LSIF":
            theta = span @ (-g_span / evals)
            arm_loss, g, _ = fun_grad_hess(theta)
            scale = np.linalg.norm(grad) + evals.max() * np.linalg.norm(theta)
            ok = bool(np.isfinite(arm_loss) and np.linalg.norm(g) <= TOL * scale)
        else:
            def on_span(z, fun_grad_hess=fun_grad_hess, span=span):
                arm_loss, g, h = fun_grad_hess(span @ z)
                return arm_loss, span.T @ g, lambda: span.T @ h() @ span

            res = minimize_newton(on_span, np.zeros(span.shape[1]))
            theta, ok = span @ res.x, res.converged
        thetas.append(theta)
        converged = converged and ok
    return RieszModel(gen, fb, thetas[0], thetas[1], converged)


# ---------------------------------------------------------------------------
# TMLE fluctuation and the iterative debiasing loop
# ---------------------------------------------------------------------------

def tmle_fluctuate(
    mu_model: OutcomeModel,
    alpha_model: RieszModel,
    x: np.ndarray,
    d: np.ndarray,
    y: np.ndarray,
) -> OutcomeModel:
    """One-dimensional update of mu along alpha zeroing the score residual.

    Returns a model whose arm-matched residuals are exactly orthogonal to
    alpha on the supplied labeled rows.
    """
    a1, a0 = alpha_model.a1_a0(x)
    d, y = arm_rows(d, a1, y), np.asarray(y, dtype=float)
    denom = float(np.sum(np.where(d == 1, a1, a0) ** 2))
    if denom == 0.0:
        raise ZeroDenominator("representer vanishes on every labeled row")
    eps = float(np.sum(weighted_residual(d, y, *mu_model.arms(x), a1, a0))) / denom
    return replace(mu_model, fluctuations=mu_model.fluctuations + ((alpha_model, eps),))


def ddml_iterate(
    data: OneSampleDataset,
    n_steps: int,
    gen: BregmanGenerator = LSIF,
    degree: int = 1,
    ridge_lambda: float = 1e-6,
    clip_c: Optional[float] = None,
) -> Tuple[OutcomeModel, RieszModel, list]:
    """Alternate weighted representer fits with TMLE fluctuations.

    Returns the final outcome and representer models plus the per-step
    magnitude of the empirical score residual |sum alpha * (y - mu)| / n.
    """
    check_integer("n_steps", n_steps, ValueError, low=1)
    xl, dl, yl = data.labeled_arrays()
    mu = fit_outcome_both(xl, dl, yl, degree=degree, ridge_lambda=ridge_lambda, clip_c=clip_c)
    alpha = None
    trace = []
    for _ in range(n_steps):
        res = yl - mu.predict_rows(dl, xl)
        alpha = fit_riesz(data, gen, degree, residuals=res)
        mu = tmle_fluctuate(mu, alpha, xl, dl, yl)
        score = float(np.sum(weighted_residual(dl, yl, *mu.arms(xl), *alpha.a1_a0(xl)))) / data.n
        trace.append(abs(score))
    return mu, alpha, trace


# ---------------------------------------------------------------------------
# Two-sample weighting denominator
# ---------------------------------------------------------------------------

@dataclass
class VBeta(_ArmPair):
    """Evaluable v(d, x) = e(d|x) / (beta + (1 - beta) / r(x))."""

    e_fn: Callable[[int, np.ndarray], np.ndarray]
    r_fn: Callable[[np.ndarray], np.ndarray]
    beta: float

    def arms(self, x: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        e1, e0 = arms(self.e_fn, x)
        den = self.beta + (1.0 - self.beta) / self.r_fn(x)
        return e1 / den, e0 / den


def assemble_v_beta(e_model, r_model, beta: float) -> VBeta:
    """Compose a propensity e(d, x) and a density ratio r(x), fitted models
    or plain callables alike, into v_beta."""
    check_beta("beta", beta)
    return VBeta(e_fn=e_model, r_fn=r_model, beta=float(beta))
