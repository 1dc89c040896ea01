"""Population-level oracles for fully specified synthetic DGPs.

Every efficiency bound is evaluated exactly: by finite sums for
discrete-covariate DGPs and by tensor-product Gauss-Hermite quadrature
(64 nodes per dimension) for Gaussian-covariate DGPs, so oracle values
carry no Monte Carlo noise.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import reduce
from typing import Dict, Optional, Tuple

import numpy as np

from .errors import (BadAlpha, DimMismatch, DomainViolation, GridExcludesMinimum, arm_position,
                     check_beta)
from .nuisance import BregmanGenerator

_GH_NODES = 64
_NODE_BLOCK = _GH_NODES**2  # nodes per block of points the bounds are evaluated on


def _set_vector(dgp, name: str, size: int):
    """Store field ``name`` of a frozen DGP as a finite float array of length ``size``."""
    v = np.asarray(getattr(dgp, name), dtype=float)
    if v.shape != (size,):
        raise DimMismatch(f"{name} must have length {size}, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise DomainViolation(f"{name} must be finite, got {v.tolist()}")
    object.__setattr__(dgp, name, v)


def _check_prob(name: str, p: np.ndarray):
    if np.any(p <= 0.0) or np.any(p >= 1.0):
        raise DomainViolation(
            f"{name} must lie strictly inside (0, 1) on the support "
            "(common-support assumption)"
        )


# ---------------------------------------------------------------------------
# DGP families
# ---------------------------------------------------------------------------

class _Dgp:
    """What every DGP family derives the same way from its own laws. A family states its
    spec name ``family``, k, ``has_pi``, ``has_q``, ``q_vanishes``, ``_law_fields`` and, for a
    law "p" or "q", ``_node_blocks`` and ``_pdf``; then mu, sigma2, ``_e1``, ``_pi``, sample_x."""

    def _law(self, law: str) -> list:
        """The fields that give covariate law ``law``, "p" or "q"."""
        if law == "q" and not self.has_q:
            raise DomainViolation("DGP has no unlabeled covariate law q0")
        return [getattr(self, name) for name in self._law_fields[law]]

    def _covariates(self, x) -> np.ndarray:
        """``x`` as float rows of the DGP's k covariates; DimMismatch on another k."""
        x = np.atleast_2d(np.asarray(x, dtype=float))
        if x.shape[1] != self.k:
            raise DimMismatch(f"covariates have k={x.shape[1]}, the DGP has k={self.k}")
        return x

    def _nodes(self, law: str) -> Tuple[np.ndarray, np.ndarray]:
        blocks, w = self._node_blocks(law)
        return np.concatenate(list(blocks)), w

    def nodes_p(self) -> Tuple[np.ndarray, np.ndarray]:
        return self._nodes("p")

    def nodes_q(self) -> Tuple[np.ndarray, np.ndarray]:
        return self._nodes("q")

    def p_pdf(self, x: np.ndarray) -> np.ndarray:
        return self._pdf("p", x)

    def q_pdf(self, x: np.ndarray) -> np.ndarray:
        return self._pdf("q", x)

    def e(self, d: int, x: np.ndarray) -> np.ndarray:
        e1 = self._e1(x)
        return 1.0 - e1 if arm_position(d) else e1

    def pi(self, x: np.ndarray) -> np.ndarray:
        if not self.has_pi:
            raise DomainViolation("DGP has no observation probability pi0")
        return self._pi(x)

    def g(self, d: int, x: np.ndarray) -> np.ndarray:
        return self.pi(x) * self.e(d, x)

    def _draw_laws(self, x: np.ndarray, with_pi: bool):
        """Yield, for the samplers, pi(x) when ``with_pi``, then e(1, x), mu(1, x),
        mu(0, x), sigma2(1, x) and sigma2(0, x), each computed when it is drawn."""
        if with_pi:
            yield self.pi(x)
        for law, d in ((self.e, 1), (self.mu, 1), (self.mu, 0), (self.sigma2, 1), (self.sigma2, 0)):
            yield law(d, x)


@dataclass(frozen=True)
class DiscreteXDgp(_Dgp):
    """Finite-support covariate DGP with tabulated nuisances.

    ``q`` is the unlabeled covariate law of the two-sample scenario;
    ``pi1`` is the observation probability of the one-sample scenario.
    Either may be None when the corresponding scenario is not used.
    """

    xs: np.ndarray        # (S, k) support points
    p: np.ndarray         # (S,) masses of p0
    e1: np.ndarray        # (S,) P(D=1 | X)
    mu1: np.ndarray       # (S,)
    mu0: np.ndarray       # (S,)
    s2_1: np.ndarray      # (S,)
    s2_0: np.ndarray      # (S,)
    pi1: Optional[np.ndarray] = None   # (S,) P(O=1 | X)
    q: Optional[np.ndarray] = None     # (S,) masses of q0

    family = "DiscreteX"
    has_pi = property(lambda self: self.pi1 is not None)  # the optional laws it carries
    has_q = property(lambda self: self.q is not None)
    # whether q0 is 0 where p0 > 0: at a support point with no q mass
    q_vanishes = property(lambda self: self.q is not None and bool(np.any(self.q == 0.0)))
    _law_fields = {"p": ("p",), "q": ("q",)}  # the masses on the support points

    def __post_init__(self):
        xs = np.atleast_2d(np.asarray(self.xs, dtype=float))
        if len(np.unique(xs, axis=0)) < len(xs):
            raise DomainViolation("support points must be distinct")
        object.__setattr__(self, "xs", xs)
        for name in ("p", "e1", "mu1", "mu0", "s2_1", "s2_0", "pi1", "q"):
            if getattr(self, name) is not None:
                _set_vector(self, name, len(xs))  # one entry per support point
        if abs(float(np.sum(self.p)) - 1.0) > 1e-9:
            raise DomainViolation("p masses must sum to 1")
        if self.q is not None and (abs(float(np.sum(self.q)) - 1.0) > 1e-9 or np.any(self.q < 0)):
            raise DomainViolation("q masses must be nonnegative and sum to 1")
        if np.any(self.p <= 0.0):
            raise DomainViolation("p masses must be positive")
        _check_prob("e0(1|x)", self.e1)
        if self.pi1 is not None:
            _check_prob("pi0(1|x)", self.pi1)
        if np.any(self.s2_1 <= 0.0) or np.any(self.s2_0 <= 0.0):
            raise DomainViolation("conditional variances must be positive")

    @property
    def k(self) -> int:
        return self.xs.shape[1]

    def _lookup(self, x: np.ndarray) -> np.ndarray:
        x = self._covariates(x)
        out = np.full(len(x), -1, dtype=int)
        for s in range(self.xs.shape[0]):
            out[np.all(x == self.xs[s], axis=1)] = s
        if np.any(out < 0):
            bad = x[out < 0][0]
            raise DomainViolation(f"covariate {bad} is not a support point of the DGP")
        return out

    def _node_blocks(self, law: str):  # the support points are one block
        return [self.xs], self._law(law)[0]

    def _pdf(self, law: str, x: np.ndarray) -> np.ndarray:
        return self._law(law)[0][self._lookup(x)]

    def mu(self, d: int, x: np.ndarray) -> np.ndarray:
        return (self.mu1, self.mu0)[arm_position(d)][self._lookup(x)]

    def sigma2(self, d: int, x: np.ndarray) -> np.ndarray:
        return (self.s2_1, self.s2_0)[arm_position(d)][self._lookup(x)]

    def _e1(self, x: np.ndarray) -> np.ndarray:
        return self.e1[self._lookup(x)]

    def _pi(self, x: np.ndarray) -> np.ndarray:
        return self.pi1[self._lookup(x)]

    def _draw_laws(self, x: np.ndarray, with_pi: bool):
        """As ``_Dgp._draw_laws``, all from one support lookup (``pi`` raises without pi1)."""
        s = self._lookup(x)
        if with_pi:
            yield self.pi(self.xs)[s]
        for table in (self.e1, self.mu1, self.mu0, self.s2_1, self.s2_0):
            yield table[s]

    def sample_x(self, rng: np.random.Generator, n: int, law: str = "p") -> np.ndarray:
        masses = self._law(law)[0]
        return self.xs[rng.choice(len(masses), size=n, p=masses)]


@dataclass(frozen=True)
class GaussianLinearDgp(_Dgp):
    """Gaussian covariates (diagonal covariance), linear outcome means,
    constant conditional variances, logistic observation/treatment models.
    Coefficient vectors are intercept-first of length k + 1.
    """

    p_mean: np.ndarray
    p_var: np.ndarray
    mu1_coef: np.ndarray
    mu0_coef: np.ndarray
    s2_1: float
    s2_0: float
    e_coef: np.ndarray
    pi_coef: Optional[np.ndarray] = None
    q_mean: Optional[np.ndarray] = None
    q_var: Optional[np.ndarray] = None

    family = "GaussianLinear"
    has_pi = property(lambda self: self.pi_coef is not None)  # the optional laws it carries
    has_q = property(lambda self: self.q_mean is not None)
    q_vanishes = False  # a normal q0 is positive everywhere
    _law_fields = {"p": ("p_mean", "p_var"), "q": ("q_mean", "q_var")}

    def __post_init__(self):
        k = np.size(self.p_mean)
        if k == 0:  # no coordinate: no quadrature grid, and no covariate to sample
            raise DimMismatch("p_mean must have at least one coordinate")
        for name in ("p_mean", "p_var", "mu1_coef", "mu0_coef", "e_coef",
                     "pi_coef", "q_mean", "q_var"):
            if getattr(self, name) is not None:  # coefficients are intercept-first
                _set_vector(self, name, k + name.endswith("_coef"))
        if self.k > 3:
            raise DomainViolation("quadrature supports covariate dimension <= 3")
        if np.any(self.p_var <= 0.0):
            raise DomainViolation("covariate variances must be positive")
        if (self.q_mean is None) != (self.q_var is None):
            raise DomainViolation("q_mean and q_var must be given together")
        if self.q_var is not None and np.any(self.q_var <= 0.0):
            raise DomainViolation("covariate variances must be positive")
        if not (0.0 < self.s2_1 < np.inf and 0.0 < self.s2_0 < np.inf):  # NaN fails too
            raise DomainViolation("conditional variances must be positive and finite")

    @property
    def k(self) -> int:
        return len(self.p_mean)

    def _aug(self, x: np.ndarray) -> np.ndarray:
        x = self._covariates(x)
        return np.column_stack([np.ones(len(x)), x])

    def _node_blocks(self, law: str):
        """Law "p" or "q"'s tensor nodes in blocks of whole leading-axis slices (at most
        ``_NODE_BLOCK`` nodes, or one slice), and all weights as products ((1*w0)*w1)*w2."""
        mean, var = self._law(law)
        t, w = np.polynomial.hermite.hermgauss(_GH_NODES)
        axes = [mean[j] + np.sqrt(2.0 * var[j]) * t for j in range(self.k)]
        step = max(1, _NODE_BLOCK // _GH_NODES ** (self.k - 1))
        blocks = (np.stack(np.broadcast_arrays(*np.ix_(axes[0][i:i + step], *axes[1:])), axis=-1)
                  .reshape(-1, self.k) for i in range(0, _GH_NODES, step))
        return blocks, reduce(np.multiply.outer, [w / np.sqrt(np.pi)] * self.k, 1.0).ravel()

    def _pdf(self, law: str, x: np.ndarray) -> np.ndarray:
        mean, var = self._law(law)
        z = (self._covariates(x) - mean) ** 2 / var
        return np.exp(-0.5 * z.sum(axis=1)) / np.sqrt(np.prod(2.0 * np.pi * var))

    def mu(self, d: int, x: np.ndarray) -> np.ndarray:
        return self._aug(x) @ (self.mu1_coef, self.mu0_coef)[arm_position(d)]

    def sigma2(self, d: int, x: np.ndarray) -> np.ndarray:
        return np.full(len(self._covariates(x)), (self.s2_1, self.s2_0)[arm_position(d)])

    def _e1(self, x: np.ndarray) -> np.ndarray:
        return 1.0 / (1.0 + np.exp(-(self._aug(x) @ self.e_coef)))

    def _pi(self, x: np.ndarray) -> np.ndarray:
        return 1.0 / (1.0 + np.exp(-(self._aug(x) @ self.pi_coef)))

    def sample_x(self, rng: np.random.Generator, n: int, law: str = "p") -> np.ndarray:
        mean, var = self._law(law)
        return mean + rng.standard_normal((n, self.k)) * np.sqrt(var)


def dgp_d1() -> DiscreteXDgp:
    """Binary equiprobable covariate; pi0 = e0 = 1/2 so g0 = 1/4;
    mu0(1, x) = x, mu0(0, x) = 0; unit conditional variances."""
    return DiscreteXDgp(
        xs=np.array([[0.0], [1.0]]),
        p=np.array([0.5, 0.5]),
        pi1=np.array([0.5, 0.5]),
        e1=np.array([0.5, 0.5]),
        mu1=np.array([0.0, 1.0]),
        mu0=np.array([0.0, 0.0]),
        s2_1=np.array([1.0, 1.0]),
        s2_0=np.array([1.0, 1.0]),
        q=np.array([0.5, 0.5]),
    )


def dgp_d2() -> DiscreteXDgp:
    """Two-sample counterpart of dgp_d1: q0 = p0, e0 = 1/2."""
    return dgp_d1()


# ---------------------------------------------------------------------------
# Bounds
# ---------------------------------------------------------------------------

@dataclass
class BoundReport:
    tau0: float
    v_os: Optional[float] = None
    v_tilde_os: Optional[float] = None
    v_ipw: Optional[float] = None
    v_hahn: Optional[float] = None
    v_ts: Optional[Dict[float, float]] = None
    v_tilde_ts: Optional[float] = None
    beta_star: Optional[float] = None


def _tau_terms(dgp, law: str, **laws):
    """On ``law``'s nodes: the weights, tau(x), their weighted sum and, by name, each of
    ``laws``, filled in one block of nodes at a time so that no array of all points is held."""
    blocks, w = dgp._node_blocks(law)
    laws["tau"] = lambda x: dgp.mu(1, x) - dgp.mu(0, x)
    at, lo = {name: np.empty(len(w)) for name in laws}, 0
    for x in blocks:
        for name, fn in laws.items():
            at[name][lo:lo + len(x)] = fn(x)
        lo += len(x)
    tau_x = at.pop("tau")
    return w, tau_x, float(np.sum(w * tau_x)), at


def true_ate(dgp, beta: float = 1.0) -> float:
    """ATE under the evaluation density beta * p0 + (1 - beta) * q0."""
    check_beta("beta", beta)
    tau_p = _tau_terms(dgp, "p")[2]
    return tau_p if beta == 1.0 else beta * tau_p + (1.0 - beta) * _tau_terms(dgp, "q")[2]


def _het(w: np.ndarray, tau_x: np.ndarray, tau0: float) -> float:
    return float(np.sum(w * (tau_x - tau0) ** 2))


def _core(dgp, x: np.ndarray, prob) -> np.ndarray:
    """sigma2(1, x) / prob(1, x) + sigma2(0, x) / prob(0, x), with ``prob``
    the DGP's ``g`` (one-sample) or ``e`` (fully labeled, or two-sample)."""
    return dgp.sigma2(1, x) / prob(1, x) + dgp.sigma2(0, x) / prob(0, x)


_MAX_GRID_INTERVALS = 10**5  # a finer grid's argmin would take minutes, or more memory than RAM


def _grid(lo: float, hi: float, step: float) -> np.ndarray:
    """The argmin search grid from ``lo`` to ``hi``: round((hi - lo) / step) equal intervals.
    A step that is not positive or leaves fewer than 2 or more than ``_MAX_GRID_INTERVALS``
    intervals, or a range that is not finite lo < hi, is a ValueError naming the setting."""
    if not step > 0.0:  # NaN fails too
        raise ValueError("grid_step must be positive")
    if not -np.inf < lo < hi < np.inf:  # NaN fails too
        raise ValueError(f"grid needs finite grid_lo < grid_hi, got {lo} and {hi}")
    n = round(min((hi - lo) / step, _MAX_GRID_INTERVALS + 1))  # a tiny step's ratio is inf
    if not 2 <= n <= _MAX_GRID_INTERVALS:
        raise ValueError(f"grid_step must leave 2 to {_MAX_GRID_INTERVALS} intervals on "
                         f"[{lo:g}, {hi:g}], got {step}")
    return np.linspace(lo, hi, n + 1)


class _Terms:
    """A DGP's bounds from its laws evaluated once per node, summed in each formula's order
    of operations; the p nodes' laws are summed before the q nodes are built. ``report``
    holds tau0, V_hahn and the ``one_sample`` bounds; ``two_sample`` readies the sweep."""

    def __init__(self, dgp, one_sample: bool = False, two_sample: bool = False,
                 alpha: Optional[float] = None, grid_step: float = 0.01):
        self.grid = _grid(0.0, 1.0, grid_step)  # beta's
        if alpha is not None and not 0.0 < alpha < 1.0:
            raise BadAlpha("labeled fraction alpha must lie in (0, 1)")
        self.alpha = alpha
        laws = {"core_e": lambda x: _core(dgp, x, dgp.e)}
        if one_sample:
            laws["core_g"] = lambda x: _core(dgp, x, dgp.g)
            laws["ipw"] = lambda x: ((dgp.sigma2(1, x) + dgp.mu(1, x) ** 2) / dgp.g(1, x)
                                     + (dgp.sigma2(0, x) + dgp.mu(0, x) ** 2) / dgp.g(0, x))
        if two_sample:
            laws.update(p=dgp.p_pdf, q=dgp.q_pdf)
        self.w, self.tau_x, self.tau, at = _tau_terms(dgp, "p", **laws)
        w, het = self.w, _het(self.w, self.tau_x, self.tau)
        self.core_e = w * at.pop("core_e")
        self.report = report = BoundReport(tau0=self.tau, v_hahn=float(np.sum(self.core_e)) + het)
        if one_sample:
            report.v_tilde_os = float(np.sum(w * at.pop("core_g")))
            report.v_os = report.v_tilde_os + het
            report.v_ipw = float(np.sum(w * at.pop("ipw")))
        if two_sample:
            self.p, self.q = at["p"], at["q"]
            self.wq, self.tau_qx, self.tau_q, _ = _tau_terms(dgp, "q")

    def v_tilde_ts(self, beta: float) -> float:
        return float(np.sum(self.core_e * ((beta * self.p + (1.0 - beta) * self.q) / self.p) ** 2))

    def v_ts(self, beta: float) -> float:
        alpha = self.alpha
        tau0 = self.tau if beta == 1.0 else beta * self.tau + (1.0 - beta) * self.tau_q
        return (self.v_tilde_ts(beta) / alpha + (beta**2 / alpha) * _het(self.w, self.tau_x, tau0)
                + ((1.0 - beta) ** 2 / (1.0 - alpha)) * _het(self.wq, self.tau_qx, tau0))

    def sweep(self) -> BoundReport:
        """``report`` with beta_star, V_ts at 0, 1/2, beta_star and 1, V~_ts at beta_star."""
        bs = float(self.grid[int(np.argmin([self.v_ts(float(b)) for b in self.grid]))])
        self.report.beta_star, self.report.v_tilde_ts = bs, self.v_tilde_ts(bs)
        self.report.v_ts = {b: self.v_ts(b) for b in (0.0, 0.5, bs, 1.0)}
        return self.report


def bound_v_os(dgp) -> float:
    return _Terms(dgp, one_sample=True).report.v_os


def bound_v_tilde_os(dgp) -> float:
    return _Terms(dgp, one_sample=True).report.v_tilde_os


def bound_v_ipw(dgp) -> float:
    return _Terms(dgp, one_sample=True).report.v_ipw


def bound_v_hahn(dgp) -> float:
    """Fully labeled efficiency bound: pi0 treated as identically 1."""
    return _Terms(dgp).report.v_hahn


def bound_v_tilde_ts(dgp, beta: float) -> float:
    check_beta("beta", beta)
    return _Terms(dgp, two_sample=True).v_tilde_ts(beta)


def bound_v_ts(dgp, beta: float, alpha: float) -> float:
    check_beta("beta", beta)
    return _Terms(dgp, two_sample=True, alpha=alpha).v_ts(beta)


def beta_star(dgp, alpha: float, grid_step: float = 0.01) -> float:
    """Grid argmin of the two-sample bound over beta; ties go to smaller beta."""
    return _Terms(dgp, two_sample=True, alpha=alpha, grid_step=grid_step).sweep().beta_star


def oracle_bounds(dgp, alpha: Optional[float] = None, grid_step: float = 0.01) -> BoundReport:
    """All bounds the DGP supports, in one report from one ``_Terms``; ``grid_step``, for
    beta_star, and a given ``alpha`` are checked whether or not the two-sample bounds apply."""
    two_sample = dgp.has_q and alpha is not None
    terms = _Terms(dgp, dgp.has_pi, two_sample, alpha, grid_step)
    return terms.sweep() if two_sample else terms.report


# ---------------------------------------------------------------------------
# Brute-force representer oracle
# ---------------------------------------------------------------------------

def brute_force_riesz(
    dgp: DiscreteXDgp,
    gen: BregmanGenerator,
    grid_lo: float = -8.0,
    grid_hi: float = 8.0,
    grid_step: float = 0.01,
) -> Tuple[np.ndarray, np.ndarray]:
    """Exhaustive per-cell minimization of the population divergence objective.

    The objective separates across support cells and across arms, so each
    cell's (a1, a0) is an independent one-dimensional grid argmin of the
    exact population expectation, taken for all cells at once from one
    (cells x grid) objective per arm. Returns arrays (a1_star, a0_star) over
    the support order of the DGP.
    """
    if not isinstance(dgp, DiscreteXDgp):
        raise DomainViolation("brute-force oracle requires a discrete-covariate DGP")
    grid = _grid(grid_lo, grid_hi, grid_step)
    g1, g0 = (dgp.g(d, dgp.xs)[:, None] for d in (1, 0))
    if gen.tag == "LSIF":
        objs = (g1 * grid**2 - 2.0 * grid, g0 * grid**2 + 2.0 * grid)
    else:
        log1, log0 = np.log(np.maximum(grid - 1.0, 1e-300)), np.log(np.maximum(-grid - 1.0, 1e-300))
        objs = (np.where(grid > 1.0, g1 * (log1 + grid) - log1, np.inf),
                np.where(grid < -1.0, g0 * (log0 - grid) - log0, np.inf))
    stars = []
    for obj in objs:
        finite = np.flatnonzero(np.isfinite(obj).all(axis=0))  # the arm's domain on the grid
        idx = np.argmin(obj, axis=1)
        edge = idx[~np.isin(idx, finite[1:-1])]  # not strictly inside the finite range
        if len(edge):
            raise GridExcludesMinimum(
                f"grid argmin {grid[edge[0]]:g} lies on the grid boundary; widen the grid")
        stars.append(grid[idx])
    return stars[0], stars[1]


# ---------------------------------------------------------------------------
# Serialization (CLI spec files)
# ---------------------------------------------------------------------------

def dgp_to_dict(dgp) -> dict:
    """The DGP's family and its set fields in declaration order, arrays as lists."""
    out = {"family": dgp.family}
    for f in fields(dgp):
        val = getattr(dgp, f.name)
        if val is not None:
            out[f.name] = val.tolist() if isinstance(val, np.ndarray) else val
    return out


def dgp_from_dict(spec: dict):
    if not isinstance(spec, dict):
        raise DomainViolation(f"a DGP spec must be a JSON object, got {type(spec).__name__}")
    cls = {c.family: c for c in _Dgp.__subclasses__()}.get(spec.get("family"))
    if cls is None:
        raise DomainViolation(f"unknown DGP family {spec.get('family')!r}")
    try:
        return cls(**{k: v for k, v in spec.items() if k != "family"})
    except TypeError as exc:  # a missing or unknown field, or a value of the wrong type
        raise DomainViolation(f"bad {cls.family} spec: {exc}") from None
