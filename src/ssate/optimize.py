"""Deterministic full-batch optimizers used by the nuisance fits."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Tuple

import numpy as np


MAX_ITER = 5000
TOL = 1e-8  # stopping rule on the gradient norm


@dataclass(frozen=True)
class OptResult:
    x: np.ndarray
    loss: float
    grad_norm: float
    converged: bool
    n_iter: int


def minimize_gd(
    fun_grad: Callable[[np.ndarray], Tuple[float, np.ndarray]],
    x0: np.ndarray,
) -> OptResult:
    """Gradient descent with Armijo backtracking (halving) line search.

    The step size is warm-started from the previous iteration (doubled) so
    well-conditioned problems take near-constant steps. ``converged`` is
    true only when the final gradient norm is within ``TOL``.
    """
    x = np.asarray(x0, dtype=float).copy()
    loss, grad = fun_grad(x)
    step = 1.0
    for it in range(MAX_ITER):
        gnorm = float(np.linalg.norm(grad))
        if gnorm <= TOL:
            return OptResult(x, loss, gnorm, True, it)
        step = min(step * 2.0, 1e8)
        g2 = gnorm * gnorm
        while True:
            x_new = x - step * grad
            loss_new, grad_new = fun_grad(x_new)
            if np.isfinite(loss_new) and loss_new <= loss - 1e-4 * step * g2:
                break
            step *= 0.5
            if step < 1e-20:
                # no descent possible at machine precision
                return OptResult(x, loss, gnorm, bool(gnorm <= TOL), it)
        x, loss, grad = x_new, loss_new, grad_new
    gnorm = float(np.linalg.norm(grad))
    return OptResult(x, loss, gnorm, bool(gnorm <= TOL), MAX_ITER)


def minimize_newton(
    fun_grad_hess: Callable[[np.ndarray], Tuple[float, np.ndarray, Callable[[], np.ndarray]]],
    x0: np.ndarray,
) -> OptResult:
    """Damped Newton with Armijo backtracking.

    Used for the convex fits (logistic / multinomial likelihoods and the
    UKL representer), where the exact Hessian is cheap and the problem may
    be badly conditioned for plain gradient descent. Falls back to the gradient
    direction when the Hessian solve fails.

    ``fun_grad_hess(x)`` returns ``(loss, grad, hess)``, ``hess`` a zero-argument
    callable for the Hessian at ``x``, called once per iteration for its direction:
    the converged point and rejected line-search trials never build it.
    """
    x = np.asarray(x0, dtype=float).copy()
    loss, grad, hess = fun_grad_hess(x)
    ridge = 1e-12 * np.eye(len(x))  # keeps the direction well-defined near flat regions
    for it in range(MAX_ITER):
        gnorm = float(np.linalg.norm(grad))
        if gnorm <= TOL:
            return OptResult(x, loss, gnorm, True, it)
        try:
            direction = np.linalg.solve(hess() + ridge, grad)
        except np.linalg.LinAlgError:
            direction = grad
        slope = float(grad @ direction)
        if slope <= 0:
            direction = grad
            slope = gnorm * gnorm
        # accept round-off in the loss: near the minimum the predicted
        # decrease falls below it and the search would stall above ``tol``
        slack = 64 * np.finfo(float).eps * max(1.0, abs(loss))
        step = 1.0
        while True:
            x_new = x - step * direction
            out = fun_grad_hess(x_new)
            if np.isfinite(out[0]) and out[0] <= loss - 1e-4 * step * slope + slack:
                break
            step *= 0.5
            if step < 1e-20:
                return OptResult(x, loss, gnorm, bool(gnorm <= TOL), it)
        x, (loss, grad, hess) = x_new, out
    gnorm = float(np.linalg.norm(grad))
    return OptResult(x, loss, gnorm, bool(gnorm <= TOL), MAX_ITER)
