"""Independent reference implementations used as test oracles.

Everything here is written directly from the mathematical definitions,
on raw arrays, with its own numerics (scipy where convenient).  Nothing
imports from the package under test, so agreement between the two routes
is meaningful.  Frozen: changes here require re-deriving the expected
values, not tweaking them to match the implementation.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.optimize import minimize
from scipy.special import expit


def ref_softplus_scalar(u: float) -> float:
    if u > 0:
        return u + math.log1p(math.exp(-u))
    return math.log1p(math.exp(u))


def ref_soft_threshold(v: np.ndarray, t: float) -> np.ndarray:
    v = np.asarray(v, dtype=float)
    return np.where(v > t, v - t, np.where(v < -t, v + t, 0.0))


def ref_full_objective(gram, y, lam, lam1, alpha) -> float:
    """Term-by-term f(alpha) with explicit loops (no vectorized reuse)."""
    n = len(y)
    loss = 0.0
    for i in range(n):
        score = 0.0
        for j in range(n):
            score += gram[i][j] * alpha[j]
        loss += ref_softplus_scalar(-y[i] * score)
    loss /= n
    quad = 0.0
    for i in range(n):
        for j in range(n):
            quad += alpha[i] * gram[i][j] * alpha[j]
    l1 = sum(abs(a) for a in alpha)
    return loss + 0.5 * lam * quad + lam1 * l1


def _loss_and_grad(gram, y, alpha):
    scores = gram @ alpha
    margins = y * scores
    loss = float(np.mean(np.logaddexp(0.0, -margins)))
    grad = -(gram @ (y * expit(-margins))) / len(y)
    return loss, grad


def ref_inner_objective(gram, kplus, y, lam, lam1, omega, anchor, gamma, alpha):
    """Subproblem value: loss + (lam/2) a'K+ a + lam1|a|_1 - w'(a-ak) + |a-ak|^2/(2g)."""
    loss, _ = _loss_and_grad(gram, y, alpha)
    diff = alpha - anchor
    return (
        loss
        + 0.5 * lam * float(alpha @ (kplus @ alpha))
        + lam1 * float(np.abs(alpha).sum())
        - float(omega @ diff)
        + float(diff @ diff) / (2.0 * gamma)
    )


def ref_inner_prox_gradient(
    gram, kplus, y, lam, lam1, omega, anchor, gamma, max_iter=200_000
):
    """Plain (unaccelerated) proximal gradient on the subproblem.

    Step size from independently computed spectral norms; runs until the
    iterate repeats, bitwise, any earlier iterate of the run (a fixed point
    or a rounding cycle), or the cap.  Serves as the long-run oracle for
    the accelerated inner solver.
    """
    n = len(y)
    lip = (
        np.linalg.norm(gram, 2) ** 2 / (4.0 * n)
        + lam * np.linalg.norm(kplus, 2)
        + 1.0 / gamma
    )
    t = 1.0 / lip
    alpha = np.asarray(anchor, dtype=float).copy()
    seen = {alpha.tobytes()}
    for _ in range(max_iter):
        _, loss_grad = _loss_and_grad(gram, y, alpha)
        grad = loss_grad + lam * (kplus @ alpha) - omega + (alpha - anchor) / gamma
        new = ref_soft_threshold(alpha - t * grad, t * lam1)
        if new.tobytes() in seen:
            break
        seen.add(new.tobytes())
        alpha = new
    return alpha


def ref_klr_solve(gram, y, lam):
    """Direct convex solve of the smooth PSD-kernel model (no L1 term).

    Returns (alpha, objective value) from L-BFGS-B at tight tolerances.
    """
    n = len(y)

    def fun(alpha):
        loss, loss_grad = _loss_and_grad(gram, y, alpha)
        val = loss + 0.5 * lam * float(alpha @ (gram @ alpha))
        grad = loss_grad + lam * (gram @ alpha)
        return val, grad

    res = minimize(
        fun,
        np.zeros(n),
        jac=True,
        method="L-BFGS-B",
        options={"maxiter": 50_000, "ftol": 1e-16, "gtol": 1e-12},
    )
    return res.x, float(res.fun)


def ref_l1_klr_solve(gram, y, lam, lam1):
    """Direct convex solve of the L1 PSD-kernel model.

    Exact smooth reformulation alpha = p - q with p, q >= 0, solved by
    bound-constrained L-BFGS-B.  Returns (alpha, objective value of the
    original L1 problem).
    """
    n = len(y)

    def fun(z):
        p, q = z[:n], z[n:]
        alpha = p - q
        loss, loss_grad = _loss_and_grad(gram, y, alpha)
        smooth_grad = loss_grad + lam * (gram @ alpha)
        val = (
            loss
            + 0.5 * lam * float(alpha @ (gram @ alpha))
            + lam1 * float(np.sum(p + q))
        )
        return val, np.concatenate([smooth_grad + lam1, -smooth_grad + lam1])

    res = minimize(
        fun,
        np.zeros(2 * n),
        jac=True,
        method="L-BFGS-B",
        bounds=[(0.0, None)] * (2 * n),
        options={"maxiter": 50_000, "ftol": 1e-16, "gtol": 1e-12},
    )
    alpha = res.x[:n] - res.x[n:]
    value = (
        _loss_and_grad(gram, y, alpha)[0]
        + 0.5 * lam * float(alpha @ (gram @ alpha))
        + lam1 * float(np.abs(alpha).sum())
    )
    return alpha, value


def ref_tl1_gram(features: np.ndarray, eta: float) -> np.ndarray:
    """Nested-loop TL1 Gram, the obvious way."""
    n = len(features)
    out = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            dist = float(np.sum(np.abs(features[i] - features[j])))
            out[i, j] = max(eta - dist, 0.0)
    return out


def central_difference_gradient(func, alpha, step=1e-6):
    """Componentwise central finite differences of a scalar function."""
    alpha = np.asarray(alpha, dtype=float)
    grad = np.zeros_like(alpha)
    for i in range(len(alpha)):
        up = alpha.copy()
        dn = alpha.copy()
        up[i] += step
        dn[i] -= step
        grad[i] = (func(up) - func(dn)) / (2.0 * step)
    return grad
