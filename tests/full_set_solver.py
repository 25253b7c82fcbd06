"""The inner solve before working sets: every iteration over all n coordinates.

Kept unchanged as the bitwise reference for the all-n case of
:func:`iklogit.solver.inner_solve`: with lam1 = 0, or a working set of at
least half of the coordinates, the solver must return exactly what this loop
returns, iterate for iterate.  It takes the same arguments and is a drop-in
replacement for ``iklogit.solver.inner_solve`` in a fit.

This loop's ``_products`` sums the support rows of a candidate with fewer
than n/2 nonzeros, where the solver takes full products over all n.  So the
bitwise claim holds while no all-n candidate has fewer than n/2 nonzeros;
the fits that compare the two meet that (every all-n candidate dense).
"""

from __future__ import annotations

import math

import numpy as np

from iklogit.errors import NumericalError, check_number
from iklogit.objective import loss_grad as loss_gradient
from iklogit.objective import DcObjective, loss_value, soft_threshold
from iklogit.solver import INNER_CHECK_FACTOR, InnerResult, SolverConfig
from iklogit.spectral import GramDecomposition


def _max_abs(v):
    return float(np.abs(v).max()) if v.size else 0.0


def _prox_residual(a, grad, step, t):
    return _max_abs(a - soft_threshold(a - step * grad, t))


def _products(decomp: GramDecomposition, a: np.ndarray):
    """K a, K+ a and the support of a.

    When fewer than half of a's coefficients are nonzero, K a is a sum of
    the support rows of K (which is symmetric); it differs from the full
    product only in rounding.  K- a is rho a.
    """
    nz = a.nonzero()[0]
    if 2 * nz.size < a.size:
        k_a = a[nz] @ decomp.gram[nz]
    else:
        k_a = decomp.gram @ a
    return k_a, k_a + decomp.shift * a, nz


# Overflow in the loop is diagnosed through the non-finite objective check.
@np.errstate(over="ignore", invalid="ignore")
def inner_solve(
    obj: DcObjective,
    omega: np.ndarray,
    alpha_k: np.ndarray,
    cfg: SolverConfig,
    step: float,
    tol: float,
    scores: np.ndarray,
    kminus: np.ndarray,
    loss_grad: np.ndarray,
    last_set=None,
) -> InnerResult:
    """Solve one linearized subproblem to the fixed-point tolerance ``tol``.

    Accelerated proximal gradient with step ``step`` = 1/L_phi (see
    :func:`smooth_lipschitz_bound`) from the warm start alpha_k, whose
    K alpha_k, K- alpha_k and loss gradient are ``scores``, ``kminus`` and
    ``loss_grad``.  When the momentum step raises the subproblem objective,
    momentum is discarded and a plain proximal-gradient step (guaranteed
    descent at step 1/L) is taken instead.  Each iteration takes the loss
    gradient at the momentum point only, and the candidate's K c and K- c
    from the rows of its support; the candidate's loss gradient is taken
    only for a restart or for the stop test, which runs once the momentum
    point's free residual is within INNER_CHECK_FACTOR of ``tol``.  Returns
    the first candidate whose exact residual passes ``tol``, with
    ``iterations`` its index, or the last candidate with ``converged=False``
    after ``cfg.max_inner`` steps.
    """
    anchor = np.asarray(alpha_k, dtype=np.float64)
    threshold = step * obj.lam1
    check_number("threshold", threshold, positive=False)
    lam, inv_gamma, decomp = obj.lam, 1.0 / cfg.gamma, obj.decomp
    # grad phi(a) = loss gradient + lam K+ a + a / gamma - shift, where
    # phi = g's smooth part - omega^T (a - alpha_k) + ||a - alpha_k||^2 / (2 gamma).
    shift = np.asarray(omega, dtype=np.float64) + inv_gamma * anchor

    def total(a, k_a, kp_a, nz):
        """phi + lam1 ||a||_1 at a, less the constant of the solve; the
        coefficient terms are sums over the support nz."""
        s = a[nz]
        coef_terms = s @ (0.5 * lam * kp_a[nz] + 0.5 * inv_gamma * s - shift[nz])
        l1_term = obj.lam1 * float(np.abs(s).sum())
        return loss_value(obj, k_a) + float(coef_terms) + l1_term

    def grad_phi(a, kp_a, lg_a):
        """grad phi at a from K+ a and the loss gradient."""
        return lg_a + lam * kp_a + inv_gamma * a - shift

    # x is the last candidate; its loss gradient lgx is None until needed.
    x, kx, kpx, lgx = anchor, scores, scores + kminus, loss_grad
    total_x = total(x, kx, kpx, x.nonzero()[0])
    y, kpy, lgy = x, kpx, lgx
    theta, beta = 1.0, 0.0
    for it in range(1, cfg.max_inner + 1):
        cand = soft_threshold(y - step * grad_phi(y, kpy, lgy), threshold)
        gap = _max_abs(y - cand)
        if beta == 0.0 and gap <= tol:
            # y is x, so gap is x's exact residual.
            return InnerResult(x, it - 1, gap, True, kx, kpx - kx, lgx)
        kc, kpc, nzc = _products(decomp, cand)
        total_c = total(cand, kc, kpc, nzc)
        if not math.isfinite(total_c):
            raise NumericalError("inner solve produced a non-finite objective")
        if total_c > total_x:
            theta = 1.0
            if beta != 0.0:
                # Momentum overshot; fall back to a plain step from x.
                if lgx is None:
                    lgx = loss_gradient(obj, kx)
                cand = soft_threshold(x - step * grad_phi(x, kpx, lgx), threshold)
                gap, beta = _max_abs(x - cand), 0.0
                if gap <= tol:
                    return InnerResult(x, it - 1, gap, True, kx, kpx - kx, lgx)
                kc, kpc, nzc = _products(decomp, cand)
                total_c = total(cand, kc, kpc, nzc)
        lgc = None
        if gap <= INNER_CHECK_FACTOR * tol:
            lgc = loss_gradient(obj, kc)
            residual = _prox_residual(cand, grad_phi(cand, kpc, lgc), step, threshold)
            if residual <= tol:
                return InnerResult(cand, it, residual, True, kc, kpc - kc, lgc)
        theta_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * theta * theta))
        beta = (theta - 1.0) / theta_next
        if beta == 0.0:
            # First step and the one after a restart: y is the candidate.
            if lgc is None:
                lgc = loss_gradient(obj, kc)
            y, kpy, lgy = cand, kpc, lgc
        else:
            # y is linear in the iterates, and so are K y and K+ y.
            y = cand + beta * (cand - x)
            kpy = kpc + beta * (kpc - kpx)
            lgy = loss_gradient(obj, kc + beta * (kc - kx))
        x, kx, kpx, lgx, total_x, theta = cand, kc, kpc, lgc, total_c, theta_next

    if lgx is None:
        lgx = loss_gradient(obj, kx)
    residual = _prox_residual(x, grad_phi(x, kpx, lgx), step, threshold)
    return InnerResult(x, cfg.max_inner, residual, False, kx, kpx - kx, lgx)
