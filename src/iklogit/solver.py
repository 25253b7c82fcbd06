"""Proximal linearized solver for the DC objective f = g - h.

Outer loop: at iterate alpha_k, the concave side is linearized through
omega_k = grad_h(alpha_k) and the next iterate solves the strongly convex
subproblem

    min_a  loss(a) + (lam/2) a^T K+ a + lam1 ||a||_1
           - omega_k^T (a - alpha_k) + (1/(2 gamma)) ||a - alpha_k||^2

with a constant proximal weight gamma, starting from alpha_0 = 0.

Inexact inner solves: step k's subproblem is solved to the fixed-point
tolerance max(epsilon_inner, INNER_RTOL * ||alpha_k - alpha_{k-1}||), so it
is solved loosely while the iterates still move far and tightly near a
critical point, where the steps shrink (inexact descent with a relative
error bound, Attouch, Bolte & Svaiter, Math. Program. 2013).  The first
step, with no previous one, uses epsilon_inner.  With INNER_RTOL = 0 every
subproblem is solved to epsilon_inner, the paper's fixed inner tolerance,
under the guarded outer stop below.

The outer loop stops when max(||a_{k+1} - a_k||, |f_k - f_{k+1}|) falls
below epsilon_outer and the stationarity residual is at most
10 epsilon_outer, or at max_outer.  A step that repeats its iterate
exactly stops when the residual is at most max(10 epsilon_outer,
epsilon_inner).  The residual guard keeps a short inexact step, or a loose
solve that returns its warm start after 0 iterations, from passing for a
critical point.  After a zero step the next solve runs at epsilon_inner, so
a repeat that still returns its warm start has a residual of at most
epsilon_inner: the repeat's looser bound stops it there instead of at
max_outer when epsilon_inner > 10 epsilon_outer.

Divergence certificate: the first outer step with f <= 0 stops the fit.
At a critical point, 0 in grad loss + lam K a + lam1 d||a||_1; its inner
product with a gives lam a^T K a = (1/n) sum m_i s_i - lam1 ||a||_1, with
margins m_i = y_i (K a)_i and s_i = sigmoid(-m_i), so

    f(a) = (1/n) sum phi(m_i) + (lam1/2) ||a||_1,
    phi(m) = ln(1 + e^-m) + (m/2) sigmoid(-m) > 0

(for m < 0, ln(1 + e^-m) > -m and m sigmoid(-m) >= m).  Every critical
point has f > 0.  PLA does not increase f and its accumulation points are
critical, so once some f_k <= 0 the iterates have no bounded subsequence.
The iterate-norm cap DIVERGENCE_NORM stays as a backstop for unbounded
iterates whose f stays above 0, a case the certificate does not cover.

Inner loop: accelerated proximal gradient (momentum restart on objective
increase) with the fixed step 1/L_phi from :func:`smooth_lipschitz_bound`,
which pla_fit computes once per fit, warm-started at alpha_k.  Convergence
is certified by the proximal fixed-point residual
||a - S_{t*lam1}(a - t grad_phi(a))||_inf, evaluated at the point actually
returned.

Product budget: every product with K and K- is computed once per point and
carried next to the iterate.  An inner iteration makes one full n x n
product: the loss gradient K (y * s) at the momentum point y.  K y and K+ y
are combinations of the carried products, since y = c + beta (c - x) is
linear in the iterates.  The candidate c = S(y - t grad phi(y)) comes out
of the L1 prox, so it is mostly sparse: while fewer than half of its
coefficients are nonzero, K c and W^T c are sums of the support rows of K
and W (full products otherwise), and K- c = tau c + W (W^T c) adds one
low-rank expansion.  The candidate's loss gradient, a second full product,
is taken in two cases only.  A momentum restart needs it at the last
candidate x, for the plain step from x.  The stop test needs it once the
momentum point's residual ||y - c||_inf, which costs nothing, is at most
INNER_CHECK_FACTOR times the tolerance; when beta = 0 (the first iteration
and the one after a restart) y is x, that residual is x's exact one, and x
is returned with the products it carries.  The outer loop adds no product
of its own: K a, K- a and the loss gradient of the new iterate come back
from the inner solve and serve f_value, grad_h, the stationarity residual
and the next warm start.  Only the starting point costs two dense products
(K a and the loss gradient) and one low-rank K- a.  No function computes a
product it is not given: each takes the products it needs as arguments.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InputError, NumericalError, check_number
from .objective import DcObjective, f_value, grad_h, loss_value, soft_threshold
from .objective import loss_grad as loss_gradient
from .spectral import GramDecomposition

CONVERGED = "converged"
MAX_ITERATIONS = "max_iterations"
DIVERGED = "diverged"

RATE_OK = "ok"
RATE_INSUFFICIENT = "insufficient_data"
RATE_DEGENERATE = "degenerate"

# Iterate-norm cap, the backstop to the f <= 0 certificate: the objective
# is unbounded below for strongly indefinite Grams, and runaway iterates
# signal exactly that.
DIVERGENCE_NORM = 1e12

# Step k's inner tolerance is max(epsilon_inner, INNER_RTOL * ||alpha_k -
# alpha_{k-1}||); 0 gives the fixed tolerance epsilon_inner.
INNER_RTOL = 1e-3

# An inner iteration's candidate c pays a full product (its loss gradient)
# for its exact residual only when the momentum point's free residual
# ||y - c||_inf is at most INNER_CHECK_FACTOR * tol: a smaller factor checks
# less often but can stop later.  One unit of the benchmark workloads at
# factors 1, 3, 10 and infinity (check every candidate): bench-protocol
# takes 53,366, 49,693, 46,698 and 46,146 inner iterations, and fit-tl1
# 14,662, 14,491, 16,935 and 24,788 full products.
INNER_CHECK_FACTOR = 3.0

log = logging.getLogger(__name__)


@dataclass
class SolverConfig:
    """Proximal weight, tolerances and iteration caps of the two loops.

    ``gamma`` is the constant proximal weight, a positive number.
    ``epsilon_inner`` is the floor of each inner tolerance (see INNER_RTOL).
    """

    gamma: float = 1.0
    epsilon_outer: float = 1e-4
    max_outer: int = 500
    epsilon_inner: float = 1e-8
    max_inner: int = 5000

    def __post_init__(self) -> None:
        check_number("gamma", self.gamma)
        self.gamma = float(self.gamma)
        check_number("epsilon_outer", self.epsilon_outer)
        check_number("epsilon_inner", self.epsilon_inner)
        for name in ("max_outer", "max_inner"):
            val = getattr(self, name)
            if not (isinstance(val, int) and not isinstance(val, bool) and val >= 1):
                raise InputError(f"{name} must be a positive integer, got {val!r}")


@dataclass(frozen=True)
class InnerResult:
    """Outcome of one subproblem solve.

    ``iterations`` is the index of the returned iterate (0 for the warm
    start).  ``scores`` is K alpha, ``kminus`` is K- alpha and
    ``loss_grad`` is the loss gradient at alpha (see
    :func:`.objective.loss_grad`).
    """

    alpha: np.ndarray
    iterations: int
    residual: float
    converged: bool
    scores: np.ndarray
    kminus: np.ndarray
    loss_grad: np.ndarray


@dataclass
class SolveTrace:
    """Per-outer-iteration diagnostics of a pla_fit run.

    ``f_values`` and ``iterates`` carry the initial point, so they are one
    longer than the per-step lists.
    """

    f_values: list[float] = field(default_factory=list)
    step_norms: list[float] = field(default_factory=list)
    stationarity_residuals: list[float] = field(default_factory=list)
    inner_iterations: list[int] = field(default_factory=list)
    inner_converged: list[bool] = field(default_factory=list)
    iterates: list[np.ndarray] = field(default_factory=list)
    status: str = MAX_ITERATIONS

    @property
    def num_iterations(self) -> int:
        return len(self.step_norms)

    def to_records(self) -> list[dict]:
        """One structured row per outer iteration, for export/plotting."""
        return [
            {
                "iteration": k + 1,
                "objective": self.f_values[k + 1],
                "step_norm": self.step_norms[k],
                "stationarity_residual": self.stationarity_residuals[k],
                "inner_iterations": self.inner_iterations[k],
                "inner_converged": self.inner_converged[k],
            }
            for k in range(self.num_iterations)
        ]


def smooth_lipschitz_bound(obj: DcObjective, gamma: float) -> float:
    """Upper bound on the Lipschitz constant of the subproblem's smooth part.

    Sum of the three smooth pieces' curvature bounds: the logistic loss
    contributes ||K||_2^2 / (4n), the quadratic lam * ||K+||_2, and the
    proximal term 1/gamma.  ||K||_2 and ||K+||_2 = max(mu_1, 0) + tau come
    from the decomposition's stored norms: exact from the spectrum, or the
    power iteration's upper bound for a Gram declared PSD.
    """
    decomp = obj.decomp
    kplus_norm = decomp.top_eigenvalue + decomp.tau
    return decomp.spectral_norm**2 / (4.0 * obj.n) + obj.lam * kplus_norm + 1.0 / gamma


def _max_abs(v: np.ndarray) -> float:
    return float(np.abs(v).max()) if v.size else 0.0


def _prox_residual(a: np.ndarray, grad: np.ndarray, step: float, t: float) -> float:
    """Proximal fixed-point residual ||a - S_t(a - step grad)||_inf."""
    return _max_abs(a - soft_threshold(a - step * grad, t))


def _products(decomp: GramDecomposition, a: np.ndarray):
    """K a, K+ a and the support of a.

    When fewer than half of a's coefficients are nonzero, K a and W^T a are
    sums of the support rows of K (which is symmetric) and W; they differ
    from the full products only in rounding.
    """
    nz = a.nonzero()[0]
    if 2 * nz.size < a.size:
        coef = a[nz]
        k_a = coef @ decomp.gram[nz]
        kminus_a = decomp.tau * a + decomp.lowrank @ (coef @ decomp.lowrank[nz])
    else:
        k_a = decomp.gram @ a
        kminus_a = decomp.kminus_dot(a)
    return k_a, k_a + kminus_a, nz


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


def stationarity_residual(
    obj: DcObjective,
    alpha: np.ndarray,
    step: float,
    scores: np.ndarray,
    loss_grad: np.ndarray,
) -> float:
    """Proximal fixed-point residual of the full DC objective at alpha.

    Zero exactly at critical points (grad_h(a) in the subdifferential of g).
    ``step`` is the inner step 1/L_phi, so the scale matches the inner
    certificate; ``scores`` and ``loss_grad`` are K alpha and the loss
    gradient at alpha.
    """
    a = np.asarray(alpha, dtype=np.float64)
    check_number("threshold", step * obj.lam1, positive=False)
    # grad g - grad h = loss gradient + lam (K+ - K-) a = ... + lam K a.
    return _prox_residual(a, loss_grad + obj.lam * scores, step, step * obj.lam1)


def pla_fit(obj: DcObjective, cfg: SolverConfig) -> tuple[np.ndarray, SolveTrace]:
    """Run the outer proximal linearized iteration from 0 to a critical point.

    Returns the final iterate and the full trace.  Hitting ``max_outer``
    yields status ``max_iterations`` rather than an exception; inner-solve
    iteration caps are recorded per step in ``trace.inner_converged``.
    A diverging fit raises NumericalError whose ``trace`` is the partial
    trace with status ``diverged``: at the first outer step with f <= 0
    (the certificate of the module docstring; the trace includes that
    step), at an iterate norm above DIVERGENCE_NORM, or at a non-finite f.
    Every stop is logged at INFO with its status, outer step, total inner
    iterations, f (nan when the norm cap fires, before f is evaluated) and
    iterate norm.  Step k's inner tolerance and the stop rule are those of
    the module docstring.
    """
    alpha = np.zeros(obj.n, dtype=np.float64)
    trace = SolveTrace()
    step = 1.0 / smooth_lipschitz_bound(obj, cfg.gamma)
    # K alpha, K- alpha and the loss gradient of the current iterate, carried
    # from one inner solve to the next.
    scores = obj.decomp.gram @ alpha
    kminus = obj.decomp.kminus_dot(alpha)
    loss_grad = loss_gradient(obj, scores)
    f_cur = f_value(obj, alpha, scores)
    trace.f_values.append(f_cur)
    trace.iterates.append(alpha.copy())
    moved = 0.0  # the first solve has no previous step and runs to epsilon_inner
    inner_total = 0

    for k in range(1, cfg.max_outer + 1):
        omega = grad_h(obj, alpha, kminus)
        tol = max(cfg.epsilon_inner, INNER_RTOL * moved)
        inner = inner_solve(obj, omega, alpha, cfg, step, tol, scores, kminus, loss_grad)
        alpha_new, scores = inner.alpha, inner.scores
        kminus, loss_grad = inner.kminus, inner.loss_grad
        inner_total += inner.iterations
        norm_new = float(np.linalg.norm(alpha_new))
        if norm_new > DIVERGENCE_NORM:
            raise _diverged(
                trace, k, math.nan, norm_new, inner_total,
                f"iterates are diverging (norm {norm_new:.3e} at outer step {k}); "
                "the objective is likely unbounded below for these weights",
            )
        f_new = f_value(obj, alpha_new, scores)
        if not np.isfinite(f_new):
            raise _diverged(trace, k, f_new, norm_new, inner_total,
                            f"objective became non-finite at outer step {k}")

        moved = float(np.linalg.norm(alpha_new - alpha))
        trace.f_values.append(f_new)
        trace.iterates.append(alpha_new.copy())
        trace.step_norms.append(moved)
        residual = stationarity_residual(obj, alpha_new, step, scores, loss_grad)
        trace.stationarity_residuals.append(residual)
        trace.inner_iterations.append(inner.iterations)
        trace.inner_converged.append(inner.converged)
        if f_new <= 0.0:
            raise _diverged(
                trace, k, f_new, norm_new, inner_total,
                f"iterates are diverging (f = {f_new:.6g} <= 0 at outer step {k}, "
                f"norm {norm_new:.3e}); every critical point has f > 0, so the "
                "objective is unbounded below along this path",
            )

        exact_repeat = bool(np.array_equal(alpha_new, alpha))
        delta_f = abs(f_cur - f_new)
        alpha, f_cur = alpha_new, f_new
        # An exact repeat or the combined rule, each only at a small residual.
        bound = 10.0 * cfg.epsilon_outer
        if exact_repeat:
            bound = max(bound, cfg.epsilon_inner)
        if (exact_repeat or max(moved, delta_f) < cfg.epsilon_outer) and residual <= bound:
            trace.status = CONVERGED
            break

    _log_stop(trace.status, trace.num_iterations, inner_total, f_cur, norm_new)
    return alpha, trace


def _diverged(
    trace: SolveTrace, k: int, f: float, norm: float, inner_total: int, message: str
) -> NumericalError:
    """Mark the trace diverged at outer step k, log the stop, and build the error."""
    trace.status = DIVERGED
    _log_stop(DIVERGED, k, inner_total, f, norm)
    return NumericalError(message, trace=trace)


def _log_stop(status: str, k: int, inner_total: int, f: float, norm: float) -> None:
    log.info("PLA stopped: %s at outer step %d (%d inner iterations), "
             "f = %.10g, ||alpha|| = %.4g", status, k, inner_total, f, norm)


@dataclass(frozen=True)
class RateEstimate:
    """Qualitative linear-rate fit over the tail of a converged run."""

    m_hat: float | None
    r_squared: float | None
    n_points: int
    status: str


def rate_monitor(
    trace: SolveTrace, alpha_star: np.ndarray, tail_fraction: float = 0.5
) -> RateEstimate:
    """Estimate the per-step contraction ratio from trace iterates.

    Fits log ||alpha_k - alpha_star|| linearly in k over the trailing
    ``tail_fraction`` of the run and reports m_hat = exp(slope).  Zero
    distances are excluded; fewer than 4 usable points or a flat tail is
    flagged instead of fitted.
    """
    if not (0 < tail_fraction <= 1):
        raise InputError(f"tail_fraction must lie in (0, 1], got {tail_fraction}")
    star = np.asarray(alpha_star, dtype=np.float64)
    dists = np.array([np.linalg.norm(it - star) for it in trace.iterates])
    total = len(dists)
    tail_len = max(int(math.ceil(tail_fraction * total)), 1)
    idx = np.arange(total)[-tail_len:]
    tail = dists[-tail_len:]

    keep = tail > 0
    if tail_len and not np.any(keep):
        return RateEstimate(None, None, 0, RATE_DEGENERATE)
    idx, tail = idx[keep], tail[keep]
    if len(tail) < 4:
        return RateEstimate(None, None, len(tail), RATE_INSUFFICIENT)

    logd = np.log(tail)
    slope, intercept = np.polyfit(idx, logd, 1)
    fitted = slope * idx + intercept
    ss_tot = float(np.sum((logd - logd.mean()) ** 2))
    if ss_tot == 0.0:
        return RateEstimate(None, None, len(tail), RATE_DEGENERATE)
    ss_res = float(np.sum((logd - fitted) ** 2))
    r_squared = 1.0 - ss_res / ss_tot
    return RateEstimate(float(np.exp(slope)), r_squared, len(tail), RATE_OK)
