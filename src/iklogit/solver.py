"""Proximal linearized solver for the DC objective f = g - h.

Outer loop: at iterate alpha_k, the concave side is linearized through
omega_k = grad_h(alpha_k) and the next iterate solves the strongly convex
subproblem

    min_a  loss(a) + (lam/2) a^T K+ a + lam1 ||a||_1
           - omega_k^T (a - alpha_k) + (1/(2 gamma)) ||a - alpha_k||^2

with a constant proximal weight gamma, starting from alpha_0 = 0.

Extrapolation: accelerated DCA (Nhat Phan, Le & Le Thi, IJCAI 2018)
keeps this subproblem and moves only its anchor, the point alpha_k above,
where h is linearized, the proximal term is centred and the inner solve
starts.  Step k anchors at

    z_k = alpha_k + beta_k (alpha_k - alpha_{k-1}),

with beta_k = (theta_k - 1) / theta_{k+1} from FISTA's sequence theta_1 = 1,
theta_{k+1} = (1 + sqrt(1 + 4 theta_k^2)) / 2, never restarted.  z_k is kept
only if f(z_k) <= max(f_{k-ADCA_WINDOW+1}, ..., f_k), the largest of the
last ADCA_WINDOW objective values; otherwise, and after a solve that took
no iteration (which would leave the fit drifting on momentum alone), step k
is the plain step from alpha_k.  A step from z_k does not raise f above
f(z_k), so f_{k+1} is at most that window's largest value, not at most
f_k.  K z_k and K- z_k are combinations of the carried products, so f(z_k)
costs no product; a kept z_k costs its loss gradient, one full product.
The step norm, the inner tolerance and the stop rule below still measure
alpha_{k+1} - alpha_k.  A split whose negative part is at most rounding
noise, with no negative eigenvalue below -n eps ||K||_2 (an eigensolver's
backward error), takes the plain step at every k, bitwise: so does an RBF
Gram, declared PSD or not.  With EXTRAPOLATE =
False every step is the plain one, the paper's loop, under which f never
increases.

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
point has f > 0.  So once some f(alpha_k) <= 0, the sublevel set {f <= 0}
holds no critical point; it is then unbounded and f attains no minimum (a
minimum over a bounded {f <= 0}, a closed set, would be a critical point
with f <= 0).  That this run diverges needs f to stay <= 0 from then on,
since its accumulation points are critical.  The plain step never raises
f, so the fit stops at its first f <= 0.  An extrapolated step bounds
f_{k+1} only by the largest of the last ADCA_WINDOW values, which
therefore never increases, and f may climb back above 0 inside the window;
so with extrapolation the fit stops once those ADCA_WINDOW values are all
<= 0, and every later f is <= 0 too.  The iterate-norm cap
DIVERGENCE_NORM stays as a backstop for unbounded iterates whose f stays
above 0, a case the certificate does not cover.

Inner loop: accelerated proximal gradient (momentum restart on objective
increase), warm-started at the step's anchor.  pla_fit computes the step
1/L_phi of :func:`smooth_lipschitz_bound` once per fit; the iterations on a
working set smaller than n step by the set's own 1/L_W (below).
Convergence is certified by the proximal fixed-point residual
||a - S_{t*lam1}(a - t grad_phi(a))||_inf at t = 1/L_phi, evaluated over all
n at the point actually returned.

Working sets: with lam1 > 0 each inner solve runs over a working set W of
coordinates, the rest held at 0 (after Blitz, Johnson & Guestrin, ICML
2015, and Celer, Massias, Gramfort & Salmon, ICML 2018).  W starts as the
support of alpha_k plus every coordinate that the first proximal step
from alpha_k moves, where |grad phi(alpha_k)| > lam1; that gradient is the
one the first step takes anyway.  The point that passes the stop test on
W is expanded to all n and takes the residual test over all n that the
warm start took, at the cost of one full product; if it fails, every
coordinate its proximal step would move joins W, and momentum restarts
from that point.  So the returned point meets the residual tolerance over
all n coordinates.  When W holds at least half of the n coordinates, or
lam1 = 0, it is all of them: the iterations then read K itself, with full
products and the step 1/L_phi, as a solve without working sets does.

The step of a working set: the smooth part of the subproblem restricted to
W has curvature at most l_W = lambda_max(K[W,:] K[:,W] / (4n) + lam K+[W,W])
+ 1/gamma (:func:`_set_lipschitz_bound`), often a fraction of L_phi, and
FISTA's rate depends on the curvature of the coordinates it moves (Beck &
Teboulle, SIAM J. Imaging Sci. 2009).  So the iterations on W, their first
candidate, restarts and stop tests included, take the step 1/L_W with
L_W = min(L_phi, l_W).  The proximal residual does not decrease as the
step grows, so a point that passes the stop test on W at 1/L_W passes
there at 1/L_phi too, and the test over all n keeps 1/L_phi.  pla_fit
hands the set each solve ends on to the next solve: a set equal to it
reuses its rows of K and W and its step, and a set inside it reuses its
step, since by Cauchy interlacing l_W of a subset is at most l_W of the
set.

Objective evaluations: momentum restarts when the candidate c, the
proximal step from the momentum point y, has a larger subproblem objective
F than the last candidate x.  At a step of at most 1/L_W, F(c) <= F(x)
whenever cert = <y - c, c - x> + ||y - c||^2 / 2 <= 0 (Beck & Teboulle,
SIAM J. Imaging Sci. 2009, Lemma 2.3), and cert costs two dot products on
W.  So F is evaluated at c, and at x from its carried products, only when
cert is positive or not finite: in exact arithmetic each restart decision
is the one F gives.  A plain step from x (y = x) has cert =
-||y - c||^2 / 2 <= 0, so a finite one is never evaluated; a non-finite
candidate has a non-finite cert, so its objective is evaluated and
raises.  A fit-tl1 benchmark unit evaluates F 2,674 times for 9,178
candidates, where evaluating every candidate took 10,493.

Product budget: every product with K and K- is computed once per point and
carried next to the iterate.  An inner iteration makes one product with
the |W| rows of K on the working set: the loss gradient K[W] (y * s) at the
momentum point y, n |W| operations (a full n x n product when W is all n).
K y and K+ y on W are combinations of the carried products, since
y = c + beta (c - x) is linear in the iterates.  For the candidate
c = S(y - t grad phi(y)), K c and W^T c are products with the working
set's rows of K and W, which the set copies once when it is built, not once
per candidate; over all n they are the full products.
K- c = tau c + W (W^T c) adds one low-rank expansion.  The candidate's loss
gradient on W, a second product, is taken in two cases only.  A momentum
restart needs it at the last candidate x, for the plain step from x.  The
stop test needs it once the momentum point's residual ||y - c||_inf, which
costs nothing, is at most INNER_CHECK_FACTOR times the tolerance; when
beta = 0 (the first iteration and the one after a restart) y is x, that
residual is x's exact one on W, and x ends the working set's iterations
with the products it carries.  On a working set smaller than all n that
point costs one more full product, its loss gradient over all n, and one
low-rank K- a.  A working set that is not equal to the last one gathers
its rows of K and W once; one that is not inside it also bounds its step,
with one product of its rows with themselves (n |W|^2 operations), one
W[W] W[W]^T and one eigvalsh of order |W| (53 of the 373 sets smaller
than n of the n = 500 benchmark fit).  The outer loop adds no product of
its own: K a, K- a and the loss gradient of the new iterate come back from
the inner solve and serve f_value, grad_h, the stationarity residual and
the next warm start.  Only the starting point costs one dense product, its loss
gradient: K a and K- a are 0 at alpha = 0.  Each kept extrapolated anchor
z_k costs one more, its loss gradient.  No function computes a
product it is not given: each takes the products it needs as arguments.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InputError, NumericalError, check_integer, check_number
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

# An inner iteration's candidate c pays a product with K (its loss gradient
# on the working set) for its exact residual only when the momentum point's
# free residual ||y - c||_inf is at most INNER_CHECK_FACTOR * tol: a smaller
# factor checks less often but can stop later.  One unit of the benchmark
# workloads at factors 1, 3, 10 and infinity (check every candidate), before
# working sets: bench-protocol takes 53,366, 49,693, 46,698 and 46,146 inner
# iterations, and fit-tl1 14,662, 14,491, 16,935 and 24,788 full products.
INNER_CHECK_FACTOR = 3.0

# pla_fit extrapolates each outer step's anchor on a Gram with a negative
# eigenvalue above rounding level; False gives the paper's plain loop.
EXTRAPOLATE = True

# An extrapolated anchor z is kept only if f(z) is at most the largest of
# the last ADCA_WINDOW objective values f_{k-ADCA_WINDOW+1}, ..., f_k.
ADCA_WINDOW = 5

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
        check_integer("max_outer", self.max_outer)
        check_integer("max_inner", self.max_inner)


@dataclass(frozen=True)
class InnerResult:
    """Outcome of one subproblem solve.

    ``iterations`` is the index of the returned iterate (0 for the warm
    start).  ``scores`` is K alpha, ``kminus`` is K- alpha and
    ``loss_grad`` is the loss gradient at alpha (see
    :func:`.objective.loss_grad`).  ``working_set`` is the set the solve
    ended on, which pla_fit hands to the next solve.
    """

    alpha: np.ndarray
    iterations: int
    residual: float
    converged: bool
    scores: np.ndarray
    kminus: np.ndarray
    loss_grad: np.ndarray
    working_set: _WorkingSet | None = None


@dataclass
class SolveTrace:
    """Per-outer-iteration diagnostics of a pla_fit run.

    ``f_values`` and ``iterates`` carry the initial point, so they are one
    longer than the per-step lists.  ``extrapolated`` says whether a step's
    subproblem was anchored at an extrapolated point.
    """

    f_values: list[float] = field(default_factory=list)
    step_norms: list[float] = field(default_factory=list)
    stationarity_residuals: list[float] = field(default_factory=list)
    inner_iterations: list[int] = field(default_factory=list)
    inner_converged: list[bool] = field(default_factory=list)
    extrapolated: list[bool] = field(default_factory=list)
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
                "extrapolated": self.extrapolated[k],
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


class _WorkingSet:
    """The coordinates an inner solve moves, with their rows and their step.

    ``index`` lists the coordinates in increasing order, or is None for all
    n: the set given, unless it is None or holds at least half of the n.
    The other coordinates stay at 0.  ``gram`` and ``lowrank`` are the rows
    of K and W on the set, which the products read: for all n, K and W
    themselves, not copies.

    ``step`` is 1/L_W, the step of the iterations on the set.  Over all n it
    is the fit's own ``step`` = 1/L.  On a smaller set L_W = min(L, l_W),
    where l_W (:func:`_set_lipschitz_bound`) bounds the curvature of the
    subproblem's smooth part restricted to W, and is often a fraction of L.

    ``last`` is the fit's set before this one, or None: the set the last
    solve ended on, or the one this solve grows.  A set equal to it takes
    its rows and step; one inside it takes its step: by Cauchy interlacing
    the largest eigenvalue of a principal submatrix is at most the
    matrix's, so a step that holds on a set holds on each of its subsets.
    """

    __slots__ = ("index", "gram", "lowrank", "step")

    def __init__(
        self,
        obj: DcObjective,
        index: np.ndarray | None,
        step: float,
        inv_gamma: float,
        last: _WorkingSet | None,
    ):
        decomp = obj.decomp
        if index is None or 2 * index.size >= obj.n:
            self.index, self.gram, self.lowrank = None, decomp.gram, decomp.lowrank
            self.step = step
            return
        self.index = index
        known = last is not None and last.index is not None
        if known and np.array_equal(index, last.index):
            self.gram, self.lowrank, self.step = last.gram, last.lowrank, last.step
            return
        self.gram, self.lowrank = decomp.gram[index], decomp.lowrank[index]
        if known and _inside(index, last.index):
            self.step = last.step
        else:
            bound = _set_lipschitz_bound(obj, index, self.gram, self.lowrank, inv_gamma)
            self.step = max(step, 1.0 / bound)


def _inside(index: np.ndarray, outer: np.ndarray) -> bool:
    """Whether each entry of ``index`` is in ``outer``; both increasing, ``index`` nonempty.

    One binary search per entry, where ``np.isin`` sorts both arrays: on a
    fit-tl1 unit this test costs about 0.02 s less.
    """
    pos = np.searchsorted(outer, index)
    return bool(pos[-1] < outer.size and np.array_equal(outer[pos], index))


def _set_lipschitz_bound(
    obj: DcObjective,
    index: np.ndarray,
    gram_rows: np.ndarray,
    lowrank_rows: np.ndarray,
    inv_gamma: float,
) -> float:
    """lambda_max(K[W,:] K[:,W] / (4n) + lam K+[W,W]) + 1/gamma on the set W.

    A Lipschitz constant of the subproblem's smooth part restricted to the
    coordinates ``index``: the loss's Hessian there is at most
    K[W,:] K[:,W] / (4n), and K+[W,W] = K[W,W] + tau I + W[W] W[W]^T.  It
    takes the set's rows of K and W, one product of the rows with
    themselves (n |W|^2 operations) and one ``eigvalsh`` of order |W|.
    """
    kplus_on_set = gram_rows[:, index] + lowrank_rows @ lowrank_rows.T
    kplus_on_set += obj.decomp.tau * np.eye(index.size)
    mat = gram_rows @ gram_rows.T
    mat *= 1.0 / (4.0 * obj.n)
    mat += obj.lam * kplus_on_set
    return float(np.linalg.eigvalsh(mat)[-1]) + inv_gamma


def _products(decomp: GramDecomposition, a: np.ndarray, ws: _WorkingSet):
    """K a over all n and K+ a on the working set ``ws``.

    ``a`` holds the coefficients on ``ws``.  Over all n these are the full
    products K a and K a + K- a.  On a working set smaller than all n, K a
    and W^T a are products with the set's rows of K (which is symmetric)
    and W, which ``ws`` holds; they differ from the full products only in
    rounding.
    """
    if ws.index is None:
        k_a = decomp.gram @ a
        return k_a, k_a + decomp.kminus_dot(a)
    k_a = a @ ws.gram
    kminus_a = decomp.tau * a + ws.lowrank @ (a @ ws.lowrank)
    return k_a, k_a[ws.index] + kminus_a


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
    last_set: _WorkingSet | None = None,
) -> InnerResult:
    """Solve one linearized subproblem to the fixed-point tolerance ``tol``.

    Accelerated proximal gradient from the warm start alpha_k, whose
    K alpha_k, K- alpha_k and loss gradient are ``scores``, ``kminus`` and
    ``loss_grad``.  ``step`` = 1/L_phi (see :func:`smooth_lipschitz_bound`)
    is the step over all n; the iterations on a working set take the set's
    own step 1/L_W >= 1/L_phi.  When the momentum step raises the subproblem
    objective, momentum is discarded and the iteration is taken again as a
    plain proximal-gradient step from the last candidate (guaranteed descent
    at step 1/L_W).  The objective is evaluated, at the candidate and the
    last candidate, only when the candidate's descent certificate fails
    (see the module docstring).  Each iteration takes the loss gradient at
    the momentum point only, and the candidate's K c and K- c from the
    working set's rows; the candidate's loss gradient is taken only for a
    restart or for the stop test, which runs once the momentum point's free
    residual is within INNER_CHECK_FACTOR of ``tol``.

    With lam1 > 0 the iterations run over a working set W: the support of
    the point they start from, every coordinate that its proximal step
    moves, and the last W.  The other coefficients stay at 0, and the
    products cost n |W| instead of n^2.  When W holds at least half of the
    n coordinates, or lam1 = 0, it is all of them.  ``last_set`` is the
    working set the fit's previous solve ended on, whose rows and step a
    set equal to it or inside it reuses (see :class:`_WorkingSet`); the
    result's ``working_set`` is the one this solve ended on, or
    ``last_set`` when it built none.

    The warm start, and the point each working set's iterations end at,
    expanded to all n, pass one residual test over all n.  A point that
    passes it is returned, with ``iterations`` its index; one that fails
    starts the next working set, which adds every coordinate its proximal
    step moves, with momentum restarted.  After ``cfg.max_inner`` steps
    the last candidate is returned with ``converged=False``.
    """
    anchor = np.asarray(alpha_k, dtype=np.float64)
    threshold = step * obj.lam1
    check_number("threshold", threshold, positive=False)
    lam, inv_gamma, decomp = obj.lam, 1.0 / cfg.gamma, obj.decomp
    # grad phi(a) = loss gradient + lam K+ a + a / gamma - shift, where
    # phi = g's smooth part - omega^T (a - alpha_k) + ||a - alpha_k||^2 / (2 gamma).
    shift = np.asarray(omega, dtype=np.float64) + inv_gamma * anchor

    def total(a, k_a, kp_a, sh):
        """phi + lam1 ||a||_1 at a, less the constant of the solve."""
        coef_terms = a @ (0.5 * lam * kp_a + 0.5 * inv_gamma * a - sh)
        l1_term = obj.lam1 * float(np.abs(a).sum())
        return loss_value(obj, k_a) + float(coef_terms) + l1_term

    def grad_phi(a, kp_a, lg_a, sh):
        """grad phi at a from K+ a, the loss gradient and the shift ``sh``."""
        return lg_a + lam * kp_a + inv_gamma * a - sh

    # a is a point the solve may return: the warm start, or the point a
    # working set's iterations end at, over all n, with its index done,
    # K a, K+ a, K- a and loss gradient.
    a, done, k_a, kp_a, lg_a = anchor, 0, scores, scores + kminus, loss_grad
    km_a = kp_a - k_a
    index, it, capped, ws = None, 0, False, last_set
    while True:
        # a's plain proximal step nxt and exact residual gap at the fit's
        # step; a capped solve returns a whatever its residual.
        grad = grad_phi(a, kp_a, lg_a, shift)
        nxt = soft_threshold(a - step * grad, threshold)
        gap = _max_abs(a - nxt)
        if gap <= tol or capped:
            return InnerResult(a, done, gap, not capped, k_a, km_a, lg_a, ws)
        # W is the last W, a's support and every coordinate nxt moves (all n
        # when lam1 = 0): outside them a's exact residual is 0, so gap is its
        # residual on W.
        if threshold > 0.0:
            moved = np.logical_or(a, nxt)
            if index is not None:
                moved[index] = True
            index = moved.nonzero()[0]
        ws = _WorkingSet(obj, index, step, inv_gamma, ws)
        # The iterations on W step by W's own 1/L_W.  The residual does not
        # decrease as the step grows, so a point that passes on W at 1/L_W
        # passes there at 1/L too.
        s, t = ws.step, ws.step * obj.lam1
        # x is the last candidate; its loss gradient lgx and objective total_x
        # are None until needed.
        x, kx, kpx, lgx, total_x, cand, sh = a, k_a, kp_a, lg_a, None, nxt, shift
        if ws.index is not None:
            x, kpx, lgx, sh, grad = (v[ws.index] for v in (a, kp_a, lg_a, shift, grad))
            cand = soft_threshold(x - s * grad, t)
        y, kpy, lgy = x, kpx, lgx
        theta, beta = 1.0, 0.0
        # it is the candidate's index; a restart takes its iteration again.
        it += 1
        while it <= cfg.max_inner:
            # cand is the proximal step from y; gap is y's free residual.
            back = y - cand
            gap = _max_abs(back)
            if beta == 0.0 and gap <= tol:
                # y is x, so gap is x's exact residual on W; the next working
                # set takes this iteration again.
                done = it = it - 1
                break
            kc, kpc = _products(decomp, cand, ws)
            # The descent certificate: cand's objective is at most x's when
            # cert <= 0, so only a candidate without one is evaluated.
            move = cand - x
            cert = float(back @ move) + 0.5 * float(back @ back)
            total_c = None
            if not (cert <= 0.0 and math.isfinite(cert)):
                total_c = total(cand, kc, kpc, sh)
                if not math.isfinite(total_c):
                    raise NumericalError("inner solve produced a non-finite objective")
                if total_x is None:
                    total_x = total(x, kx, kpx, sh)
                # At beta = 0, theta is 1 and y is x: no momentum to discard.
                if total_c > total_x and beta != 0.0:
                    # Momentum overshot; fall back to a plain step from x.
                    if lgx is None:
                        lgx = loss_gradient(obj, kx, ws.gram)
                    theta, beta, y = 1.0, 0.0, x
                    cand = soft_threshold(x - s * grad_phi(x, kpx, lgx, sh), t)
                    continue
            lgc = None
            if gap <= INNER_CHECK_FACTOR * tol:
                lgc = loss_gradient(obj, kc, ws.gram)
                if _prox_residual(cand, grad_phi(cand, kpc, lgc, sh), s, t) <= tol:
                    x, kx, kpx, lgx, done = cand, kc, kpc, lgc, it
                    break
            theta_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * theta * theta))
            beta = (theta - 1.0) / theta_next
            if beta == 0.0:
                # First step and the one after a restart: y is the candidate.
                if lgc is None:
                    lgc = loss_gradient(obj, kc, ws.gram)
                y, kpy, lgy = cand, kpc, lgc
            else:
                # y is linear in the iterates, and so are K y and K+ y.
                y = cand + beta * move
                kpy = kpc + beta * (kpc - kpx)
                lgy = loss_gradient(obj, kc + beta * (kc - kx), ws.gram)
            x, kx, kpx, lgx, total_x, theta = cand, kc, kpc, lgc, total_c, theta_next
            cand = soft_threshold(y - s * grad_phi(y, kpy, lgy, sh), t)
            it += 1
        else:
            done, capped = cfg.max_inner, True
        k_a = kx
        if ws.index is None:
            a, kp_a, km_a, lg_a = x, kpx, kpx - kx, lgx
        else:
            # The end point over all n: one full product gives its loss gradient.
            a = np.zeros(obj.n)
            a[ws.index] = x
            km_a = decomp.tau * a + decomp.lowrank @ (x @ ws.lowrank)
            kp_a, lg_a = kx + km_a, None
        if lg_a is None:
            lg_a = loss_gradient(obj, kx)


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

    Each step is anchored at alpha_k, or at the extrapolated z_k where it
    passes the window test (module docstring), as ``trace.extrapolated``
    records per step.

    Returns the final iterate and the full trace.  Hitting ``max_outer``
    yields status ``max_iterations`` rather than an exception; inner-solve
    iteration caps are recorded per step in ``trace.inner_converged``.
    A diverging fit raises NumericalError whose ``trace`` is the partial
    trace with status ``diverged``: once f <= 0 holds at the last outer step,
    or at the last ADCA_WINDOW steps when the fit extrapolates (the
    certificate of the module docstring; the trace includes that step), at
    an iterate norm above DIVERGENCE_NORM, or at a non-finite f.
    Every stop is logged at INFO with its status, outer step, total inner
    iterations, f (nan when the norm cap fires, before f is evaluated) and
    iterate norm.  Step k's inner tolerance and the stop rule are those of
    the module docstring.
    """
    alpha = np.zeros(obj.n, dtype=np.float64)
    trace = SolveTrace()
    step = 1.0 / smooth_lipschitz_bound(obj, cfg.gamma)
    # K alpha, K- alpha and the loss gradient of the current iterate, carried
    # from one inner solve to the next; K alpha and K- alpha are 0 at alpha = 0.
    scores, kminus = np.zeros(obj.n), np.zeros(obj.n)
    loss_grad = loss_gradient(obj, scores)
    f_cur = f_value(obj, alpha, scores)
    trace.f_values.append(f_cur)
    trace.iterates.append(alpha.copy())
    moved = 0.0  # the first solve has no previous step and runs to epsilon_inner
    inner_total = 0
    working_set = None  # the set the last solve ended on, with its rows and step
    # With extrapolation: FISTA's theta, alpha_{k-1} with its K alpha and
    # K- alpha, from which the anchor z_k is extrapolated, and whether the
    # last solve took an iteration.  The divergence certificate needs the
    # last `certified` objective values <= 0.
    extrapolate = EXTRAPOLATE and _indefinite(obj.decomp)
    theta, last, solved = 1.0, (alpha, scores, kminus), False
    certified = ADCA_WINDOW if extrapolate else 1

    for k in range(1, cfg.max_outer + 1):
        # The anchor z, where h is linearized, the proximal term is centred
        # and the solve starts, with K z, K- z and its loss gradient.
        z, z_scores, z_kminus, z_grad = alpha, scores, kminus, loss_grad
        accepted = False
        if extrapolate:
            theta_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * theta * theta))
            beta = (theta - 1.0) / theta_next
            theta = theta_next
            if solved:  # False at k = 1, where beta = 0
                # z is linear in the iterates, and so are K z and K- z.
                cand = alpha + beta * (alpha - last[0])
                cand_scores = scores + beta * (scores - last[1])
                window = max(trace.f_values[-ADCA_WINDOW:])
                if f_value(obj, cand, cand_scores) <= window:
                    accepted = True
                    z, z_scores = cand, cand_scores
                    z_kminus = kminus + beta * (kminus - last[2])
                    z_grad = loss_gradient(obj, z_scores)
            last = alpha, scores, kminus
        omega = grad_h(obj, z_kminus)
        tol = max(cfg.epsilon_inner, INNER_RTOL * moved)
        inner = inner_solve(
            obj, omega, z, cfg, step, tol, z_scores, z_kminus, z_grad, working_set
        )
        alpha_new, scores = inner.alpha, inner.scores
        kminus, loss_grad, working_set = inner.kminus, inner.loss_grad, inner.working_set
        inner_total += inner.iterations
        solved = inner.iterations > 0
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
        trace.extrapolated.append(accepted)
        if max(trace.f_values[-certified:]) <= 0.0:
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


def _indefinite(decomp: GramDecomposition) -> bool:
    """Whether the split has a negative eigenvalue below -n eps ||K||_2.

    W's squared column norms are the negated eigenvalues it carries; one
    within an eigensolver's backward error n eps ||K||_2 of 0 is rounding.
    """
    lowrank = decomp.lowrank
    if lowrank.shape[1] == 0:
        return False
    noise = lowrank.shape[0] * float(np.finfo(np.float64).eps) * decomp.spectral_norm
    return float(np.max(np.einsum("ij,ij->j", lowrank, lowrank))) > noise


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
