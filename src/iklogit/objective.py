"""The regularized kernel-logistic objective and its DC split.

With Gram matrix K = K+ - K- (see :mod:`.spectral`), signed labels y and
weights lam > 0, lam1 >= 0, the full objective over coefficients alpha is

    f(alpha) = (1/n) sum_i ln(1 + exp(-y_i (K alpha)_i))
               + (lam/2) alpha^T K alpha + lam1 ||alpha||_1

which splits into a difference of convex functions f = g - h with

    g(alpha) = loss + (lam/2) alpha^T K+ alpha + lam1 ||alpha||_1
    h(alpha) = (lam/2) alpha^T K- alpha

Both g and h are convex; g is strongly convex with modulus lam * tau.
K+ a is applied as K a + K- a.  The loss and its gradient live in loss_terms,
g's smooth part and its gradient in g_smooth_terms.
Setting lam1 = 0 recovers the plain (indefinite) kernel logistic model.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError, check_number
from .spectral import GramDecomposition


def sigmoid(u: np.ndarray) -> np.ndarray:
    """Logistic function, overflow-safe for any finite input."""
    return 0.5 * (1.0 + np.tanh(0.5 * np.asarray(u, dtype=np.float64)))


@dataclass(frozen=True, eq=False)
class DcObjective:
    """Immutable bundle of everything f, g, h need.

    Parameters
    ----------
    decomp : GramDecomposition
        Gram matrix with its positive split.
    y_signed : ndarray of shape (n,)
        Labels as exactly -1 or +1.
    lam : float
        Smoothness (quadratic) weight, > 0.
    lam1 : float
        Sparsity (L1) weight, >= 0; 0 disables the L1 term.
    """

    decomp: GramDecomposition
    y_signed: np.ndarray
    lam: float
    lam1: float = 0.0

    def __post_init__(self) -> None:
        y = np.asarray(self.y_signed, dtype=np.float64)
        n = self.decomp.gram.shape[0]
        if y.shape != (n,):
            raise InputError(f"y_signed must have shape ({n},), got {y.shape}")
        if not np.all(np.isin(y, (-1.0, 1.0))):
            raise InputError("y_signed entries must be exactly -1 or +1")
        check_number("lam", self.lam)
        check_number("lam1", self.lam1, positive=False)
        object.__setattr__(self, "y_signed", y)

    @classmethod
    def from_labels(
        cls,
        decomp: GramDecomposition,
        labels: np.ndarray,
        lam: float,
        lam1: float = 0.0,
    ) -> "DcObjective":
        """Build from {0,1} labels via the signed mapping y -> 2y - 1."""
        labs = np.asarray(labels)
        if not np.all(np.isin(labs, (0, 1))):
            raise InputError("labels must be exactly 0 or 1")
        return cls(decomp=decomp, y_signed=2.0 * labs - 1.0, lam=lam, lam1=lam1)

    @property
    def n(self) -> int:
        return self.decomp.gram.shape[0]


def _check_alpha(obj: DcObjective, alpha: np.ndarray) -> np.ndarray:
    a = np.asarray(alpha, dtype=np.float64)
    if a.shape != (obj.n,):
        raise InputError(f"alpha must have shape ({obj.n},), got {a.shape}")
    if not np.all(np.isfinite(a)):
        raise InputError("alpha contains non-finite values")
    return a


def loss_terms(
    obj: DcObjective,
    alpha: np.ndarray,
    with_grad: bool = True,
    scores: np.ndarray | None = None,
    with_value: bool = True,
) -> tuple[np.ndarray, float | None, np.ndarray | None]:
    """Scores K a, loss (1/n) sum ln(1 + exp(-y_i (K a)_i)), and its gradient.

    ``scores``, when given, must be K a already computed; it saves the dense
    product.  The gradient -(1/n) K (y * s), s_i = sigmoid(-y_i (K a)_i),
    costs a dense product of its own; it is None when ``with_grad`` is False,
    and the loss is None when ``with_value`` is False.
    """
    gram = obj.decomp.gram
    if scores is None:
        scores = gram @ alpha
    margins = obj.y_signed * scores
    # ln(1 + e^u) as logaddexp(0, u), without overflow; sum / n is
    # np.mean's own arithmetic, without its per-call overhead.
    loss = float(np.logaddexp(0.0, -margins).sum()) / obj.n if with_value else None
    if not with_grad:
        return scores, loss, None
    return scores, loss, -(gram @ (obj.y_signed * sigmoid(-margins))) / obj.n


def f_value(
    obj: DcObjective, alpha: np.ndarray, scores: np.ndarray | None = None
) -> float:
    """Full objective: loss + (lam/2) a^T K a + lam1 ||a||_1.

    ``scores`` is an optional known K a (see :func:`loss_terms`).
    """
    a = _check_alpha(obj, alpha)
    scores, loss, _ = loss_terms(obj, a, with_grad=False, scores=scores)
    quad = 0.5 * obj.lam * float(a @ scores)
    return loss + quad + obj.lam1 * float(np.abs(a).sum())


def g_smooth_terms(
    obj: DcObjective, alpha: np.ndarray, scores: np.ndarray, kminus: np.ndarray,
    with_value: bool = True, loss_grad: np.ndarray | None = None,
) -> tuple[float | None, np.ndarray, np.ndarray]:
    """g's smooth part loss + (lam/2) a^T K+ a, its gradient, and the loss gradient.

    ``scores`` and ``kminus`` are the known K a and K- a; ``loss_grad`` is
    an optional known loss gradient.  The value is None without ``with_value``.
    """
    if loss_grad is None:
        _, loss, loss_grad = loss_terms(obj, alpha, scores=scores, with_value=with_value)
    elif with_value:
        _, loss, _ = loss_terms(obj, alpha, with_grad=False, scores=scores)
    kplus = scores + kminus
    grad = loss_grad + obj.lam * kplus
    if not with_value:
        return None, grad, loss_grad
    return loss + 0.5 * obj.lam * float(alpha @ kplus), grad, loss_grad


def grad_h(
    obj: DcObjective, alpha: np.ndarray, kminus: np.ndarray | None = None
) -> np.ndarray:
    """Gradient of h: lam K- a.  ``kminus`` is an optional known K- a."""
    a = _check_alpha(obj, alpha)
    if kminus is None:
        kminus = obj.decomp.kminus_dot(a)
    return obj.lam * kminus


def soft_threshold(v: np.ndarray, t: float) -> np.ndarray:
    """Proximal map of t * ||.||_1: sign(v) * max(|v| - t, 0) componentwise."""
    if not (np.isfinite(t) and t >= 0):
        raise InputError(f"threshold must be >= 0, got {t}")
    arr = np.asarray(v, dtype=np.float64)
    return np.sign(arr) * np.maximum(np.abs(arr) - t, 0.0)
