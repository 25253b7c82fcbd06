"""The regularized kernel-logistic objective and its DC split.

With Gram matrix K = K+ - K- (see :mod:`.spectral`), signed labels y and
weights lam > 0, lam1 >= 0, the full objective over coefficients alpha is

    f(alpha) = (1/n) sum_i ln(1 + exp(-y_i (K alpha)_i))
               + (lam/2) alpha^T K alpha + lam1 ||alpha||_1

which splits into a difference of convex functions f = g - h with

    g(alpha) = loss + (lam/2) alpha^T K+ alpha + lam1 ||alpha||_1
    h(alpha) = (lam/2) alpha^T K- alpha

Both g and h are convex; g is strongly convex with modulus lam * tau, since
K+ has no eigenvalue below tau.  K+ a is applied as K a + K- a.  Every
function here takes the products it needs (K a, K- a) as arguments; the
solver computes each once per point.
Setting lam1 = 0 recovers the plain (indefinite) kernel logistic model.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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

    ``half_y`` and ``half_y_over_n`` are y / 2 and y / (2n), the label
    vectors of :func:`loss_grad`, built once here.
    """

    decomp: GramDecomposition
    y_signed: np.ndarray
    lam: float
    lam1: float = 0.0
    half_y: np.ndarray = field(init=False, repr=False)
    half_y_over_n: np.ndarray = field(init=False, repr=False)

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
        object.__setattr__(self, "half_y", 0.5 * y)
        object.__setattr__(self, "half_y_over_n", 0.5 * y / n)

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


def loss_value(obj: DcObjective, scores: np.ndarray) -> float:
    """Loss (1/n) sum ln(1 + exp(-y_i s_i)) at the scores s = K a."""
    # ln(1 + e^-m) = log1p(e^-|m|) - min(m, 0) at the margins m = y s, without
    # overflow, in two buffers of length n; sum / n is np.mean's own
    # arithmetic, without its per-call overhead.
    margins = obj.y_signed * scores
    terms = np.abs(margins)
    np.negative(terms, out=terms)
    np.exp(terms, out=terms)
    np.log1p(terms, out=terms)
    terms -= np.minimum(margins, 0.0, out=margins)
    return float(terms.sum()) / obj.n


def loss_grad(
    obj: DcObjective, scores: np.ndarray, rows: np.ndarray | None = None
) -> np.ndarray:
    """Loss gradient -(1/n) K (y * sigmoid(-y * s)) at the scores s = K a.

    Computed as K ((tanh(y s / 2) - 1) y / (2n)), the same vector since
    sigmoid(-m) = (1 - tanh(m / 2)) / 2, with one buffer of length n.  It
    costs one dense product.  Given ``rows``, a block of rows of K, it
    returns the gradient's entries on those rows only, at the block's cost.
    """
    weights = obj.half_y * scores
    np.tanh(weights, out=weights)
    weights -= 1.0
    weights *= obj.half_y_over_n
    gram = obj.decomp.gram if rows is None else rows
    return gram @ weights


def f_value(obj: DcObjective, alpha: np.ndarray, scores: np.ndarray) -> float:
    """Full objective loss + (lam/2) a^T K a + lam1 ||a||_1, given scores = K a."""
    a = _check_alpha(obj, alpha)
    quad = 0.5 * obj.lam * float(a @ scores)
    return loss_value(obj, scores) + quad + obj.lam1 * float(np.abs(a).sum())


def grad_h(obj: DcObjective, kminus: np.ndarray) -> np.ndarray:
    """Gradient of h at a: lam K- a, given kminus = K- a."""
    return obj.lam * kminus


def soft_threshold(v: np.ndarray, t: float) -> np.ndarray:
    """Proximal map of t * ||.||_1: sign(v) * max(|v| - t, 0) componentwise.

    Computed as v - clip(v, -t, t), which gives the same values (a zero may
    carry the other sign).  ``t`` must be a finite number >= 0; the solver
    checks it once per solve, not once per call.
    """
    arr = np.asarray(v, dtype=np.float64)
    return arr - np.minimum(np.maximum(arr, -t), t)
