"""Eigendecomposition and the shifted positive decomposition of a Gram matrix.

An indefinite Gram matrix K with eigenpairs (mu_i, u_i), mu sorted
descending, splits as K = K+ - K- where both parts are positive definite:

* K+ carries ``mu_i + tau`` on the eigendirections with mu_i >= 0 and
  ``tau`` elsewhere;
* K- carries ``tau`` on the nonnegative directions and ``tau - mu_i`` on
  the negative ones.

So K- = tau I + W W^T with W = V_- sqrt(-mu_-), where V_- and mu_- are the
r negative eigenpairs, and K+ = K + K-.  The split stores only K, its
eigenvalues (for the solver's step bounds) and the n x r factor W; products
with K- and K+ go through W.  The eigenvectors are read once, to build W,
and are not kept; a Gram with no negative eigenvalue (an RBF Gram, unless
rounding makes one negative) has r = 0, so its eigenvectors are never
computed.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass, field

import numpy as np

from .errors import InputError, NumericalError, check_number

# Asymmetry beyond this (relative to the largest entry) is rejected.
SYMMETRY_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class GramDecomposition:
    """A Gram matrix, its spectrum and the low-rank factor of its negative part.

    Attributes
    ----------
    gram : ndarray of shape (n, n)
        The original symmetric matrix K.
    eigenvalues : ndarray of shape (n,)
        Eigenvalues mu, sorted descending.
    tau : float
        The positive spectral shift.
    lowrank : ndarray of shape (n, r)
        W = V_- sqrt(-mu_-) over the r negative eigenpairs; K- = tau I + W W^T.

    ``eigenvectors`` (orthonormal columns matching ``eigenvalues``) is a
    constructor argument only: W is built from it and it is not stored.  It
    may be None when no eigenvalue is negative, since W then has no column.
    """

    gram: np.ndarray
    eigenvalues: np.ndarray
    eigenvectors: InitVar[np.ndarray | None]
    tau: float
    lowrank: np.ndarray = field(init=False, repr=False)

    def __post_init__(self, eigenvectors: np.ndarray | None) -> None:
        neg = self.eigenvalues < 0.0
        if eigenvectors is None:
            if np.any(neg):
                raise InputError("eigenvectors are required for negative eigenvalues")
            factor = np.empty((neg.size, 0))
        else:
            factor = eigenvectors[:, neg]  # a copy, scaled in place
            factor *= np.sqrt(-self.eigenvalues[neg])
        object.__setattr__(self, "lowrank", factor)

    def kminus_dot(self, alpha: np.ndarray) -> np.ndarray:
        """K- alpha = tau alpha + W (W^T alpha), without forming K-."""
        return self.tau * alpha + self.lowrank @ (self.lowrank.T @ alpha)


def sym_eigendecompose(
    matrix: np.ndarray, *, vectors_if_negative: bool = False
) -> tuple[np.ndarray, np.ndarray | None]:
    """Eigendecomposition of a symmetric matrix, eigenvalues descending.

    Returns ``(eigenvalues, eigenvectors)`` with
    ``matrix ~= eigenvectors @ diag(eigenvalues) @ eigenvectors.T``, as
    reversed views of ``np.linalg.eigh``'s output.

    With ``vectors_if_negative`` the spectrum comes from
    ``np.linalg.eigvalsh``, and ``eigh`` runs only when its smallest
    eigenvalue is negative; its eigenvalues are then returned, so an
    indefinite matrix gives the same result as without the flag.  Otherwise
    the eigenvectors are None: neither the n x n eigenvector matrix nor
    eigh's workspace is allocated.

    Raises InputError for empty, non-square, non-finite, or visibly
    asymmetric input, and NumericalError if the eigensolver fails to
    converge.
    """
    mat = np.asarray(matrix, dtype=np.float64)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise InputError(f"matrix must be square, got shape {mat.shape}")
    if mat.size == 0:
        raise InputError("matrix is empty")
    if not np.all(np.isfinite(mat)):
        raise InputError("matrix contains non-finite values")
    scale = max(1.0, float(mat.max()), -float(mat.min()))
    # |K - K^T| in one temporary, freed before the eigensolve.
    diff = mat - mat.T
    asym = float(np.max(np.abs(diff, out=diff)))
    del diff
    if asym > SYMMETRY_TOL * scale:
        raise InputError(
            f"matrix is not symmetric: max |K - K^T| = {asym:.3e} "
            f"(allowed {SYMMETRY_TOL * scale:.3e})"
        )
    try:
        if vectors_if_negative:
            vals = np.linalg.eigvalsh(mat)
            if vals[0] >= 0.0:
                return vals[::-1], None
        vals, vecs = np.linalg.eigh(mat)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigendecomposition failed: {exc}") from exc
    # eigh returns ascending order; flip to descending.
    return vals[::-1], vecs[:, ::-1]


def positive_decompose(
    gram: np.ndarray,
    eigenvalues: np.ndarray,
    eigenvectors: np.ndarray | None,
    tau: float,
) -> GramDecomposition:
    """Build the shifted positive decomposition from a precomputed eigensystem.

    ``eigenvalues``/``eigenvectors`` must be a descending eigendecomposition
    of ``gram`` (as produced by :func:`sym_eigendecompose`); ``eigenvectors``
    may be None only when no eigenvalue is negative.  ``tau`` must be
    strictly positive.
    """
    check_number("tau", tau)
    vals = np.asarray(eigenvalues, dtype=np.float64)
    mat = np.asarray(gram, dtype=np.float64)
    n = mat.shape[0]
    vecs = None if eigenvectors is None else np.asarray(eigenvectors, dtype=np.float64)
    if vals.shape != (n,) or (vecs is not None and vecs.shape != (n, n)):
        raise InputError("eigensystem shape does not match the matrix")
    if np.any(np.diff(vals) > 0):
        raise InputError("eigenvalues must be sorted descending")

    return GramDecomposition(
        gram=mat, eigenvalues=vals, eigenvectors=vecs, tau=float(tau)
    )


def decompose_gram(gram: np.ndarray, tau: float) -> GramDecomposition:
    """Eigendecompose, then positively decompose.

    Eigenvectors are computed only when ``gram`` has a negative eigenvalue,
    so a positive semidefinite Gram costs one ``eigvalsh`` and no n x n
    matrix beyond one temporary of the symmetry check.
    """
    vals, vecs = sym_eigendecompose(gram, vectors_if_negative=True)
    return positive_decompose(gram, vals, vecs, tau)
