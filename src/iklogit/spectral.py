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
and are not kept.
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
    constructor argument only: W is built from it and it is not stored.
    """

    gram: np.ndarray
    eigenvalues: np.ndarray
    eigenvectors: InitVar[np.ndarray]
    tau: float
    lowrank: np.ndarray = field(init=False, repr=False)

    def __post_init__(self, eigenvectors: np.ndarray) -> None:
        neg = self.eigenvalues < 0.0
        factor = eigenvectors[:, neg] * np.sqrt(-self.eigenvalues[neg])
        object.__setattr__(self, "lowrank", factor)

    def kminus_dot(self, alpha: np.ndarray) -> np.ndarray:
        """K- alpha = tau alpha + W (W^T alpha), without forming K-."""
        return self.tau * alpha + self.lowrank @ (self.lowrank.T @ alpha)


def sym_eigendecompose(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Full eigendecomposition of a symmetric matrix, eigenvalues descending.

    Returns ``(eigenvalues, eigenvectors)`` with
    ``matrix ~= eigenvectors @ diag(eigenvalues) @ eigenvectors.T``.

    Raises InputError for non-square, non-finite, or visibly asymmetric
    input, and NumericalError if the eigensolver fails to converge.
    """
    mat = np.asarray(matrix, dtype=np.float64)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise InputError(f"matrix must be square, got shape {mat.shape}")
    if not np.all(np.isfinite(mat)):
        raise InputError("matrix contains non-finite values")
    scale = max(1.0, float(np.max(np.abs(mat))) if mat.size else 1.0)
    asym = float(np.max(np.abs(mat - mat.T)))
    if asym > SYMMETRY_TOL * scale:
        raise InputError(
            f"matrix is not symmetric: max |K - K^T| = {asym:.3e} "
            f"(allowed {SYMMETRY_TOL * scale:.3e})"
        )
    try:
        vals, vecs = np.linalg.eigh(mat)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigendecomposition failed: {exc}") from exc
    # eigh returns ascending order; flip to descending.
    return vals[::-1].copy(), vecs[:, ::-1].copy()


def positive_decompose(
    gram: np.ndarray,
    eigenvalues: np.ndarray,
    eigenvectors: np.ndarray,
    tau: float,
) -> GramDecomposition:
    """Build the shifted positive decomposition from a precomputed eigensystem.

    ``eigenvalues``/``eigenvectors`` must be a descending eigendecomposition
    of ``gram`` (as produced by :func:`sym_eigendecompose`); ``tau`` must be
    strictly positive.
    """
    check_number("tau", tau)
    vals = np.asarray(eigenvalues, dtype=np.float64)
    vecs = np.asarray(eigenvectors, dtype=np.float64)
    mat = np.asarray(gram, dtype=np.float64)
    n = mat.shape[0]
    if vals.shape != (n,) or vecs.shape != (n, n):
        raise InputError("eigensystem shape does not match the matrix")
    if np.any(np.diff(vals) > 0):
        raise InputError("eigenvalues must be sorted descending")

    return GramDecomposition(
        gram=mat, eigenvalues=vals, eigenvectors=vecs, tau=float(tau)
    )


def decompose_gram(gram: np.ndarray, tau: float) -> GramDecomposition:
    """Convenience wrapper: eigendecompose then positively decompose."""
    vals, vecs = sym_eigendecompose(gram)
    return positive_decompose(gram, vals, vecs, tau)
