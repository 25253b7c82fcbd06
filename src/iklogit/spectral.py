"""Eigendecomposition and the shifted positive decomposition of a Gram matrix.

An indefinite Gram matrix K with eigenpairs (mu_i, u_i), mu sorted
descending, splits as K = K+ - K- where both parts are positive definite:

* K+ carries ``mu_i + tau`` on the eigendirections with mu_i >= 0 and
  ``tau`` elsewhere;
* K- carries ``tau`` on the nonnegative directions and ``tau - mu_i`` on
  the negative ones.

So K- = tau I + W W^T with W = V_- sqrt(-mu_-), where V_- and mu_- are the
r negative eigenpairs, and K+ = K + K-.  Only K, its eigensystem and the
n x r factor W are stored; products with K- and K+ go through W.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InputError, NumericalError

# Asymmetry beyond this (relative to the largest entry) is rejected.
SYMMETRY_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class GramDecomposition:
    """Eigensystem of a Gram matrix together with its shifted positive parts.

    Attributes
    ----------
    gram : ndarray of shape (n, n)
        The original symmetric matrix K.
    eigenvalues : ndarray of shape (n,)
        Eigenvalues mu, sorted descending.
    eigenvectors : ndarray of shape (n, n)
        Orthonormal columns matching ``eigenvalues``.
    tau : float
        The positive spectral shift.
    lowrank : ndarray of shape (n, r)
        W = V_- sqrt(-mu_-) over the r negative eigenpairs; K- = tau I + W W^T.
    """

    gram: np.ndarray
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    tau: float
    lowrank: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        neg = self.eigenvalues < 0.0
        factor = self.eigenvectors[:, neg] * np.sqrt(-self.eigenvalues[neg])
        object.__setattr__(self, "lowrank", factor)

    @property
    def num_nonneg(self) -> int:
        """Count of eigenvalues >= 0."""
        return int(np.count_nonzero(self.eigenvalues >= 0.0))

    def kminus_dot(self, alpha: np.ndarray) -> np.ndarray:
        """K- alpha = tau alpha + W (W^T alpha), without forming K-."""
        return self.tau * alpha + self.lowrank @ (self.lowrank.T @ alpha)

    # Dense K+, K- and B are formed on demand, for checks and tests only.
    def _dense(self, sign: float) -> np.ndarray:
        """V diag(max(sign * mu, 0) + tau) V^T: K+ for sign 1, K- for sign -1."""
        vecs = self.eigenvectors
        mat = (vecs * (np.maximum(sign * self.eigenvalues, 0.0) + self.tau)) @ vecs.T
        # Re-symmetrize to kill rounding skew before downstream eigen checks.
        return 0.5 * (mat + mat.T)

    @property
    def kplus(self) -> np.ndarray:
        return self._dense(1.0)

    @property
    def kminus(self) -> np.ndarray:
        return self._dense(-1.0)

    @property
    def bfactor(self) -> np.ndarray:
        """Matrix B with B^T B = K+."""
        shift = np.maximum(self.eigenvalues, 0.0) + self.tau
        return np.sqrt(shift)[:, None] * self.eigenvectors.T


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
    if not (np.isfinite(tau) and tau > 0):
        raise InputError(f"tau must be strictly positive, got {tau}")
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
