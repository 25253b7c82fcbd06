"""Eigendecomposition, the shifted positive split of a Gram matrix, and ||K||_2.

An indefinite Gram matrix K with eigenpairs (mu_i, u_i), mu sorted
descending, splits as K = K+ - K- where both parts are positive definite:

* K+ carries ``mu_i + tau`` on the eigendirections with mu_i >= 0 and
  ``tau`` elsewhere;
* K- carries ``tau`` on the nonnegative directions and ``tau - mu_i`` on
  the negative ones.

So K- = tau I + W W^T with W = V_- sqrt(-mu_-), where V_- and mu_- are the
r negative eigenpairs, and K+ = K + K-.  The split stores K, the n x r
factor W and the two numbers the solver's step bound reads: ||K||_2 and
max(mu_1, 0).  Products with K- and K+ go through W.  One ``eigh`` gives
the eigenvalues and eigenvectors; the eigenvectors are read once, to build
W, and are not kept.  A Gram with no negative eigenvalue has r = 0.

A Gram that the caller declares positive semidefinite (an RBF Gram: the
Gaussian kernel is positive definite) runs no eigensolver at all: r = 0,
and ||K||_2, the Perron root of the nonnegative K, is bounded from above by
power iteration (:func:`perron_bound`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError, NumericalError, check_number

# Asymmetry beyond this (relative to the largest entry) is rejected.
SYMMETRY_TOL = 1e-12

# Bytes of one block of rows of K - K^T in the symmetry check.  On the
# n = 2000 RBF Gram (2-core Xeon, one thread) the blocked check takes
# 0.02 s from 128 KiB to 1 MiB blocks, against 0.05 s for the whole
# K - K^T, a 32 MB temporary.
SYMMETRY_BLOCK_BYTES = 2**18

# perron_bound stops when its upper and lower bounds agree to PERRON_RTOL,
# relative, or after PERRON_MAX_ITER products with K.  On the benchmark's
# RBF Gram (n = 2000, sigma = 1; a 2-core Xeon, OpenBLAS on one thread) it
# stops after 53 products in 0.10 s, where eigvalsh takes 0.82 s; the cap's
# 200 products take 0.40 s there (2.1 ms each).
PERRON_RTOL = 1e-13
PERRON_MAX_ITER = 200


@dataclass(frozen=True, eq=False)
class GramDecomposition:
    """A Gram matrix, the low-rank factor of its negative part, and its norms.

    Attributes
    ----------
    gram : ndarray of shape (n, n)
        The original symmetric matrix K.
    tau : float
        The positive spectral shift.
    lowrank : ndarray of shape (n, r)
        W = V_- sqrt(-mu_-) over the r negative eigenpairs; K- = tau I + W W^T.
    spectral_norm : float
        ||K||_2 = max(|mu_1|, |mu_n|), or an upper bound on it.
    top_eigenvalue : float
        max(mu_1, 0), or an upper bound on it; ||K+||_2 = top_eigenvalue + tau.
    """

    gram: np.ndarray
    tau: float
    lowrank: np.ndarray
    spectral_norm: float
    top_eigenvalue: float

    def kminus_dot(self, alpha: np.ndarray) -> np.ndarray:
        """K- alpha = tau alpha + W (W^T alpha), without forming K-."""
        return self.tau * alpha + self.lowrank @ (self.lowrank.T @ alpha)


def _checked_symmetric(matrix: np.ndarray) -> tuple[np.ndarray, float]:
    """``matrix`` as a float array, and its smallest entry.

    InputError unless square, nonempty, finite and symmetric to
    SYMMETRY_TOL relative to its largest entry.  One ``min`` and one ``max``
    pass find the scale and any NaN or +-inf; the asymmetry is measured
    over pairs of an upper and a lower block of at most SYMMETRY_BLOCK_BYTES,
    with no n x n temporary.
    """
    mat = np.asarray(matrix, dtype=np.float64)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise InputError(f"matrix must be square, got shape {mat.shape}")
    if mat.size == 0:
        raise InputError("matrix is empty")
    lowest, highest = float(mat.min()), float(mat.max())
    if not (np.isfinite(lowest) and np.isfinite(highest)):
        raise InputError("matrix contains non-finite values")
    scale = max(1.0, highest, -lowest)
    n = mat.shape[0]
    step = max(1, SYMMETRY_BLOCK_BYTES // (8 * n))
    asym = 0.0
    for start in range(0, n, step):
        stop = min(start + step, n)
        diff = mat[start:stop, start:] - mat[start:, start:stop].T
        asym = max(asym, float(np.max(np.abs(diff, out=diff))))
    if asym > SYMMETRY_TOL * scale:
        raise InputError(
            f"matrix is not symmetric: max |K - K^T| = {asym:.3e} "
            f"(allowed {SYMMETRY_TOL * scale:.3e})"
        )
    return mat, lowest


def sym_eigendecompose(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a symmetric matrix, eigenvalues descending.

    Returns ``(eigenvalues, eigenvectors)`` with
    ``matrix ~= eigenvectors @ diag(eigenvalues) @ eigenvectors.T``, as
    reversed views of ``np.linalg.eigh``'s output.

    Raises InputError for empty, non-square, non-finite, or visibly
    asymmetric input, and NumericalError if the eigensolver fails to
    converge.
    """
    mat, _ = _checked_symmetric(matrix)
    try:
        vals, vecs = np.linalg.eigh(mat)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigendecomposition failed: {exc}") from exc
    # eigh returns ascending order; flip to descending.
    return vals[::-1], vecs[:, ::-1]


def perron_bound(gram: np.ndarray) -> float:
    """Upper bound on ||K||_2 for a symmetric K with no negative entry.

    For such a K, ||K||_2 is its Perron root rho, and for every v > 0 the
    Collatz-Wielandt bound gives rho <= max_i (K v)_i / v_i, while the
    Rayleigh quotient v^T K v / v^T v <= rho.  Power iteration from v = 1
    tightens both: each step takes w = K v, the two bounds, and then
    v = w / upper.  It stops when they agree to PERRON_RTOL or after
    PERRON_MAX_ITER steps, and returns the upper bound either way, so a
    step size 1 / L built on it is never too long.  A positive diagonal
    keeps K v > 0 for every v > 0; an entry of v that underflows is raised
    to the smallest normal double, which keeps v > 0.
    """
    v = np.ones(gram.shape[0])
    for _ in range(PERRON_MAX_ITER):
        w = gram @ v
        upper = float(np.max(w / v))
        lower = float(v @ w) / float(v @ v)
        if upper - lower <= PERRON_RTOL * upper:
            break
        v = np.maximum(w / upper, np.finfo(np.float64).tiny)
    return upper


def positive_decompose(
    gram: np.ndarray,
    eigenvalues: np.ndarray | None,
    eigenvectors: np.ndarray | None,
    tau: float,
) -> GramDecomposition:
    """Build the shifted positive decomposition from a precomputed eigensystem.

    ``eigenvalues`` and ``eigenvectors`` are both given or both None.  Given,
    they must be a descending eigendecomposition of ``gram`` (as produced by
    :func:`sym_eigendecompose`), and W is built from the eigenpairs with a
    negative eigenvalue.  ``tau`` must be strictly positive.

    Both None declares ``gram`` positive semidefinite with no negative entry
    and a positive diagonal, as an RBF Gram is: W gets no column and both
    norms are :func:`perron_bound`.  The entries and diagonal are checked,
    the semidefiniteness is not (see :func:`decompose_gram`).
    """
    check_number("tau", tau)
    if (eigenvalues is None) != (eigenvectors is None):
        raise InputError("give both eigenvalues and eigenvectors, or neither")
    if eigenvalues is None:
        mat, lowest = _checked_symmetric(gram)
        if lowest < 0.0 or float(mat.diagonal().min()) <= 0.0:
            raise InputError(
                "a Gram declared PSD must have no negative entry and a positive diagonal"
            )
        bound = perron_bound(mat)
        return GramDecomposition(
            gram=mat, tau=float(tau), lowrank=np.empty((mat.shape[0], 0)),
            spectral_norm=bound, top_eigenvalue=bound,
        )
    vals = np.asarray(eigenvalues, dtype=np.float64)
    vecs = np.asarray(eigenvectors, dtype=np.float64)
    mat = np.asarray(gram, dtype=np.float64)
    n = mat.shape[0]
    if vals.shape != (n,) or vecs.shape != (n, n):
        raise InputError("eigensystem shape does not match the matrix")
    if np.any(np.diff(vals) > 0):
        raise InputError("eigenvalues must be sorted descending")
    neg = vals < 0.0
    factor = vecs[:, neg]  # a copy, scaled in place
    factor *= np.sqrt(-vals[neg])
    return GramDecomposition(
        gram=mat, tau=float(tau), lowrank=factor,
        spectral_norm=max(abs(float(vals[0])), abs(float(vals[-1]))),
        top_eigenvalue=max(float(vals[0]), 0.0),
    )


def decompose_gram(gram: np.ndarray, tau: float, *, psd: bool = False) -> GramDecomposition:
    """Eigendecompose, then positively decompose.

    By default one ``eigh`` gives the eigenvalues and eigenvectors, and W is
    built from the negative eigenpairs; a positive semidefinite Gram gets W
    of shape (n, 0) from the same single ``eigh``.

    ``psd=True`` states that ``gram`` is positive semidefinite, as an RBF
    Gram is, and runs no eigensolver: W gets shape (n, 0), and ||K||_2 comes
    from :func:`perron_bound`.  The bound needs what is checked here (a
    square, finite, symmetric ``gram`` with no negative entry and a positive
    diagonal, else InputError); the semidefiniteness itself is the caller's
    statement and is not checked.  Eigenvalues that rounding makes slightly
    negative are not split off into W.  This keeps g convex as long as
    tau >> n eps ||K||_2, which holds for the default tau = 1e-6: an RBF
    Gram with sigma = 100 on 200 standard normal points in d = 3 has 84 to
    87 eigenvalues near -1e-14 under ``eigh`` (three draws), each of which
    the default path splits off into W.
    """
    if psd:
        return positive_decompose(gram, None, None, tau)
    vals, vecs = sym_eigendecompose(gram)
    return positive_decompose(gram, vals, vecs, tau)
