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
max(mu_1, 0).  Products with K- and K+ go through W.  The eigenvectors are
read once, to build W, and are not kept; a Gram with no negative eigenvalue
has r = 0, so its eigenvectors are never computed.

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


def _checked_symmetric(matrix: np.ndarray) -> np.ndarray:
    """``matrix`` as a float array; InputError unless square, nonempty,
    finite and symmetric to SYMMETRY_TOL relative to its largest entry."""
    mat = np.asarray(matrix, dtype=np.float64)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise InputError(f"matrix must be square, got shape {mat.shape}")
    if mat.size == 0:
        raise InputError("matrix is empty")
    if not np.all(np.isfinite(mat)):
        raise InputError("matrix contains non-finite values")
    scale = max(1.0, float(mat.max()), -float(mat.min()))
    # |K - K^T| in one temporary, freed before the caller's eigensolve or
    # power iteration.
    diff = mat - mat.T
    asym = float(np.max(np.abs(diff, out=diff)))
    del diff
    if asym > SYMMETRY_TOL * scale:
        raise InputError(
            f"matrix is not symmetric: max |K - K^T| = {asym:.3e} "
            f"(allowed {SYMMETRY_TOL * scale:.3e})"
        )
    return mat


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
    mat = _checked_symmetric(matrix)
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

    ``eigenvalues``/``eigenvectors`` must be a descending eigendecomposition
    of ``gram`` (as produced by :func:`sym_eigendecompose`); ``eigenvectors``
    may be None only when no eigenvalue is negative.  ``tau`` must be
    strictly positive.

    ``eigenvalues=None`` (with ``eigenvectors=None``) declares ``gram``
    positive semidefinite with no negative entry and a positive diagonal,
    as an RBF Gram is: W gets no column and both norms are
    :func:`perron_bound`.  The entries and diagonal are checked, the
    semidefiniteness is not (see :func:`decompose_gram`).
    """
    check_number("tau", tau)
    if eigenvalues is None:
        if eigenvectors is not None:
            raise InputError("eigenvectors need their eigenvalues")
        mat = _checked_symmetric(gram)
        if float(mat.min()) < 0.0 or float(mat.diagonal().min()) <= 0.0:
            raise InputError(
                "a Gram declared PSD must have no negative entry and a positive diagonal"
            )
        bound = perron_bound(mat)
        return GramDecomposition(
            gram=mat, tau=float(tau), lowrank=np.empty((mat.shape[0], 0)),
            spectral_norm=bound, top_eigenvalue=bound,
        )
    vals = np.asarray(eigenvalues, dtype=np.float64)
    mat = np.asarray(gram, dtype=np.float64)
    n = mat.shape[0]
    vecs = None if eigenvectors is None else np.asarray(eigenvectors, dtype=np.float64)
    if vals.shape != (n,) or (vecs is not None and vecs.shape != (n, n)):
        raise InputError("eigensystem shape does not match the matrix")
    if np.any(np.diff(vals) > 0):
        raise InputError("eigenvalues must be sorted descending")
    neg = vals < 0.0
    if vecs is None:
        if np.any(neg):
            raise InputError("eigenvectors are required for negative eigenvalues")
        factor = np.empty((n, 0))
    else:
        factor = vecs[:, neg]  # a copy, scaled in place
        factor *= np.sqrt(-vals[neg])
    return GramDecomposition(
        gram=mat, tau=float(tau), lowrank=factor,
        spectral_norm=max(abs(float(vals[0])), abs(float(vals[-1]))),
        top_eigenvalue=max(float(vals[0]), 0.0),
    )


def decompose_gram(gram: np.ndarray, tau: float, *, psd: bool = False) -> GramDecomposition:
    """Eigendecompose, then positively decompose.

    Eigenvectors are computed only when ``gram`` has a negative eigenvalue,
    so a positive semidefinite Gram costs one ``eigvalsh`` and no n x n
    matrix beyond one temporary of the symmetry check.

    ``psd=True`` states that ``gram`` is positive semidefinite, as an RBF
    Gram is, and runs no eigensolver: W gets shape (n, 0), and ||K||_2 comes
    from :func:`perron_bound`.  The bound needs what is checked here (a
    square, finite, symmetric ``gram`` with no negative entry and a positive
    diagonal, else InputError); the semidefiniteness itself is the caller's
    statement and is not checked.  Eigenvalues that rounding makes slightly
    negative are not split off into W.  This keeps g convex as long as
    tau >> n eps ||K||_2, which holds for the default tau = 1e-6: an RBF
    Gram with sigma = 100 at n = 200 has 41 eigenvalues near -1e-14 under
    ``eigvalsh``, for which the default path runs a full ``eigh``.
    """
    if psd:
        return positive_decompose(gram, None, None, tau)
    vals, vecs = sym_eigendecompose(gram, vectors_if_negative=True)
    return positive_decompose(gram, vals, vecs, tau)
