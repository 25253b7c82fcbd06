"""The kernel loop before blocks: one row of the shorter side at a time.

Kept unchanged as the reference for :func:`iklogit.kernels.kernel_rows`,
which fills blocks of output rows one feature at a time.  This loop sums
each distance with numpy's ``sum(axis=1)``: for d < 8 the block loop must
return exactly what it returns, and for d >= 8, where numpy sums pairwise,
agree to within a few rounding errors of each distance.  It takes bare
(n, d) feature matrices and checks nothing.
"""

from __future__ import annotations

import numpy as np

from iklogit.kernels import KernelSpec


def _rows_against(spec: KernelSpec, block: np.ndarray, point: np.ndarray) -> np.ndarray:
    """Kernel values of one point against every row of ``block``."""
    if spec.kind == "tl1":
        dist = np.abs(block - point).sum(axis=1)
        return np.maximum(spec.eta - dist, 0.0)
    sq = ((block - point) ** 2).sum(axis=1)
    return np.exp(-sq / spec.sigma**2)


def kernel_rows(spec: KernelSpec, base: np.ndarray, tests: np.ndarray) -> np.ndarray:
    """Entry (i, j) = k(tests_i, base_j), looping over the shorter side."""
    out = np.empty((tests.shape[0], base.shape[0]), dtype=np.float64)
    if tests.shape[0] <= base.shape[0]:
        for j in range(tests.shape[0]):
            out[j] = _rows_against(spec, base, tests[j])
    else:
        for i in range(base.shape[0]):
            out[:, i] = _rows_against(spec, tests, base[i])
    return out
