"""Kernel functions and Gram-matrix assembly.

Two kernels are supported:

* ``tl1``: the truncated L1 kernel ``k(x, z) = max(eta - ||x - z||_1, 0)``,
  a piecewise-linear compactly supported kernel that is indefinite in
  general.  ``eta`` defaults to ``0.7 * d`` when left unset.
* ``rbf``: the Gaussian kernel ``k(x, z) = exp(-||x - z||^2 / sigma^2)``,
  positive definite for distinct points.

Every kernel block, the Gram included, is filled by one loop over blocks of
output rows (:func:`kernel_rows`).  A block is built one feature at a time:
the differences of that feature, then their ``abs`` (TL1) or square (RBF),
added in place to the block.  The kernel's map, the TL1 cap or ``exp``, is
applied in place at the end.  Scratch beyond the result is one block of
differences, at most KERNEL_BLOCK_BYTES (or one output row, if that is
larger), plus a transposed copy of the training features.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import InputError, ResourceError, check_number

KERNEL_KINDS = ("tl1", "rbf")

# Bytes of one block of output rows in kernel_rows, and of its scratch.  On
# a 2-core Xeon (one thread) the n = 2000, d = 5 Gram takes 0.04-0.06 s with
# blocks of 32 KiB to 1 MiB, and 0.06-0.07 s with blocks of 2 MiB and more,
# which no longer stay in cache.
KERNEL_BLOCK_BYTES = 2**18

# Largest Gram matrix gram_matrix assembles, in bytes: 512 MiB, n = 8192.
GRAM_MAX_BYTES = 2**29

# Fraction of the feature dimension used for the default TL1 bandwidth.
DEFAULT_ETA_FACTOR = 0.7


def normalize_binary_labels(values: np.ndarray) -> np.ndarray:
    """Map raw labels in {0,1} or {-1,+1} onto {0,1}.

    Mixing conventions (a file containing both -1 and 0) is rejected, as is
    any value outside the two supported alphabets.
    """
    arr = np.asarray(values)
    if arr.size == 0:
        raise InputError("label array is empty")
    uniq = set(np.unique(arr).tolist())
    if uniq <= {0, 1}:
        return arr.astype(np.int64)
    if uniq <= {-1, 1}:
        return ((arr + 1) // 2).astype(np.int64)
    raise InputError(
        f"labels must lie in {{0,1}} or {{-1,+1}}; saw values {sorted(uniq)}"
    )


@dataclass(frozen=True, eq=False)
class Dataset:
    """Immutable feature/label container.

    Parameters
    ----------
    features : ndarray of shape (n, d)
        Finite float rows; n >= 2 and d >= 1.
    labels : ndarray of shape (n,)
        Binary labels, every entry exactly 0 or 1.
    """

    features: np.ndarray
    labels: np.ndarray

    def __post_init__(self) -> None:
        feats = np.asarray(self.features, dtype=np.float64)
        labs = np.asarray(self.labels)
        if feats.ndim != 2:
            raise InputError(f"features must be 2-D, got shape {feats.shape}")
        n, d = feats.shape
        if n < 2 or d < 1:
            raise InputError(f"need n >= 2 and d >= 1, got shape {feats.shape}")
        if not np.all(np.isfinite(feats)):
            raise InputError("features contain non-finite values")
        if labs.shape != (n,):
            raise InputError(
                f"labels must have shape ({n},), got {labs.shape}"
            )
        if not np.all(np.isin(labs, (0, 1))):
            raise InputError("labels must be exactly 0 or 1")
        object.__setattr__(self, "features", feats)
        object.__setattr__(self, "labels", labs.astype(np.int64))

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def d(self) -> int:
        return self.features.shape[1]

    def subset(self, indices: np.ndarray) -> "Dataset":
        """Row-select a new dataset; indices follow numpy fancy-indexing rules."""
        idx = np.asarray(indices, dtype=np.int64)
        return Dataset(self.features[idx], self.labels[idx])


@dataclass(frozen=True)
class KernelSpec:
    """Kernel family plus its single active parameter.

    ``tl1`` uses ``eta`` (may be left as None and resolved against the data
    dimension later); ``rbf`` requires ``sigma`` at construction.
    """

    kind: str
    eta: float | None = None
    sigma: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in KERNEL_KINDS:
            raise InputError(f"kind must be one of {KERNEL_KINDS}, got {self.kind!r}")
        if self.kind == "tl1":
            if self.sigma is not None:
                raise InputError("tl1 kernel takes eta, not sigma")
            if self.eta is not None:
                check_number("eta", self.eta)
        else:
            if self.eta is not None:
                raise InputError("rbf kernel takes sigma, not eta")
            check_number("sigma", self.sigma)

    @classmethod
    def tl1(cls, eta: float | None = None) -> "KernelSpec":
        return cls(kind="tl1", eta=eta)

    @classmethod
    def rbf(cls, sigma: float) -> "KernelSpec":
        return cls(kind="rbf", sigma=sigma)

    def resolve(self, d: int) -> "KernelSpec":
        """Fill the default TL1 bandwidth eta = 0.7 * d for dimension ``d``."""
        if self.kind == "tl1" and self.eta is None:
            return replace(self, eta=DEFAULT_ETA_FACTOR * d)
        return self

    def to_dict(self) -> dict:
        out: dict = {"kind": self.kind}
        if self.kind == "tl1":
            out["eta"] = self.eta
        else:
            out["sigma"] = self.sigma
        return out

    @classmethod
    def from_dict(cls, payload: dict) -> "KernelSpec":
        """Inverse of :meth:`to_dict`; a parameter of the other kind is rejected."""
        if not isinstance(payload, dict):
            raise InputError(f"kernel must be a JSON object, got {payload!r}")
        return cls(
            kind=payload.get("kind"), eta=payload.get("eta"), sigma=payload.get("sigma")
        )


def _require_resolved(spec: KernelSpec) -> None:
    if spec.kind == "tl1" and spec.eta is None:
        raise InputError("tl1 kernel has unresolved eta; call spec.resolve(d) first")


def gram_matrix(spec: KernelSpec, data: Dataset) -> np.ndarray:
    """Assemble the full symmetric Gram matrix of ``data`` under ``spec``.

    This is :func:`kernel_rows` of the data against itself, so scratch
    memory beyond the result is one block of KERNEL_BLOCK_BYTES.  The
    result is exactly symmetric for every d: entries (i, j) and (j, i) add
    the same terms in the same feature order, since |a - b| and (a - b)^2
    do not depend on the order of a and b in floating point.  Raises
    ResourceError when the n x n result would exceed GRAM_MAX_BYTES.
    """
    _require_resolved(spec)
    n = data.n
    if n * n * 8 > GRAM_MAX_BYTES:
        raise ResourceError(
            f"Gram matrix of size {n}x{n} needs {n * n * 8} bytes, "
            f"cap is {GRAM_MAX_BYTES}"
        )
    return kernel_rows(spec, data.features, data.features)


def kernel_rows(
    spec: KernelSpec, train_features: np.ndarray, test_features: np.ndarray
) -> np.ndarray:
    """Cross-kernel block: entry (i, j) = k(test_i, train_j).

    ``train_features`` is an (n, d) feature matrix.  The output is filled
    in blocks of rows of at most KERNEL_BLOCK_BYTES (at least one row each),
    feature by feature, so scratch memory beyond the result is one such
    block plus a d x n copy of the training features.

    Each distance is summed in feature order, 0 + t_1 + t_2 + ... + t_d.
    For d < 8 that is bitwise numpy's ``sum(axis=1)`` over the features.
    For d >= 8 numpy sums pairwise, so entries can differ from it in the
    last bits: on 1000 standard normal points at d = 33, by at most 1.1e-14
    for TL1 with the default eta and 3.3e-16 for RBF with sigma = sqrt(d).
    ``kernel_rows(spec, a, b)`` is bitwise ``kernel_rows(spec, b, a).T`` for
    every d.
    """
    _require_resolved(spec)
    base = np.asarray(train_features, dtype=np.float64)
    if base.ndim != 2:
        raise InputError(f"training features must be 2-D, got shape {base.shape}")
    tests = np.asarray(test_features, dtype=np.float64)
    if tests.ndim == 1:
        tests = tests[None, :]
    if tests.shape[1] != base.shape[1]:
        raise InputError(
            f"dimension mismatch: train d={base.shape[1]}, test d={tests.shape[1]}"
        )
    if not np.all(np.isfinite(tests)):
        raise InputError("test features contain non-finite values")
    m, n = tests.shape[0], base.shape[0]
    out = np.empty((m, n), dtype=np.float64)
    columns = np.ascontiguousarray(base.T)
    step = max(1, KERNEL_BLOCK_BYTES // (8 * max(n, 1)))
    scratch = np.empty((min(step, m), n), dtype=np.float64)
    power = np.abs if spec.kind == "tl1" else np.square
    for start in range(0, m, step):
        block = out[start : start + step]
        diff = scratch[: block.shape[0]]
        rows = tests[start : start + step]
        block.fill(0.0)
        for k in range(columns.shape[0]):
            np.subtract(rows[:, k, None], columns[k], out=diff)
            power(diff, out=diff)
            block += diff
        if spec.kind == "tl1":
            np.subtract(spec.eta, block, out=block)
            np.maximum(block, 0.0, out=block)
        else:
            np.negative(block, out=block)
            block /= spec.sigma**2
            np.exp(block, out=block)
    return out
