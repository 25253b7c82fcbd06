"""Kernel functions and Gram-matrix assembly.

Two kernels are supported:

* ``tl1``: the truncated L1 kernel ``k(x, z) = max(eta - ||x - z||_1, 0)``,
  a piecewise-linear compactly supported kernel that is indefinite in
  general.  ``eta`` defaults to ``0.7 * d`` when left unset.
* ``rbf``: the Gaussian kernel ``k(x, z) = exp(-||x - z||^2 / sigma^2)``,
  positive definite for distinct points.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, replace

import numpy as np

from .errors import InputError, ResourceError

KERNEL_KINDS = ("tl1", "rbf")

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


def _positive(value) -> bool:
    """True for a positive finite number, False for anything else (a bool too)."""
    return (
        isinstance(value, numbers.Real)
        and not isinstance(value, bool)
        and bool(np.isfinite(value))
        and value > 0
    )


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
            raise InputError(f"unknown kernel kind {self.kind!r}")
        if self.kind == "tl1":
            if self.sigma is not None:
                raise InputError("tl1 kernel takes eta, not sigma")
            if self.eta is not None and not _positive(self.eta):
                raise InputError(f"eta must be positive and finite, got {self.eta}")
        else:
            if self.eta is not None:
                raise InputError("rbf kernel takes sigma, not eta")
            if not _positive(self.sigma):
                raise InputError(f"sigma must be positive and finite, got {self.sigma}")

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


def _rows_against(spec: KernelSpec, block: np.ndarray, point: np.ndarray) -> np.ndarray:
    """Kernel values of one point against every row of ``block``."""
    if spec.kind == "tl1":
        dist = np.abs(block - point).sum(axis=1)
        return np.maximum(spec.eta - dist, 0.0)
    sq = ((block - point) ** 2).sum(axis=1)
    return np.exp(-sq / spec.sigma**2)


def gram_matrix(
    spec: KernelSpec, data: Dataset, *, max_bytes: int = 2**29
) -> np.ndarray:
    """Assemble the full symmetric Gram matrix of ``data`` under ``spec``.

    This is :func:`kernel_rows` of the data against itself, so scratch
    memory beyond the result is one n x d row block.  The result is
    exactly symmetric, since |a - b| and (a - b)^2 do not depend on the
    order of a and b in floating point.  Raises ResourceError when the
    n x n result would exceed ``max_bytes``.
    """
    _require_resolved(spec)
    n = data.n
    if n * n * 8 > max_bytes:
        raise ResourceError(
            f"Gram matrix of size {n}x{n} needs {n * n * 8} bytes, "
            f"cap is {max_bytes}"
        )
    return kernel_rows(spec, data, data.features)


def kernel_rows(
    spec: KernelSpec,
    train: "Dataset | np.ndarray",
    test_features: np.ndarray,
) -> np.ndarray:
    """Cross-kernel block: entry (i, j) = k(test_i, train_j).

    ``train`` may be a Dataset or a bare (n, d) feature matrix.  The loop
    runs over the shorter side, one row of it against every row of the
    longer side, so scratch memory beyond the result is one row block of
    the longer side.  Either orientation gives bitwise-equal entries.
    """
    _require_resolved(spec)
    base = train.features if isinstance(train, Dataset) else np.asarray(train, float)
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
    out = np.empty((tests.shape[0], base.shape[0]), dtype=np.float64)
    if tests.shape[0] <= base.shape[0]:
        for j in range(tests.shape[0]):
            out[j] = _rows_against(spec, base, tests[j])
    else:
        for i in range(base.shape[0]):
            out[:, i] = _rows_against(spec, tests, base[i])
    return out
