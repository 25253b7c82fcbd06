"""Fit/predict API over the four named model variants.

Variants pair a regularization mode with a default kernel:

====================  ==============  ===============
variant               L1 sparsity     default kernel
====================  ==============  ===============
klr                   no              rbf
l1-rklr               yes             rbf
iklr                  no              tl1
l1-riklr              yes             tl1
====================  ==============  ===============

The kernel default is overridable; the sparsity pairing is not (non-L1
variants require lambda1 = 0).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .errors import InputError, check_number
from .kernels import Dataset, KernelSpec, gram_matrix, kernel_rows
from .objective import DcObjective, sigmoid
from .solver import SolveTrace, SolverConfig, pla_fit
from .spectral import decompose_gram

VARIANTS = ("klr", "l1-rklr", "iklr", "l1-riklr")
L1_VARIANTS = ("l1-rklr", "l1-riklr")
RBF_VARIANTS = ("klr", "l1-rklr")

# Coefficients at or below this magnitude count as pruned.
SPARSITY_THRESHOLD = 1e-10

MODEL_SCHEMA = "iklogit-model"
# Schema 2 stores d and the nonzero-coefficient rows; schema 1 files (every
# training row) still load.
MODEL_SCHEMA_VERSION = 2

# Bytes held at once while scoring: test rows go in blocks whose kernel
# values (one per nonzero coefficient) and per-row scratch (one per
# feature) each fit in this many bytes, so memory does not grow with the
# number of test rows.
SCORE_BLOCK_BYTES = 2**22

# Probabilities are clipped into the open interval (0, 1).
_P_LO = np.finfo(np.float64).tiny
_P_HI = 1.0 - 2.0**-53


@dataclass
class ModelSpec:
    """Everything needed to train one model.

    ``kernel=None`` selects the variant's default: rbf(sigma=1) for the
    PSD variants, tl1 with eta resolved to 0.7*d at fit time for the
    indefinite ones.
    """

    variant: str
    lam: float
    lam1: float = 0.0
    kernel: KernelSpec | None = None
    tau: float = 1e-6
    solver: SolverConfig = field(default_factory=SolverConfig)

    def __post_init__(self) -> None:
        self.variant = str(self.variant).lower()
        if self.variant not in VARIANTS:
            raise InputError(
                f"unknown variant {self.variant!r}; expected one of {VARIANTS}"
            )
        check_number("lambda", self.lam)
        check_number("lambda1", self.lam1, positive=False)
        if self.lam1 != 0.0 and not self.is_l1:
            raise InputError(
                f"variant {self.variant!r} does not take an L1 term; "
                "set lambda1 = 0 or use an l1- variant"
            )
        check_number("tau", self.tau)

    @property
    def is_l1(self) -> bool:
        return self.variant in L1_VARIANTS

    def effective_kernel(self, d: int) -> KernelSpec:
        """The configured kernel, or the variant default, resolved for d."""
        if self.kernel is not None:
            return self.kernel.resolve(d)
        if self.variant in RBF_VARIANTS:
            return KernelSpec.rbf(1.0)
        return KernelSpec.tl1().resolve(d)


@dataclass(eq=False)
class FittedModel:
    """Trained coefficients plus everything prediction needs.

    ``alpha`` and ``train_features`` cover the retained training rows: all
    after :func:`fit`, the nonzero-coefficient ones after loading a schema 2
    file.  ``trace`` is None for models loaded from disk.
    """

    alpha: np.ndarray
    train_features: np.ndarray
    kernel: KernelSpec
    variant: str
    lam: float
    lam1: float
    tau: float
    sparsity_threshold: float = SPARSITY_THRESHOLD
    trace: SolveTrace | None = None

    def __post_init__(self) -> None:
        self.alpha = _float_array(self.alpha, "alpha")
        self.train_features = _float_array(self.train_features, "train_features")
        if self.alpha.ndim != 1 or not np.all(np.isfinite(self.alpha)):
            raise InputError("alpha must be a finite 1-D vector")
        feats = self.train_features
        if feats.ndim != 2 or not np.all(np.isfinite(feats)):
            raise InputError("train_features must be a finite 2-D array")
        if self.train_features.shape[0] != self.alpha.shape[0]:
            raise InputError(
                "alpha length must equal the retained training size: "
                f"{self.alpha.shape[0]} vs {self.train_features.shape[0]}"
            )
        if self.variant not in VARIANTS:
            raise InputError(f"unknown variant {self.variant!r}")
        for name in ("lam", "lam1", "tau", "sparsity_threshold"):
            check_number(name, getattr(self, name), positive=False)

    @property
    def support(self) -> np.ndarray:
        """Indices of active coefficients: |alpha_i| > sparsity_threshold."""
        return np.flatnonzero(np.abs(self.alpha) > self.sparsity_threshold)

    def scores(self, test_features: np.ndarray) -> np.ndarray:
        """Decision scores K_z alpha for each test row.

        Only the training rows whose coefficient is nonzero are scored:
        the sum is K_z alpha term for term, without the zero terms.
        """
        tests = np.atleast_2d(np.asarray(test_features, dtype=np.float64))
        nonzero = np.flatnonzero(self.alpha)
        rows, coef = self.train_features[nonzero], self.alpha[nonzero]
        width = max(nonzero.size, self.train_features.shape[1], 1)
        step = max(1, SCORE_BLOCK_BYTES // (8 * width))
        return np.concatenate([
            kernel_rows(self.kernel, rows, tests[i : i + step]) @ coef
            for i in range(0, max(len(tests), 1), step)
        ])


def _float_array(value, name: str) -> np.ndarray:
    """``value`` as a float array; ragged or non-numeric input is an InputError."""
    try:
        return np.asarray(value, dtype=np.float64)
    except (TypeError, ValueError):
        raise InputError(f"{name} must be an array of numbers") from None


def fit(spec: ModelSpec, train: Dataset) -> FittedModel:
    """Train one model: Gram, positive decomposition, then the PLA solver.

    An RBF Gram is declared positive semidefinite, so its split runs no
    eigensolver (see :func:`decompose_gram`).

    Raises InputError when the training labels are single-class.  A run
    that hits max_outer still returns a model; the trace carries the
    ``max_iterations`` status.
    """
    if len(np.unique(train.labels)) < 2:
        raise InputError("training data must contain both classes")
    kernel = spec.effective_kernel(train.d)
    gram = gram_matrix(kernel, train)
    decomp = decompose_gram(gram, spec.tau, psd=kernel.kind == "rbf")
    obj = DcObjective.from_labels(decomp, train.labels, spec.lam, spec.lam1)
    alpha, trace = pla_fit(obj, spec.solver)
    return FittedModel(
        alpha=alpha,
        train_features=train.features.copy(),
        kernel=kernel,
        variant=spec.variant,
        lam=spec.lam,
        lam1=spec.lam1,
        tau=spec.tau,
        trace=trace,
    )


def predict_proba(model: FittedModel, test_features: np.ndarray) -> np.ndarray:
    """Class-1 probability per test row, clipped into (0, 1)."""
    return np.clip(sigmoid(model.scores(test_features)), _P_LO, _P_HI)


def predict_label(model: FittedModel, test_features: np.ndarray) -> np.ndarray:
    """Predicted {0,1} labels; score 0 (probability exactly 0.5) maps to 1.

    Computed from the raw scores so the tie rule is exact.
    """
    return (model.scores(test_features) >= 0.0).astype(np.int64)


def save_model(model: FittedModel, path: str) -> None:
    """Write a self-describing JSON model file: d and the rows scoring reads.

    Only rows with a nonzero coefficient are written.  Floats serialize via
    repr and round-trip bitwise; a loaded model predicts exactly the same.
    """
    nonzero = np.flatnonzero(model.alpha)
    payload = {
        "schema": MODEL_SCHEMA,
        "schema_version": MODEL_SCHEMA_VERSION,
        "variant": model.variant,
        "kernel": model.kernel.to_dict(),
        "lambda": model.lam,
        "lambda1": model.lam1,
        "tau": model.tau,
        "sparsity_threshold": model.sparsity_threshold,
        "d": model.train_features.shape[1],
        "alpha": model.alpha[nonzero].tolist(),
        "train_features": model.train_features[nonzero].tolist(),
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)
        fh.write("\n")


def load_model(path: str) -> FittedModel:
    """Read a model file of schema 1 (every training row) or 2 (nonzero rows).

    A file that is not JSON or not a well-formed payload raises InputError.
    """
    with open(path, "r", encoding="utf-8") as fh:
        try:
            payload = json.load(fh)
        except json.JSONDecodeError as exc:
            raise InputError(f"model file {path} is not JSON: {exc}") from None
    if not isinstance(payload, dict) or payload.get("schema") != MODEL_SCHEMA:
        raise InputError(f"not a model file: {path}")
    version = payload.get("schema_version")
    if version not in (1, MODEL_SCHEMA_VERSION):
        raise InputError(f"unsupported model schema version {version}")
    try:
        rows = payload["train_features"]
        d = payload["d"] if version == MODEL_SCHEMA_VERSION else None
        if d is not None and (type(d) is not int or d < 1):
            raise InputError(f"d must be a positive integer, got {d!r}")
        if d is not None and not rows:
            rows = np.zeros((0, d))  # an all-zero alpha stores no row
        model = FittedModel(
            alpha=payload["alpha"],
            train_features=rows,
            kernel=KernelSpec.from_dict(payload["kernel"]),
            variant=payload["variant"],
            lam=payload["lambda"],
            lam1=payload["lambda1"],
            tau=payload["tau"],
            sparsity_threshold=payload["sparsity_threshold"],
            trace=None,
        )
    except KeyError as exc:
        raise InputError(f"model file {path} lacks the key {exc}") from None
    if d is not None and model.train_features.shape[1] != d:
        raise InputError(f"train_features rows must have d = {d} values")
    return model
