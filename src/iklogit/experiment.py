"""Benchmark protocol: ingestion, half-splits, CV grid search, reports.

The protocol per dataset and variant: repeat ``repeats`` times with seeds
``base_seed + r``; each repeat draws a stratified half-split, selects
hyperparameters by k-fold cross-validated accuracy over the grid on the
training half only, retrains on the full training half, and scores the
held-out half.  Mean/std accuracy and mean active-coefficient counts are
aggregated per variant; spectrum statistics of the TL1 Gram over the full
dataset accompany every report.
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .errors import (ConfigError, InputError, NumericalError, ParseError, check_integer,
                     check_number, check_type)
from .kernels import Dataset, KernelSpec, gram_matrix, normalize_binary_labels
from .model import (L1_VARIANTS, RBF_VARIANTS, VARIANTS, ModelSpec, fit,
                    predict_label)
from .solver import MAX_ITERATIONS, SolverConfig
from .spectral import sym_eigendecompose

DEFAULT_GRID = (0.0001, 0.001, 0.01, 0.1, 1.0, 5.0, 10.0)


@dataclass
class CsvOptions:
    """Shape of a delimited input file.

    ``label_column`` indexes columns (negatives count from the end); None
    means the file carries features only.  ``standardize`` z-scores each
    feature column (constant columns are centered only).
    """

    delimiter: str = ","
    has_header: bool = False
    label_column: int | None = -1
    standardize: bool = False

    def __post_init__(self) -> None:
        check_type("delimiter", self.delimiter, (str,), "a string", ConfigError)
        if len(self.delimiter) != 1:
            raise ConfigError(f"delimiter must be a 1-character string, got {self.delimiter!r}")
        check_type("has_header", self.has_header, (bool,), "a bool", ConfigError)
        check_type("standardize", self.standardize, (bool,), "a bool", ConfigError)
        check_type("label_column", self.label_column, (int, type(None)),
                   "an integer or None", ConfigError)


def _read_matrix(path: str, options: CsvOptions) -> np.ndarray:
    """Parse a delimited file into a float matrix with located errors."""
    rows: list[list[float]] = []
    width = None
    try:
        fh = open(path, "r", encoding="utf-8", newline="")
    except OSError as exc:
        raise InputError(f"cannot read dataset file {path}: {exc}") from exc
    with fh:
        reader = csv.reader(fh, delimiter=options.delimiter)
        for lineno, record in enumerate(reader, start=1):
            if options.has_header and lineno == 1:
                continue
            if not record or all(not cell.strip() for cell in record):
                continue
            if width is None:
                width = len(record)
            elif len(record) != width:
                raise ParseError(
                    f"{path}: line {lineno}: expected {width} fields, "
                    f"got {len(record)}"
                )
            parsed = []
            for col, cell in enumerate(record, start=1):
                try:
                    parsed.append(float(cell))
                except ValueError:
                    raise ParseError(
                        f"{path}: line {lineno}, column {col}: "
                        f"not numeric: {cell.strip()!r}"
                    ) from None
            rows.append(parsed)
    if not rows:
        raise ParseError(f"{path}: no data rows")
    return np.asarray(rows, dtype=np.float64)


def _standardize(features: np.ndarray) -> np.ndarray:
    mean = features.mean(axis=0)
    std = features.std(axis=0)
    std[std == 0.0] = 1.0
    return (features - mean) / std


def _split_label_column(matrix: np.ndarray, label_column: int, path: str) -> tuple:
    ncols = matrix.shape[1]
    col = label_column if label_column >= 0 else ncols + label_column
    if not 0 <= col < ncols:
        raise ConfigError(
            f"{path}: label column {label_column} out of range for "
            f"{ncols} columns"
        )
    if ncols < 2:
        raise ConfigError(f"{path}: need at least one feature column")
    features = np.delete(matrix, col, axis=1)
    return features, matrix[:, col]


def ingest_csv(path: str, options: CsvOptions | None = None) -> Dataset:
    """Load a labeled delimited file; labels normalized onto {0,1}.

    Row order is preserved.  Non-numeric cells raise ParseError naming the
    line and column; a missing label column raises ConfigError.
    """
    opts = options or CsvOptions()
    if opts.label_column is None:
        raise ConfigError(f"{path}: a label column is required to build a dataset")
    matrix = _read_matrix(path, opts)
    features, raw_labels = _split_label_column(matrix, opts.label_column, path)
    if np.any(raw_labels != np.round(raw_labels)):
        raise InputError(f"{path}: labels must be integers in {{0,1}} or {{-1,+1}}")
    labels = normalize_binary_labels(raw_labels.astype(np.int64))
    if opts.standardize:
        features = _standardize(features)
    return Dataset(features, labels)


def read_features(path: str, options: CsvOptions | None = None) -> np.ndarray:
    """Load a feature matrix, dropping the label column if one is configured."""
    opts = options or CsvOptions()
    matrix = _read_matrix(path, opts)
    if opts.label_column is None:
        return matrix
    features, _ = _split_label_column(matrix, opts.label_column, path)
    return features


def half_split(data: Dataset, seed: int) -> tuple[Dataset, Dataset]:
    """Random split into ceil(n/2) training and floor(n/2) test rows.

    Stratified per class; a class with fewer than 2 rows forces a plain
    unstratified draw (with a warning).  Deterministic in ``seed``.
    """
    n = data.n
    if n < 4:
        raise InputError(f"need n >= 4 to split, got {n}")
    rng = np.random.default_rng(seed)
    target_train = math.ceil(n / 2)
    classes, counts = np.unique(data.labels, return_counts=True)

    if np.any(counts < 2):
        warnings.warn("a class has a single sample; falling back to unstratified split")
        perm = rng.permutation(n)
        train_idx = np.sort(perm[:target_train])
        test_idx = np.sort(perm[target_train:])
        return data.subset(train_idx), data.subset(test_idx)

    picks = []
    takes = []
    for cls in classes:
        idx = np.flatnonzero(data.labels == cls)
        picks.append(rng.permutation(idx))
        takes.append(len(idx) // 2)
    # Odd class counts leave a deficit; hand the spare rows out in class order.
    deficit = target_train - sum(takes)
    for i, cls_pick in enumerate(picks):
        if deficit == 0:
            break
        if len(cls_pick) % 2 == 1:
            takes[i] += 1
            deficit -= 1

    train_parts = [p[:t] for p, t in zip(picks, takes)]
    test_parts = [p[t:] for p, t in zip(picks, takes)]
    train_idx = np.sort(np.concatenate(train_parts))
    test_idx = np.sort(np.concatenate(test_parts))
    return data.subset(train_idx), data.subset(test_idx)


def _stratified_folds(labels: np.ndarray, k: int, rng: np.random.Generator) -> list:
    """k validation-index sets, each class dealt round-robin after a shuffle."""
    n = len(labels)
    if k > n:
        raise InputError(f"cannot make {k} folds from {n} rows")
    folds: list[list[int]] = [[] for _ in range(k)]
    cursor = 0
    for cls in np.unique(labels):
        idx = rng.permutation(np.flatnonzero(labels == cls))
        for j, row in enumerate(idx):
            folds[(cursor + j) % k].append(int(row))
        cursor += len(idx)
    return [np.sort(np.asarray(f, dtype=np.int64)) for f in folds]


@dataclass
class ExperimentSpec:
    """One benchmark manifest: dataset, variants, grid, protocol knobs."""

    path: str
    csv: CsvOptions = field(default_factory=CsvOptions)
    name: str | None = None
    variants: tuple[str, ...] = VARIANTS
    grid: tuple[float, ...] = DEFAULT_GRID
    repeats: int = 10
    cv_folds: int = 5
    base_seed: int = 0
    tau: float = 1e-6
    solver: SolverConfig = field(default_factory=SolverConfig)

    def __post_init__(self) -> None:
        check_type("name", self.name, (str, type(None)), "a string or None", ConfigError)
        if not (isinstance(self.variants, (list, tuple))
                and all(isinstance(v, str) for v in self.variants)):
            raise ConfigError(
                f"variants must be a list or tuple of strings, got {self.variants!r}"
            )
        self.variants = tuple(v.lower() for v in self.variants)
        unknown = [v for v in self.variants if v not in VARIANTS]
        if unknown:
            raise ConfigError(f"unknown variants {unknown}; expected {VARIANTS}")
        if not self.variants:
            raise ConfigError("at least one variant is required")
        if not (isinstance(self.grid, (list, tuple)) and self.grid):
            raise ConfigError(f"grid must be a non-empty list or tuple, got {self.grid!r}")
        for value in self.grid:
            check_number("grid value", value, error=ConfigError)
        self.grid = tuple(float(v) for v in self.grid)
        check_integer("repeats", self.repeats, 1, ConfigError)
        check_integer("cv_folds", self.cv_folds, 2, ConfigError)
        check_integer("base_seed", self.base_seed, 0, ConfigError)
        check_number("tau", self.tau, error=ConfigError)

    @property
    def dataset_name(self) -> str:
        return self.name if self.name else Path(self.path).stem


def _candidate_points(spec: ExperimentSpec, variant: str) -> list[dict]:
    lam1_values = spec.grid if variant in L1_VARIANTS else (0.0,)
    sigma_values = spec.grid if variant in RBF_VARIANTS else (None,)
    return [
        {"lambda": lam, "lambda1": lam1, "sigma": sigma}
        for lam in spec.grid
        for lam1 in lam1_values
        for sigma in sigma_values
    ]


def _model_spec(spec: ExperimentSpec, variant: str, params: dict) -> ModelSpec:
    sigma = params.get("sigma")
    kernel = KernelSpec.rbf(sigma) if sigma is not None else KernelSpec.tl1()
    return ModelSpec(
        variant=variant,
        lam=params["lambda"],
        lam1=params["lambda1"],
        kernel=kernel,
        tau=spec.tau,
        solver=spec.solver,
    )


def accuracy(model, data: Dataset) -> float:
    """Fraction of test rows labeled correctly."""
    return float(np.mean(predict_label(model, data.features) == data.labels))


def cv_select(spec: ExperimentSpec, variant: str, train: Dataset, seed: int) -> dict:
    """Exhaustive grid search by mean fold accuracy on the training half.

    Ties break toward larger lambda1, then larger lambda, then larger
    sigma (sparser and smoother models win).  A grid point whose fold fit
    raises NumericalError or InputError scores 0 with a warning; any other
    exception propagates.  The test half never enters here.
    """
    folds = _stratified_folds(train.labels, spec.cv_folds, np.random.default_rng(seed))
    all_rows = np.arange(train.n)
    scored = []
    for params in _candidate_points(spec, variant):
        fold_accs = []
        try:
            for val_idx in folds:
                if val_idx.size == 0:
                    continue
                tr_idx = np.setdiff1d(all_rows, val_idx)
                model = fit(_model_spec(spec, variant, params), train.subset(tr_idx))
                fold_accs.append(accuracy(model, train.subset(val_idx)))
            score = float(np.mean(fold_accs))
        except (NumericalError, InputError) as exc:
            warnings.warn(f"grid point {params} failed during CV: {exc}")
            score = 0.0
        scored.append((score, params))

    def tie_key(item):
        score, params = item
        sigma = params["sigma"] if params["sigma"] is not None else 0.0
        return (score, params["lambda1"], params["lambda"], sigma)

    return max(scored, key=tie_key)[1]


@dataclass
class ReportRow:
    """Aggregated result of one (dataset, variant) cell."""

    dataset: str
    n: int
    d: int
    eig_min: float
    eig_max: float
    variant: str
    mean_accuracy: float
    accuracy_std: float
    mean_selected: float
    chosen: list[dict]
    accuracies: list[float]
    selected: list[int]
    failed_repeats: list[int]


def spectrum_range(kernel: KernelSpec, data: Dataset) -> tuple[float, float]:
    """(eig_min, eig_max) of the Gram of ``data`` under a resolved kernel."""
    eigvals, _ = sym_eigendecompose(gram_matrix(kernel, data))
    return float(eigvals[-1]), float(eigvals[0])


def run_experiment(spec: ExperimentSpec) -> list[ReportRow]:
    """Execute the full protocol; one ReportRow per requested variant.

    Repeats that raise NumericalError or InputError are excluded from
    aggregation and listed in ``failed_repeats``; any other exception
    propagates.  A scored model that stopped at max_iterations is kept and
    reported in a warning, with its final stationarity residual.  Identical
    specs reproduce reports exactly.
    """
    data = ingest_csv(spec.path, spec.csv)
    eig_min, eig_max = spectrum_range(KernelSpec.tl1().resolve(data.d), data)

    rows = []
    for variant in spec.variants:
        accs: list[float] = []
        sels: list[int] = []
        chosen: list[dict] = []
        failed: list[int] = []
        for r in range(spec.repeats):
            run_seed = spec.base_seed + r
            try:
                train, test = half_split(data, run_seed)
                params = cv_select(spec, variant, train, run_seed)
                model = fit(_model_spec(spec, variant, params), train)
                if model.trace.status == MAX_ITERATIONS:
                    warnings.warn(
                        f"repeat {r} of {variant}: the scored model stopped at "
                        "max_iterations (final stationarity residual "
                        f"{model.trace.stationarity_residuals[-1]:.3g})"
                    )
                accs.append(accuracy(model, test))
                sels.append(model.support.size)
                chosen.append(params)
            except (NumericalError, InputError) as exc:
                warnings.warn(f"repeat {r} of {variant} failed: {exc}")
                failed.append(r)
        rows.append(
            ReportRow(
                dataset=spec.dataset_name,
                n=data.n,
                d=data.d,
                eig_min=eig_min,
                eig_max=eig_max,
                variant=variant,
                mean_accuracy=float(np.mean(accs)) if accs else 0.0,
                accuracy_std=float(np.std(accs, ddof=1)) if len(accs) >= 2 else 0.0,
                mean_selected=float(np.mean(sels)) if sels else 0.0,
                chosen=chosen,
                accuracies=accs,
                selected=sels,
                failed_repeats=failed,
            )
        )
    return rows


def format_stats_table(rows: list[ReportRow]) -> str:
    """Aligned text table of per-dataset spectrum statistics."""
    seen: dict[str, ReportRow] = {}
    for row in rows:
        seen.setdefault(row.dataset, row)
    lines = [f"{'dataset':<16} {'d':>5} {'n':>6} {'eig_min':>12} {'eig_max':>12}"]
    for name, row in seen.items():
        lines.append(
            f"{name:<16} {row.d:>5} {row.n:>6} "
            f"{row.eig_min:>12.2f} {row.eig_max:>12.2f}"
        )
    return "\n".join(lines)


def format_results_table(rows: list[ReportRow]) -> str:
    """Accuracy table, datasets as rows and variants as columns.

    Cells read "mean +/- std (active coefficients)"; the parenthesized
    count is the mean number of active expansion coefficients.
    """
    variants = []
    for row in rows:
        if row.variant not in variants:
            variants.append(row.variant)
    datasets = []
    for row in rows:
        if row.dataset not in datasets:
            datasets.append(row.dataset)
    cells = {(r.dataset, r.variant): r for r in rows}

    colw = 26
    header = f"{'dataset':<16}" + "".join(f"{v:>{colw}}" for v in variants)
    lines = [header]
    notes = []
    for name in datasets:
        parts = [f"{name:<16}"]
        for variant in variants:
            row = cells.get((name, variant))
            if row is None:
                parts.append(f"{'-':>{colw}}")
                continue
            text = (
                f"{row.mean_accuracy:.3f} +/- {row.accuracy_std:.3f} "
                f"({int(round(row.mean_selected))})"
            )
            if row.failed_repeats:
                text += "!"
                notes.append(
                    f"note: {name}/{variant} had failed repeats {row.failed_repeats}"
                )
            parts.append(f"{text:>{colw}}")
        lines.append("".join(parts))
    lines.extend(notes)
    return "\n".join(lines)


def rows_to_records(rows: list[ReportRow]) -> list[dict]:
    """JSON-ready report records."""
    return [asdict(row) for row in rows]
