"""Shared fixtures and builders for the test suite."""

from __future__ import annotations

import os
import re
from pathlib import Path

import numpy as np
import pytest

from iklogit import (
    Dataset,
    DcObjective,
    KernelSpec,
    SolverConfig,
    decompose_gram,
    gram_matrix,
)
from iklogit.objective import _check_alpha, f_value, grad_h, loss_grad, loss_value
from iklogit.solver import inner_solve, smooth_lipschitz_bound, stationarity_residual
from iklogit.spectral import sym_eigendecompose

# User-supplied benchmark files live here (see scripts/fetch_uci.py).
DATA_DIR = Path(os.environ.get("IKLOGIT_DATA_DIR", Path(__file__).parent.parent / "data"))

UCI_FILES = {
    "haberman": "haberman.csv",
    "fertility": "fertility.csv",
    "spect": "spect.csv",
    "transfusion": "transfusion.csv",
}


def dataset_path(name: str) -> Path | None:
    path = DATA_DIR / UCI_FILES[name]
    return path if path.exists() else None


def require_dataset(name: str) -> Path:
    path = dataset_path(name)
    if path is None:
        pytest.skip(
            f"{name} data not present; place {UCI_FILES[name]} under {DATA_DIR} "
            "(see scripts/fetch_uci.py)"
        )
    return path


def random_symmetric(rng: np.random.Generator, n: int, scale: float = 1.0) -> np.ndarray:
    raw = rng.normal(scale=scale, size=(n, n))
    return 0.5 * (raw + raw.T)


def random_dataset(rng: np.random.Generator, n: int, d: int) -> Dataset:
    features = rng.normal(size=(n, d))
    labels = rng.integers(0, 2, size=n)
    # Guarantee both classes.
    labels[0], labels[1] = 0, 1
    return Dataset(features, labels)


def benchmark_data(seed: int, n: int, d: int = 5) -> Dataset:
    """The benchmark's synthetic problem: X ~ N(0, I), label x0 + 0.5 noise > 0."""
    data_rng = np.random.default_rng(seed)
    x = data_rng.standard_normal((n, d))
    y = (x[:, 0] + 0.5 * data_rng.standard_normal(n) > 0).astype(np.int64)
    return Dataset(x, y)


def separated_dataset(
    rng: np.random.Generator, n: int = 20, d: int = 2, gap: float = 4.0
) -> Dataset:
    """Two tight clusters far apart: every sane model classifies them."""
    half = n // 2
    features = np.vstack(
        [
            rng.normal(-gap / 2, 0.1, size=(half, d)),
            rng.normal(gap / 2, 0.1, size=(n - half, d)),
        ]
    )
    labels = np.concatenate([np.zeros(half, dtype=int), np.ones(n - half, dtype=int)])
    return Dataset(features, labels)


def tl1_objective(
    rng: np.random.Generator,
    n: int = 12,
    d: int = 3,
    lam: float = 0.5,
    lam1: float = 0.05,
    tau: float = 1e-6,
) -> DcObjective:
    """Objective over a TL1 Gram of random data (typically indefinite)."""
    data = random_dataset(rng, n, d)
    gram = gram_matrix(KernelSpec.tl1().resolve(d), data)
    decomp = decompose_gram(gram, tau)
    return DcObjective.from_labels(decomp, data.labels, lam, lam1)


def symmetric_objective(
    rng: np.random.Generator,
    n: int = 10,
    lam: float = 0.7,
    lam1: float = 0.1,
    tau: float = 1e-6,
    scale: float = 1.0,
) -> DcObjective:
    """Objective over an arbitrary random symmetric 'Gram' matrix."""
    gram = random_symmetric(rng, n, scale)
    decomp = decompose_gram(gram, tau)
    y = rng.choice([-1.0, 1.0], size=n)
    return DcObjective(decomp=decomp, y_signed=y, lam=lam, lam1=lam1)


# Dense forms of a GramDecomposition, for checks only: the package applies
# K+ and K- as products and keeps neither eigenvalues nor eigenvectors, so
# these redo the eigendecomposition of the stored K.
def _dense(decomp, sign: float) -> np.ndarray:
    """V diag(max(sign * mu, 0) + tau) V^T: K+ for sign 1, K- for sign -1."""
    vals, vecs = sym_eigendecompose(decomp.gram)
    mat = (vecs * (np.maximum(sign * vals, 0.0) + decomp.tau)) @ vecs.T
    # Re-symmetrize to kill rounding skew before downstream eigen checks.
    return 0.5 * (mat + mat.T)


def kplus(decomp) -> np.ndarray:
    return _dense(decomp, 1.0)


def kminus(decomp) -> np.ndarray:
    return _dense(decomp, -1.0)


def bfactor(decomp) -> np.ndarray:
    """Matrix B with B^T B = K+."""
    vals, vecs = sym_eigendecompose(decomp.gram)
    shift = np.maximum(vals, 0.0) + decomp.tau
    return np.sqrt(shift)[:, None] * vecs.T


# Evaluators of the objective's pieces, for checks only.  The fit runs
# loss_value and loss_grad, and these are built on the same two.
def logistic_loss(obj: DcObjective, alpha: np.ndarray) -> float:
    """Mean logistic loss (1/n) sum ln(1 + exp(-y_i (K alpha)_i))."""
    return loss_value(obj, obj.decomp.gram @ _check_alpha(obj, alpha))


def g_value(obj: DcObjective, alpha: np.ndarray) -> float:
    """Convex part: loss + (lam/2) a^T K+ a + lam1 ||a||_1."""
    a = _check_alpha(obj, alpha)
    scores = obj.decomp.gram @ a
    kplus_a = scores + obj.decomp.kminus_dot(a)
    smooth = loss_value(obj, scores) + 0.5 * obj.lam * float(a @ kplus_a)
    return smooth + obj.lam1 * float(np.abs(a).sum())


def h_value(obj: DcObjective, alpha: np.ndarray) -> float:
    """Concave-side part: (lam/2) a^T K- a."""
    a = _check_alpha(obj, alpha)
    return 0.5 * obj.lam * float(a @ obj.decomp.kminus_dot(a))


def smooth_grad_g(obj: DcObjective, alpha: np.ndarray) -> np.ndarray:
    """Gradient of the smooth part of g (everything except the L1 term).

    Equals -(1/n) K (y * s) + lam K+ a with s_i = sigmoid(-y_i (K a)_i).
    """
    a = _check_alpha(obj, alpha)
    scores = obj.decomp.gram @ a
    return loss_grad(obj, scores) + obj.lam * (scores + obj.decomp.kminus_dot(a))


def f_at(obj: DcObjective, alpha: np.ndarray) -> float:
    """f_value at alpha with its K alpha."""
    return f_value(obj, alpha, obj.decomp.gram @ np.asarray(alpha, dtype=np.float64))


def grad_h_at(obj: DcObjective, alpha: np.ndarray) -> np.ndarray:
    """grad_h at alpha with its K- alpha."""
    return grad_h(obj, obj.decomp.kminus_dot(_check_alpha(obj, alpha)))


def solve_subproblem(obj: DcObjective, omega, anchor, cfg):
    """inner_solve from ``anchor`` to ``cfg.epsilon_inner``, with the step and
    warm-start products that pla_fit would pass."""
    a = np.asarray(anchor, dtype=np.float64)
    step = 1.0 / smooth_lipschitz_bound(obj, cfg.gamma)
    scores = obj.decomp.gram @ a
    return inner_solve(
        obj, omega, a, cfg, step, cfg.epsilon_inner,
        scores, obj.decomp.kminus_dot(a), loss_grad(obj, scores),
    )


def residual_at(obj: DcObjective, alpha: np.ndarray) -> float:
    """stationarity_residual at alpha, with the step of the default gamma."""
    a = np.asarray(alpha, dtype=np.float64)
    scores = obj.decomp.gram @ a
    step = 1.0 / smooth_lipschitz_bound(obj, SolverConfig().gamma)
    return stationarity_residual(obj, a, step, scores, loss_grad(obj, scores))


def eigenvalues(decomp) -> np.ndarray:
    """Eigenvalues of the stored K, descending, from a fresh eigendecomposition."""
    return sym_eigendecompose(decomp.gram)[0]


def num_nonneg(decomp) -> int:
    """Count of eigenvalues >= 0."""
    return int(np.count_nonzero(eigenvalues(decomp) >= 0.0))


def write_csv(path: Path, features: np.ndarray, labels: np.ndarray) -> Path:
    rows = []
    for x, y in zip(features, labels):
        rows.append(",".join(repr(float(v)) for v in x) + f",{int(y)}")
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    return path


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20250819)


_ACCEPTANCE_TITLES = {
    1: "positive decomposition correctness",
    2: "DC identity f = g - h",
    3: "gradient finite-difference checks",
    4: "inner solver oracle equivalence",
    5: "descent inequality and terminal residual",
    6: "qualitative linear rate",
    7: "PSD-kernel convex reduction",
    8: "benchmark accuracy reproduction",
    9: "TL1 spectrum statistics",
    10: "dense-model coefficient counts",
}


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """One ACCEPTANCE line per criterion at the end of every run."""
    results: dict[int, tuple[str, str]] = {}
    # Later buckets overwrite earlier ones, most severe last.
    for status, label in (
        ("passed", "PASS"),
        ("skipped", "SKIP"),
        ("failed", "FAIL"),
        ("error", "FAIL"),
    ):
        for report in terminalreporter.stats.get(status, []):
            match = re.search(r"test_criterion_(\d+)", getattr(report, "nodeid", ""))
            if not match:
                continue
            number = int(match.group(1))
            detail = ""
            for key, value in getattr(report, "user_properties", []):
                if key == "acceptance_detail":
                    detail = str(value)
            if label == "SKIP" and not detail:
                longrepr = getattr(report, "longrepr", None)
                if isinstance(longrepr, tuple) and len(longrepr) == 3:
                    detail = str(longrepr[2]).removeprefix("Skipped: ")
            results[number] = (label, detail)
    if not results:
        return
    terminalreporter.write_sep("=", "acceptance criteria")
    for number in sorted(results):
        label, detail = results[number]
        line = f"ACCEPTANCE {number}: {label} - {_ACCEPTANCE_TITLES[number]}"
        if detail:
            line += f": {detail}"
        terminalreporter.write_line(line)
