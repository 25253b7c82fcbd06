"""The three benchmark workloads: inputs, set-up, one unit of work, checks.

Solver work depends strongly on the data: on the same distribution one TL1
problem converges in 107 outer steps, another in 497, a third diverges.
So the training problems are pinned (each has its own fixed data seed and a
reference recorded in ``reference.json``), and the workload seed decides
what does not change the solver's work: the order in which the fit-tl1
problems run, the rows rbf-serve serves, and the order of the variants in
the bench-protocol config.
"""

from __future__ import annotations

import contextlib
import io
import json
import statistics
import time
import warnings
from pathlib import Path

import numpy as np

from iklogit import cli, experiment
from iklogit import model as ikmodel
from iklogit.kernels import Dataset, KernelSpec, gram_matrix
from iklogit.model import ModelSpec
from iklogit.solver import SolverConfig
from iklogit.spectral import sym_eigendecompose

from tracing import LAYERS, classify, patched

REFERENCE_PATH = Path(__file__).with_name("reference.json")

D = 5

# Tolerances for changes that only reorder floating-point sums.  The final
# objective uses the acceptance suite's terminal bound of 10 * epsilon_outer
# (criterion 5), relative to 1 + |f| as in criterion 7.  Support size and
# held-out accuracy allow a few coefficients or rows near zero to flip.
F_RTOL = 10 * SolverConfig().epsilon_outer
SUPPORT_ATOL, SUPPORT_RTOL = 2, 0.05
ACC_TOL = 0.01
BENCH_ACC_TOL = 0.02

# ROADMAP baseline: n=500, data seed 0, lambda=0.1, lambda1=0.01.
ROADMAP_BASELINE = {"outer": 366, "inner": 9809, "neg_eigs": 114, "support": 64}


def synthetic(rng: np.random.Generator, n: int) -> Dataset:
    """X ~ N(0, I) in d=5; label x0 + 0.5 * noise > 0."""
    x = rng.standard_normal((n, D))
    y = (x[:, 0] + 0.5 * rng.standard_normal(n) > 0).astype(np.int64)
    return Dataset(x, y)


def problem(seed: int, n: int, n_test: int) -> tuple[Dataset, Dataset]:
    """Training rows first, then held-out rows, from one seeded stream."""
    rng = np.random.default_rng(seed)
    return synthetic(rng, n), synthetic(rng, n_test)


def warm_up() -> None:
    """Pay first-call costs (BLAS/LAPACK start-up, every layer once) before timing."""
    rng = np.random.default_rng(7)
    for n in (64, 500):
        a = rng.standard_normal((n, n))
        np.linalg.eigh(a + a.T)
    train, test = problem(7, 60, 20)
    model = ikmodel.fit(ModelSpec("l1-riklr", lam=1.0, lam1=0.01), train)
    ikmodel.predict_proba(model, test.features)


def check_fit(ref: dict, got: dict) -> list[str]:
    """Differences between one fit and its reference beyond the tolerances."""
    bad = []
    if got["status"] != ref["status"]:
        bad.append(f"status {got['status']} != {ref['status']}")
        return bad
    if abs(got["f"] - ref["f"]) > F_RTOL * (1.0 + abs(ref["f"])):
        bad.append(f"final f {got['f']!r} != {ref['f']!r}")
    if abs(got["support"] - ref["support"]) > max(SUPPORT_ATOL, SUPPORT_RTOL * ref["support"]):
        bad.append(f"support {got['support']} != {ref['support']}")
    if abs(got["heldout_acc"] - ref["heldout_acc"]) > ACC_TOL:
        bad.append(f"held-out accuracy {got['heldout_acc']} != {ref['heldout_acc']}")
    return bad


def fit_summary(model, labels: np.ndarray, truth: np.ndarray) -> dict:
    trace = model.trace
    return {
        "status": trace.status,
        "f": trace.f_values[-1],
        "support": int(model.support.size),
        "heldout_acc": float(np.mean(labels == truth)),
        "outer": trace.num_iterations,
        "inner": int(sum(trace.inner_iterations)),
    }


class Workload:
    """Set-up happens in ``__init__``, after :func:`warm_up` has run once in
    the process; ``unit`` runs one unit of work."""

    name: str
    expected_layers: tuple[str, ...]

    def __init__(self, seed: int, workdir: Path, reference: dict | None) -> None:
        self.ref = reference
        self.notes: list[str] = []

    @staticmethod
    def new_record() -> dict:
        return {"fit_s": [], "predict": [], "acc": [], "attempted": 0,
                "failures": [], "observed": {}}

    def checked(self, rec: dict, key: str, got: dict) -> None:
        rec["observed"][key] = got
        if self.ref is not None:
            bad = check_fit(self.ref[key], got)
            if bad:
                rec["failures"].append(f"{key}: " + "; ".join(bad))

    def validate_reference(self, rec: dict) -> list[str]:
        """Properties the workload needs; checked when the reference is recorded."""
        return []


class FitTl1(Workload):
    """Solver-heavy: seeded TL1 l1-riklr fits, each scored on held-out rows."""

    name = "fit-tl1"
    expected_layers = ("kernels", "spectral", "objective", "solver", "model")
    SPEC = dict(variant="l1-riklr", lam=0.1, lam1=0.01)
    # name: (data seed, n); the n=300 problems converge in 2-3 s each.
    PROBLEMS = {"baseline": (0, 500), "n300-s3": (3, 300), "n300-s4": (4, 300),
                "n300-s5": (5, 300)}
    N_TEST = 3000

    def __init__(self, seed, workdir, reference):
        super().__init__(seed, workdir, reference)
        self.data = {k: problem(s, n, self.N_TEST) for k, (s, n) in self.PROBLEMS.items()}
        # The baseline always runs first; the seed orders the others.
        rest = [k for k in self.PROBLEMS if k != "baseline"]
        order = np.random.default_rng(seed).permutation(len(rest))
        self.order = ["baseline"] + [rest[i] for i in order]
        tl1 = KernelSpec.tl1().resolve(D)
        eigvals, _ = sym_eigendecompose(gram_matrix(tl1, self.data["baseline"][0]))
        self.baseline_neg_eigs = int(np.count_nonzero(eigvals < 0.0))

    def unit(self) -> dict:
        rec = self.new_record()
        spec = ModelSpec(**self.SPEC)
        for key in self.order:
            train, test = self.data[key]
            rec["attempted"] += 1
            t0 = time.perf_counter()
            try:
                model = ikmodel.fit(spec, train)
            except Exception as exc:
                rec["failures"].append(f"{key}: fit raised {classify(exc)}: {exc}")
                continue
            rec["fit_s"].append(time.perf_counter() - t0)
            t0 = time.perf_counter()
            labels = ikmodel.predict_label(model, test.features)
            rec["predict"].append((len(labels), time.perf_counter() - t0))
            got = fit_summary(model, labels, test.labels)
            rec["acc"].append(got["heldout_acc"])
            self.checked(rec, key, got)
            if key == "baseline":
                seen = {k: got[k] for k in ("outer", "inner", "support")}
                seen["neg_eigs"] = self.baseline_neg_eigs
                self.notes.append(
                    "roadmap baseline "
                    + ("reproduced" if seen == ROADMAP_BASELINE else "differs")
                    + f": {json.dumps(seen)} (ROADMAP {json.dumps(ROADMAP_BASELINE)})"
                )
        return rec

    def validate_reference(self, rec):
        got = dict(rec["observed"]["baseline"], neg_eigs=self.baseline_neg_eigs)
        return [
            f"baseline {k} {got[k]} != ROADMAP {v}"
            for k, v in ROADMAP_BASELINE.items() if got[k] != v
        ]


class RbfServe(Workload):
    """Train once, then serve: Gram, eigh, split and kernel rows dominate."""

    name = "rbf-serve"
    expected_layers = ("kernels", "spectral", "objective", "solver", "model")
    SPEC = dict(variant="l1-rklr", lam=1.0, lam1=0.01)
    TRAIN_SEED, N_TRAIN, N_TEST = 0, 2000, 1000
    N_SERVE, BATCH = 20_000, 2000
    SERVE_STREAM = 0x5E27E

    def __init__(self, seed, workdir, reference):
        super().__init__(seed, workdir, reference)
        self.train, self.test = problem(self.TRAIN_SEED, self.N_TRAIN, self.N_TEST)
        self.serve = synthetic(np.random.default_rng([self.SERVE_STREAM, seed]), self.N_SERVE)
        self.batches = [
            self.serve.features[i:i + self.BATCH] for i in range(0, self.N_SERVE, self.BATCH)
        ]
        self.model_path = str(workdir / "model.json")
        self.cycle = 0

    def unit(self) -> dict:
        rec = self.new_record()
        rec["attempted"] += 1
        t0 = time.perf_counter()
        try:
            model = ikmodel.fit(ModelSpec(**self.SPEC), self.train)
        except Exception as exc:
            rec["failures"].append(f"fit raised {classify(exc)}: {exc}")
            return rec
        rec["fit_s"].append(time.perf_counter() - t0)
        held_out = ikmodel.predict_label(model, self.test.features)
        self.checked(rec, "train", fit_summary(model, held_out, self.test.labels))

        rec["attempted"] += 1
        ikmodel.save_model(model, self.model_path)
        loaded = ikmodel.load_model(self.model_path)
        # Loaded and in-memory models must predict bitwise alike: probabilities
        # on every row, labels on one batch per cycle (rotating).  The check
        # runs batch by batch, so it never holds more than the served batch.
        label_batch = self.cycle % len(self.batches)
        self.cycle += 1
        labels = []
        for i, batch in enumerate(self.batches):
            t0 = time.perf_counter()
            probs = ikmodel.predict_proba(loaded, batch)
            rec["predict"].append((len(batch), time.perf_counter() - t0))
            t0 = time.perf_counter()
            labels.append(ikmodel.predict_label(loaded, batch))
            rec["predict"].append((len(batch), time.perf_counter() - t0))
            rec["attempted"] += 2
            same = np.array_equal(probs, ikmodel.predict_proba(model, batch))
            if i == label_batch:
                same &= np.array_equal(labels[-1], ikmodel.predict_label(model, batch))
            if not same:
                rec["failures"].append(
                    f"batch {i}: loaded model predicts differently from the in-memory model")
        labels = np.concatenate(labels)
        rec["acc"].append(float(np.mean(labels == self.serve.labels)))
        return rec


class BenchProtocol(Workload):
    """``iklogit bench`` in-process on a CSV written during set-up."""

    name = "bench-protocol"
    expected_layers = LAYERS
    DATA_SEED, N = 0, 240
    VARIANTS = ("l1-riklr", "klr")
    GRID = (1e-4, 0.01, 1.0)

    def __init__(self, seed, workdir, reference):
        super().__init__(seed, workdir, reference)
        data = synthetic(np.random.default_rng(self.DATA_SEED), self.N)
        csv_path = workdir / "bench.csv"
        with open(csv_path, "w", encoding="utf-8") as fh:
            for row, label in zip(data.features, data.labels):
                fh.write(",".join(repr(float(v)) for v in row) + f",{int(label)}\n")
        order = np.random.default_rng(seed).permutation(len(self.VARIANTS))
        config = {
            "data": {"path": str(csv_path)},
            "name": "synthetic",
            "variants": [self.VARIANTS[i] for i in order],
            "grid": list(self.GRID),
            "cv_folds": 3,
            "repeats": 1,
            "base_seed": 0,
        }
        self.config_path = str(workdir / "bench.json")
        with open(self.config_path, "w", encoding="utf-8") as fh:
            json.dump(config, fh)
        self.out_dir = workdir / "report"

    def unit(self) -> dict:
        rec = self.new_record()
        outcomes = []
        run_fit, run_predict = experiment.fit, experiment.predict_label

        # Fits and predictions happen inside the protocol, so they are timed
        # at the names the protocol calls them through.
        def timed_fit(spec, data):
            t0 = time.perf_counter()
            try:
                model = run_fit(spec, data)
            except Exception as exc:
                outcomes.append(classify(exc))
                raise
            else:
                outcomes.append(model.trace.status)
                return model
            finally:
                rec["fit_s"].append(time.perf_counter() - t0)

        def timed_predict(model, features):
            t0 = time.perf_counter()
            labels = run_predict(model, features)
            rec["predict"].append((len(labels), time.perf_counter() - t0))
            return labels

        hooks = [(experiment, "fit", timed_fit), (experiment, "predict_label", timed_predict)]
        with patched(hooks), warnings.catch_warnings(), \
                contextlib.redirect_stdout(io.StringIO()):
            warnings.simplefilter("ignore")
            rc = cli.main(["bench", "--config", self.config_path, "--output", str(self.out_dir)])

        rec["attempted"] += 1 + len(outcomes)
        rec["failures"] += [f"fold fit raised {o}" for o in outcomes if o.startswith("error")]
        rec["outcomes"] = {o: outcomes.count(o) for o in sorted(set(outcomes))}
        if rc != 0:
            rec["failures"].append(f"bench exited {rc}")
            return rec
        report = json.loads((self.out_dir / "report.json").read_text(encoding="utf-8"))
        rec["report_bytes"] = sum(p.stat().st_size for p in self.out_dir.iterdir())
        rec["acc"].append(statistics.fmean(r["mean_accuracy"] for r in report))
        for row in report:
            got = {k: row[k] for k in ("accuracies", "mean_accuracy", "failed_repeats")}
            rec["observed"][row["variant"]] = got
            ref = self.ref[row["variant"]] if self.ref is not None else got
            close = len(got["accuracies"]) == len(ref["accuracies"]) and all(
                abs(a - b) <= BENCH_ACC_TOL
                for a, b in zip(got["accuracies"] + [got["mean_accuracy"]],
                                ref["accuracies"] + [ref["mean_accuracy"]])
            )
            if not close or got["failed_repeats"] != ref["failed_repeats"]:
                rec["failures"].append(f"bench report for {row['variant']}: {got} != {ref}")
        if self.ref is not None and set(rec["observed"]) != set(self.ref):
            rec["failures"].append(f"bench report variants {sorted(rec['observed'])}")
        return rec

    def validate_reference(self, rec):
        missing = {"converged", "max_iterations", "diverged"} - set(rec["outcomes"])
        return [f"the grid has no {o} fit" for o in sorted(missing)]


WORKLOADS = {w.name: w for w in (FitTl1, RbfServe, BenchProtocol)}
