"""Per-layer spans recorded from outside the package.

The package's layers call each other through module-level names (``from
.kernels import gram_matrix`` in ``iklogit.model``, and so on).  The traced
run replaces those names with wrappers that record a span per call: its
name, layer, start, end, the span that was open when it started, how it
ended, and a few facts read off the return value.  Nothing inside the
package changes.  A name that a later refactor stops calling leaves its
layer without spans, which the report marks as unobserved rather than as
zero time.
"""

from __future__ import annotations

import contextlib
import dataclasses
import importlib
import os
import statistics
import time

import numpy as np

LAYERS = ("kernels", "spectral", "objective", "solver", "model", "experiment", "cli")


def _rows(result, args, kwargs):
    return {"rows": int(np.shape(result)[0])}


def _decomposition(result, args, kwargs):
    """Bytes held by the returned decomposition, and its negative eigenvalues."""
    if dataclasses.is_dataclass(result):
        values = [getattr(result, f.name) for f in dataclasses.fields(result)]
    else:
        values = list(vars(result).values())
    info = {"bytes": sum(v.nbytes for v in values if isinstance(v, np.ndarray))}
    eigenvalues = getattr(result, "eigenvalues", None)
    if eigenvalues is not None:
        info["neg_eigs"] = int(np.count_nonzero(np.asarray(eigenvalues) < 0.0))
    return info


def _pla(result, args, kwargs):
    return {"status": result[1].status}


def _inner(result, args, kwargs):
    return {"iterations": int(result.iterations), "capped": not result.converged}


def _fitted(result, args, kwargs):
    return {"status": result.trace.status, "support": int(result.support.size)}


def _saved(result, args, kwargs):
    path = kwargs.get("path", args[1] if len(args) > 1 else None)
    return {"bytes": os.path.getsize(path)}


# (module, attribute, span name, layer, observer).  Two bindings of one
# function share a span name: ``iklogit.experiment.fit`` is the same
# function as ``iklogit.model.fit``, reached through the protocol's import.
WRAPPED = (
    ("iklogit.model", "gram_matrix", "gram", "kernels", None),
    ("iklogit.experiment", "gram_matrix", "gram", "kernels", None),
    ("iklogit.model", "kernel_rows", "rows", "kernels", _rows),
    ("iklogit.spectral", "sym_eigendecompose", "eigh", "spectral", None),
    ("iklogit.experiment", "sym_eigendecompose", "eigh", "spectral", None),
    ("iklogit.spectral", "positive_decompose", "split", "spectral", _decomposition),
    ("iklogit.solver", "f_value", "f_value", "objective", None),
    ("iklogit.solver", "grad_h", "grad_h", "objective", None),
    ("iklogit.model", "pla_fit", "pla", "solver", _pla),
    ("iklogit.solver", "inner_solve", "inner", "solver", _inner),
    ("iklogit.solver", "stationarity_residual", "stationarity", "solver", None),
    ("iklogit.model", "fit", "fit", "model", _fitted),
    ("iklogit.experiment", "fit", "fit", "model", _fitted),
    ("iklogit.model", "predict_proba", "predict", "model", None),
    ("iklogit.model", "predict_label", "predict", "model", None),
    ("iklogit.experiment", "predict_label", "predict", "model", None),
    ("iklogit.model", "save_model", "save", "model", _saved),
    ("iklogit.model", "load_model", "load", "model", None),
    ("iklogit.experiment", "cv_select", "cv_select", "experiment", None),
    ("iklogit.cli", "main", "main", "cli", None),
)


def classify(exc: BaseException) -> str:
    """Outcome of a call that raised: divergence is expected, the rest is an error."""
    from iklogit.errors import NumericalError

    return "diverged" if isinstance(exc, NumericalError) else f"error:{type(exc).__name__}"


@contextlib.contextmanager
def patched(replacements):
    """Set ``(module, attribute, value)`` triples, restoring them on exit."""
    saved = []
    try:
        for module, attr, value in replacements:
            saved.append((module, attr, getattr(module, attr)))
            setattr(module, attr, value)
        yield
    finally:
        for module, attr, value in reversed(saved):
            setattr(module, attr, value)


def span_cost(calls: int = 10_000, repeats: int = 5) -> float:
    """Seconds that recording one span adds to a call.

    A no-op is called through a fresh tracer's wrapper and directly, best of
    ``repeats`` each.  Observers, which run on a few names only, are left out.
    """

    def noop():
        return None

    def best(make):
        times = []
        for _ in range(repeats):
            fn = make()
            t0 = time.perf_counter()
            for _ in range(calls):
                fn()
            times.append(time.perf_counter() - t0)
        return min(times)

    traced = best(lambda: Tracer()._wrap(noop, "noop", "noop", None))
    return (traced - best(lambda: noop)) / calls


class Tracer:
    """In-memory span recorder for the names in :data:`WRAPPED`."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.missing: list[str] = []
        self._open: list[int] = []

    def _wrap(self, fn, name, layer, observe):
        def wrapper(*args, **kwargs):
            span = {
                "name": name,
                "layer": layer,
                "parent": self._open[-1] if self._open else None,
                "start": time.perf_counter(),
                "outcome": "ok",
            }
            self._open.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                span["outcome"] = classify(exc)
                raise
            finally:
                span["end"] = time.perf_counter()
                self._open.pop()
            if observe is not None:
                span.update(observe(result, args, kwargs))
            return result

        return wrapper

    def installed(self):
        """Context manager that wraps every name in :data:`WRAPPED` that exists."""
        replacements = []
        for module_name, attr, name, layer, observe in WRAPPED:
            module = importlib.import_module(module_name)
            if not hasattr(module, attr):
                self.missing.append(f"{module_name}.{attr}")
                continue
            replacements.append(
                (module, attr, self._wrap(getattr(module, attr), name, layer, observe))
            )
        return patched(replacements)

    def layer_metrics(self, units: int) -> dict:
        """Per-layer metrics; times and counts are per workload unit."""
        spans = self.spans
        for span in spans:
            span["dur"] = span["end"] - span["start"]
            span["self"] = span["dur"]
        for span in spans:
            if span["parent"] is not None:
                spans[span["parent"]]["self"] -= span["dur"]

        def named(name, outcome=None):
            return [
                s for s in spans
                if s["name"] == name and (outcome is None or s["outcome"] == outcome)
            ]

        def per_unit(value):
            return value / units

        def total(items, key="dur"):
            return sum(s.get(key, 0) for s in items)

        def within(span, ancestor):
            parent = span["parent"]
            while parent is not None:
                if spans[parent]["name"] == ancestor:
                    return True
                parent = spans[parent]["parent"]
            return False

        rows, inner, splits = named("rows"), named("inner"), named("split")
        fits = named("fit")
        fold_fits = [s for s in fits if within(s, "cv_select")]
        wasted = [
            s for s in fold_fits
            if s["outcome"] == "diverged" or s.get("status") == "max_iterations"
        ]
        pla = named("pla")
        inner_iters = total(inner, "iterations")
        supports = [s["support"] for s in fits if "support" in s]

        m = {
            "kernels.gram_s": per_unit(total(named("gram"))),
            "kernels.gram_calls": per_unit(len(named("gram"))),
            "kernels.rows_s": per_unit(total(rows)),
            "kernels.rows_per_s": total(rows, "rows") / total(rows) if rows else 0.0,
            "spectral.eigh_s": per_unit(total(named("eigh"))),
            "spectral.eigh_calls": per_unit(len(named("eigh"))),
            "spectral.split_s": per_unit(total(splits)),
            "spectral.decomp_bytes": max((s["bytes"] for s in splits), default=0),
            "spectral.neg_eigs": max((s.get("neg_eigs", 0) for s in splits), default=0),
            "objective.f_value_s": per_unit(total(named("f_value"))),
            "objective.grad_h_s": per_unit(total(named("grad_h"))),
            "solver.pla_s": per_unit(total(pla)),
            "solver.outer_iters": per_unit(len(inner)),
            "solver.inner_iters": per_unit(inner_iters),
            "solver.inner_s": per_unit(total(inner)),
            "solver.inner_s_per_iter": total(inner) / inner_iters if inner_iters else 0.0,
            "solver.stationarity_s": per_unit(total(named("stationarity"))),
            "solver.inner_capped": per_unit(sum(1 for s in inner if s.get("capped"))),
            "solver.status.converged": per_unit(
                sum(1 for s in pla if s.get("status") == "converged")
            ),
            "solver.status.max_iterations": per_unit(
                sum(1 for s in pla if s.get("status") == "max_iterations")
            ),
            "solver.status.diverged": per_unit(len(named("pla", "diverged"))),
            "solver.diverged_s": per_unit(total(named("pla", "diverged"))),
            "model.fit_s": per_unit(total(fits)),
            "model.predict_s": per_unit(total(named("predict"))),
            "model.save_s": per_unit(total(named("save"))),
            "model.load_s": per_unit(total(named("load"))),
            "model.file_bytes": max((s["bytes"] for s in named("save") if "bytes" in s), default=0),
            "model.support": statistics.median(supports) if supports else 0,
            "experiment.cv_select_s": per_unit(total(named("cv_select"))),
            "experiment.fold_fits": per_unit(len(fold_fits)),
            "experiment.useful_fit_ratio": (
                sum(1 for s in fold_fits if s.get("status") == "converged") / len(fold_fits)
                if fold_fits else 0.0
            ),
            "experiment.wasted_s": per_unit(total(wasted)),
            "cli.bench_s": per_unit(total(named("main"))),
        }
        for layer in LAYERS:
            in_layer = [s for s in spans if s["layer"] == layer]
            m[f"{layer}.spans"] = per_unit(len(in_layer))
            m[f"{layer}.self_s"] = per_unit(total(in_layer, "self"))
        return m

    def unobserved(self, expected: tuple[str, ...]) -> list[str]:
        """Expected layers that recorded no span at all."""
        seen = {s["layer"] for s in self.spans}
        return [layer for layer in expected if layer not in seen]
