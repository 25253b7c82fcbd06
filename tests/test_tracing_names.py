"""The benchmark tracer's wrapped names exist and a fit calls them.

``perfbench/tracing.py`` wraps module attributes of the package (see its
``WRAPPED``).  A refactor that renames one, or stops calling through it,
leaves its spans empty; these checks catch that without running the
benchmark.
"""

import importlib
import importlib.util
from pathlib import Path

import iklogit.model
from iklogit import ModelSpec

from conftest import benchmark_data

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wrapped_name_resolves():
    missing = [
        f"{module}.{attr}"
        for module, attr, *_ in load_tracing().WRAPPED
        if not callable(getattr(importlib.import_module(module), attr, None))
    ]
    assert missing == []


def test_a_fit_calls_the_wrapped_names():
    tracer = load_tracing().Tracer()
    with tracer.installed():
        # Through the module attribute, the binding the tracer wraps.
        spec = ModelSpec("l1-riklr", lam=0.1, lam1=0.01)
        model = iklogit.model.fit(spec, benchmark_data(0, 40))
    assert tracer.missing == []
    seen = {span["name"] for span in tracer.spans}
    expected = {"fit", "gram", "eigh", "split", "pla", "inner", "f_value", "grad_h",
                "stationarity"}
    assert expected <= seen
    inner = [span for span in tracer.spans if span["name"] == "inner"]
    assert len(inner) == model.trace.num_iterations
    assert sum(span["iterations"] for span in inner) == sum(model.trace.inner_iterations)
