"""Benchmark for iklogit: three seeded workloads, end-to-end and per-layer metrics.

Run from the repository root:

    python3 perfbench/run.py --workload fit-tl1 --seed 1 --seconds 42 --trace 0

``--trace 0`` prints the end-to-end metrics, measured with no span
recording.  ``--trace 1`` runs the workload with span recording and prints
the per-layer metrics.  The last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--record-reference`` rewrites
``perfbench/reference.json`` from the current sources.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

WORKLOAD_NAMES = ("fit-tl1", "rbf-serve", "bench-protocol")
# Set-up after the imports (warm-up, input generation, files) is repeated and
# its median taken.  The first repetition also pays the first BLAS/LAPACK
# calls, which take 0.05 s or about 1 s depending on whether the machine's
# cores had been idle; the median keeps that noise out of setup_s.
SETUP_REPEATS = 3


# BLAS threads per workload, capped at the cores this process may use.  The
# n <= 500 matrix-vector products of fit-tl1 and bench-protocol gain nothing
# from a second thread but pick up its scheduling noise; rbf-serve's n=2000
# products and eigh run nearly twice as fast on two.
BLAS_THREADS = {"fit-tl1": 1, "rbf-serve": 2, "bench-protocol": 1}


def blas_threads(workload: str | None) -> int:
    """One process drives the load, with no more BLAS threads than cores."""
    return max(1, min(BLAS_THREADS.get(workload, 2), len(os.sched_getaffinity(0))))


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=int, default=42)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--record-reference", action="store_true",
                   help="rewrite perfbench/reference.json from the current sources")
    args = p.parse_args(argv)
    if not args.record_reference and args.workload is None:
        p.error("--workload is required")
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    return args


def environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
    }


def run_units(bench, seconds: float) -> list[dict]:
    """Whole units until another one would overrun ``seconds``; at least one."""
    records = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        try:
            rec = bench.unit()
        except Exception as exc:
            # An unexpected raise fails the unit; the run goes on and reports it.
            traceback.print_exc()
            rec = bench.new_record()
            rec["attempted"] = 1
            rec["failures"].append(f"unit raised {type(exc).__name__}: {exc}")
        rec["op_s"] = time.perf_counter() - t0
        if not records:
            # Later units add only allocator fragmentation, so the peak is
            # taken over set-up and the first unit, whatever the unit count.
            rec["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        records.append(rec)
        if time.perf_counter() - start + rec["op_s"] > seconds:
            return records


def median_or_zero(values) -> float:
    """Median; 0 when a broken run produced no samples (it is then marked incorrect)."""
    values = list(values)
    return statistics.median(values) if values else 0.0


def fit_s(records) -> float:
    """Median over units of the unit's mean seconds per fit call.

    The fits of one unit are different problems whose costs are far apart
    (converged against capped fold fits, n=500 against n=300), so a median
    over single calls jumps between them; a unit's mean does not.
    """
    return median_or_zero(sum(r["fit_s"]) / len(r["fit_s"]) for r in records if r["fit_s"])


def end_to_end(records, setup_s: float) -> dict:
    # Per call, so that one call slowed by the machine moves the median little.
    rates = [rows / secs for r in records for rows, secs in r["predict"]]
    return {
        "setup_s": (setup_s, "s"),
        "op_s": (statistics.median(r["op_s"] for r in records), "s"),
        "fit_s": (fit_s(records), "s"),
        "predict_rows_per_s": (median_or_zero(rates), "rows/s"),
        "heldout_acc": (median_or_zero(a for r in records for a in r["acc"]), "fraction"),
        "peak_rss_mb": (records[0]["peak_rss_mb"], "MB"),
    }


def layer_unit(name: str) -> str:
    if name.endswith("rows_per_s"):
        return "rows/s"
    if name.endswith("_s_per_iter"):
        return "s/iter"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_bytes"):
        return "B"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def traced_run(bench, seconds: float, spans_path: Path) -> tuple[list[dict], dict]:
    from tracing import LAYERS, Tracer, span_cost

    tracer = Tracer()
    with tracer.installed():
        traced = run_units(bench, seconds)
    m = tracer.layer_metrics(len(traced))
    sizes = [r["report_bytes"] for r in traced if "report_bytes" in r]
    m["cli.report_bytes"] = statistics.median(sizes) if sizes else 0
    # Recording cost per unit: the measured cost of one span times the spans
    # recorded.  A traced-minus-untraced difference of whole runs would be
    # smaller than the run-to-run noise.
    m["trace.overhead_s"] = span_cost() * len(tracer.spans) / len(traced)
    unobserved = tracer.unobserved(bench.expected_layers)
    m["trace.unobserved_layers"] = len(unobserved)

    unit_s = statistics.median(r["op_s"] for r in traced)
    print(f"traced units: {len(traced)}; per-layer times and counts are per unit")
    print(f"tracing overhead: {m['trace.overhead_s']:.4f} s per unit "
          f"({100 * m['trace.overhead_s'] / unit_s:.2f}% of {unit_s:.3f} s)")
    for layer in LAYERS:
        flag = "UNOBSERVED" if layer in unobserved else (
            "observed" if m[f"{layer}.spans"] else "not expected here")
        print(f"  {layer:<10} spans {m[f'{layer}.spans']:>10.1f}  "
              f"self {m[f'{layer}.self_s']:>9.4f} s  {flag}")
    if tracer.missing:
        print("wrapped names not found: " + ", ".join(tracer.missing))
    columns = ("name", "layer", "parent", "start", "end", "outcome")
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump({"columns": columns, "missing": tracer.missing,
                   "spans": [[s[c] for c in columns] for s in tracer.spans]},
                  fh, separators=(",", ":"))
    return traced, {k: (v, layer_unit(k)) for k, v in m.items()}


def record_reference(workdir: Path) -> int:
    import workloads

    reference, problems = {}, []
    for name, cls in workloads.WORKLOADS.items():
        bench = cls(0, workdir, None)
        rec = bench.unit()
        problems += rec["failures"] + bench.validate_reference(rec)
        reference[name] = rec["observed"]
        print(name, json.dumps(rec["observed"]), rec.get("outcomes", ""), *bench.notes, flush=True)
    if problems:
        print("reference not written:", *problems, sep="\n  ", file=sys.stderr)
        return 1
    workloads.REFERENCE_PATH.write_text(json.dumps(reference, indent=1) + "\n", encoding="utf-8")
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    src = root / "src"
    if not (src / "iklogit" / "__init__.py").is_file():
        print("perfbench: no iklogit sources under ./src; run from the repository root",
              file=sys.stderr)
        return 2
    threads = str(blas_threads(args.workload))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = threads
    sys.path.insert(0, str(src))

    work_root = root / ".perfbench_work"
    work_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=work_root))
    try:
        # numpy's import is the same for every version of the package and is
        # the noisiest part of start-up, so set-up time starts after it.
        import numpy  # noqa: F401

        t0 = time.perf_counter()
        import workloads

        import_s = time.perf_counter() - t0
        if args.record_reference:
            workloads.warm_up()
            return record_reference(workdir)
        reference = json.loads(workloads.REFERENCE_PATH.read_text(encoding="utf-8"))
        build_s = []
        for _ in range(1 if args.trace else SETUP_REPEATS):
            t0 = time.perf_counter()
            workloads.warm_up()
            bench = workloads.WORKLOADS[args.workload](
                args.seed, workdir, reference[args.workload])
            build_s.append(time.perf_counter() - t0)
        setup_s = import_s + statistics.median(build_s)
        print(f"setup: package import {import_s:.3f} s; warm-up and workload set-up "
              + " ".join(f"{t:.3f}" for t in build_s) + " s")
        print("environment: " + json.dumps(environment()))
        if args.trace:
            spans_path = work_root / f"spans-{args.workload}-seed{args.seed}.json"
            records, metrics = traced_run(bench, args.seconds, spans_path)
        else:
            records = run_units(bench, args.seconds)
            metrics = end_to_end(records, setup_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(r["attempted"] for r in records)
    failures = [f for r in records for f in r["failures"]]
    for note in dict.fromkeys(bench.notes):
        print(note)
    for failure in failures:
        print("FAILED: " + failure)
    print("unit seconds: " + " ".join(f"{r['op_s']:.3f}" for r in records))
    print("fit seconds: " + " ".join(f"{t:.3f}" for r in records for t in r["fit_s"]))
    print(f"units: {len(records)}; error_rate: {len(failures) / attempted:.6f} "
          f"({len(failures)} failed of {attempted} attempted)")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
