#!/usr/bin/env python3
"""Seeded l1-riklr sweep: how each fit stops, and where f first reaches 0.

Every run fits l1-riklr with the default TL1 kernel (eta = 0.7 d) on the
benchmark's synthetic data (X ~ N(0, I) with d = 5, label x0 + 0.5 noise > 0,
drawn from ``numpy.random.default_rng(seed)``) for each n, data seed, lambda
and lambda1, and prints one JSON line:

- ``status``: converged, max_iterations, or diverged (the fit raised
  NumericalError);
- ``outer``: outer steps whose f was evaluated (a stop by the iterate-norm
  cap comes one step later, before its f is evaluated);
- ``first_nonpositive``: the first outer step with f <= 0, or null;
- ``f_final``: the last f evaluated; ``seconds``: wall time of the fit.

The last two come from wrapping ``iklogit.solver.f_value``, which the outer
loop calls once at the start point and once per step, so the package keeps
no counter and the script runs against any checkout of it. A final line sums
up the statuses and counts the runs that reach f <= 0 without diverging.

Usage:
    PYTHONPATH=src python3 scripts/divergence_sweep.py \\
        [--n 120 300 500] [--seeds 0 1 2] [--grid 1e-4 0.01 1]
"""

from __future__ import annotations

import argparse
import json
import time
from collections import Counter

import numpy as np

import iklogit.solver
from iklogit import Dataset, ModelSpec, NumericalError, fit

D = 5


def synthetic(seed: int, n: int) -> Dataset:
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, D))
    y = (x[:, 0] + 0.5 * rng.standard_normal(n) > 0).astype(np.int64)
    return Dataset(x, y)


def run(data: Dataset, lam: float, lam1: float) -> dict:
    f_values = []
    f_value = iklogit.solver.f_value

    def recording(*args, **kwargs):
        f = f_value(*args, **kwargs)
        f_values.append(f)
        return f

    iklogit.solver.f_value = recording
    t0 = time.perf_counter()
    try:
        status = fit(ModelSpec("l1-riklr", lam=lam, lam1=lam1), data).trace.status
    except NumericalError:
        status = "diverged"
    finally:
        seconds = time.perf_counter() - t0
        iklogit.solver.f_value = f_value
    first = next((k for k, f in enumerate(f_values) if f <= 0.0), None)
    return {
        "status": status,
        "outer": len(f_values) - 1,
        "first_nonpositive": first,
        "f_final": f_values[-1],
        "seconds": round(seconds, 4),
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", type=int, nargs="+", default=[120, 300, 500])
    parser.add_argument("--seeds", type=int, nargs="+", default=[0, 1, 2])
    parser.add_argument("--grid", type=float, nargs="+", default=[1e-4, 0.01, 1.0])
    args = parser.parse_args()

    statuses = Counter()
    flagged_alive = 0
    total_s = 0.0
    for n in args.n:
        for seed in args.seeds:
            data = synthetic(seed, n)
            for lam in args.grid:
                for lam1 in args.grid:
                    rec = {"n": n, "seed": seed, "lam": lam, "lam1": lam1}
                    rec.update(run(data, lam, lam1))
                    print(json.dumps(rec), flush=True)
                    statuses[rec["status"]] += 1
                    total_s += rec["seconds"]
                    alive = rec["status"] != "diverged"
                    flagged_alive += alive and rec["first_nonpositive"] is not None
    print(json.dumps({
        "summary": dict(sorted(statuses.items())),
        "nonpositive_f_not_diverged": flagged_alive,
        "seconds": round(total_s, 3),
    }))


if __name__ == "__main__":
    main()
