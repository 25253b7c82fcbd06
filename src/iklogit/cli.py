"""Command-line interface: train, predict, eval, kernel-stats, bench.

A JSON config file is the source of truth; repeated ``--set key=value``
flags override individual (dot-separated) keys, and the few dedicated
flags (--model, --data, --output, --trace) are shorthand for common keys.
Exit codes: 0 success, 1 usage/input error, 2 numerical non-convergence.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from pathlib import Path

from .errors import ConfigError, NumericalError, ResourceError
from .experiment import (
    CsvOptions,
    ExperimentSpec,
    accuracy,
    format_results_table,
    format_stats_table,
    ingest_csv,
    read_features,
    rows_to_records,
    run_experiment,
    spectrum_range,
)
from .kernels import KernelSpec
from .model import (
    ModelSpec,
    fit,
    load_model,
    predict_label,
    predict_proba,
    save_model,
)
from .solver import CONVERGED, SolverConfig

log = logging.getLogger("iklogit")

def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError(f"config {path} must be a JSON object")
    return cfg


def _apply_overrides(cfg: dict, overrides: list[str]) -> dict:
    """Apply --set key=value pairs; values parse as JSON, else raw strings."""
    for item in overrides:
        key, sep, raw = item.partition("=")
        if not sep or not key:
            raise ConfigError(f"override {item!r} is not of the form key=value")
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        node = cfg
        parts = key.split(".")
        for part in parts[:-1]:
            nxt = node.setdefault(part, {})
            if not isinstance(nxt, dict):
                raise ConfigError(f"override {key!r} descends into non-object {part!r}")
            node = nxt
        node[parts[-1]] = value
    return cfg


def _check_sections(cfg: dict) -> None:
    """A ConfigError unless each config section present is a JSON object."""
    for name in ("data", "model", "kernel", "solver", "output"):
        if not isinstance(cfg.get(name, {}), dict):
            raise ConfigError(f"{name} must be a JSON object")


def _check_keys(section: dict, keys: tuple, where: str) -> None:
    """A ConfigError naming the keys of ``section`` that ``keys`` does not list."""
    unknown = set(section) - set(keys)
    if unknown:
        raise ConfigError(f"unknown {where} keys: {sorted(unknown)}")


def _cast(section: dict, keys: tuple, where: str, required: tuple = ()) -> dict:
    """Keyword arguments of a spec from the keys present in ``section``.

    ``keys`` lists the allowed keys.  Values pass unchanged, so the spec
    checks them, except that a nested kernel or solver section becomes its
    spec and an integral float for an integer key (JSON writes 1e3 as a
    float) becomes an int.  Keys in _OWN are read by the command itself,
    and absent keys are left out, so the spec supplies the default.
    """
    if not isinstance(section, dict):
        raise ConfigError(f"{where} must be a JSON object")
    _check_keys(section, keys, where)
    for key in required:
        if key not in section:
            raise ConfigError(f"{where}.{key} is required")
    kwargs = {}
    for key in keys:
        if key in _OWN or key not in section:
            continue
        value = section[key]
        if key in _NESTED:
            value = _NESTED[key](value)
        elif key in _INTEGERS and isinstance(value, float) and value.is_integer():
            value = int(value)
        kwargs[_FIELDS.get(key, key)] = value
    return kwargs


def _data_path(section: dict) -> str:
    path = section.get("path")
    if not path:
        raise ConfigError("data.path is required")
    return str(path)


def _csv_options(section: dict) -> CsvOptions:
    return CsvOptions(**_cast(section, _DATA, "data"))


def _solver_config(section: dict) -> SolverConfig:
    return SolverConfig(**_cast(section, _SOLVER, "solver"))


def _kernel_spec(section: dict | None) -> KernelSpec | None:
    if section is None:
        return None
    return KernelSpec.from_dict(_cast(section, _KERNEL, "kernel"))


def _model_spec(section: dict, solver: SolverConfig) -> ModelSpec:
    kwargs = _cast(section, _MODEL, "model", required=("variant", "lambda"))
    return ModelSpec(solver=solver, **kwargs)


# The keys of each config section.
_DATA = ("path", "delimiter", "has_header", "label_column", "standardize")
_SOLVER = ("gamma", "epsilon_outer", "max_outer", "epsilon_inner", "max_inner")
_KERNEL = ("kind", "eta", "sigma")
_MODEL = ("variant", "lambda", "lambda1", "tau", "kernel")
_BENCH = (
    "data", "name", "variants", "grid", "repeats", "cv_folds", "base_seed", "tau",
    "solver", "output",
)
# The top-level keys of each command's config.
_COMMAND_KEYS = {
    "train": ("data", "model", "solver", "output"),
    "predict": ("model_path", "data", "output"),
    "eval": ("model_path", "data", "output"),
    "kernel-stats": ("data", "kernel", "name", "output"),
    "bench": _BENCH,
}
# The keys of each command's output section; its --output flag sets the first.
_OUTPUT_KEYS = {
    "train": ("model", "trace"),
    "predict": ("predictions",),
    "eval": ("metrics",),
    "kernel-stats": ("stats",),
    "bench": ("directory", "basename"),
}
# Keys the commands read themselves.
_OWN = ("path", "data", "output")
# Keys whose value is a section of its own, built into its spec.
_NESTED = {"kernel": _kernel_spec, "solver": _solver_config}
# Integer keys, where an integral float such as 1e3 counts as an int.
_INTEGERS = (
    "max_outer", "max_inner", "repeats", "cv_folds", "base_seed", "label_column"
)
# Config keys spelled differently from their dataclass field.
_FIELDS = {"lambda": "lam", "lambda1": "lam1"}


def _write_json(path: str, payload) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def _write_trace(path: str, trace) -> None:
    _write_json(path, {"status": trace.status, "records": trace.to_records()})


def cmd_train(cfg: dict) -> int:
    solver = _solver_config(cfg.get("solver", {}))
    spec = _model_spec(cfg.get("model", {}), solver)
    data = ingest_csv(_data_path(cfg.get("data", {})), _csv_options(cfg.get("data", {})))
    log.info("training %s on %d rows", spec.variant, data.n)
    out = cfg.get("output", {})
    try:
        model = fit(spec, data)
    except NumericalError as exc:
        # A diverged fit is no model, but its partial trace says where it went.
        if out.get("trace") and exc.trace is not None:
            _write_trace(out["trace"], exc.trace)
        raise
    trace = model.trace

    model_path = out.get("model", "model.json")
    save_model(model, model_path)
    if out.get("trace"):
        _write_trace(out["trace"], trace)

    print(f"status: {trace.status}")
    print(f"outer_iterations: {trace.num_iterations}")
    print(f"inner_iterations: {sum(trace.inner_iterations)}")
    print(f"final_objective: {trace.f_values[-1]!r}")
    print(f"selected_count: {model.support.size}")
    print(f"stationarity_residual: {trace.stationarity_residuals[-1]!r}")
    print(f"model_file: {model_path}")
    return 0 if trace.status == CONVERGED else 2


def cmd_kernel_stats(cfg: dict) -> int:
    data_cfg = cfg.get("data", {})
    path = _data_path(data_cfg)
    data = ingest_csv(path, _csv_options(data_cfg))
    kernel = _kernel_spec(cfg.get("kernel")) or KernelSpec.tl1()
    kernel = kernel.resolve(data.d)
    eig_min, eig_max = spectrum_range(kernel, data)
    record = {
        "dataset": cfg.get("name", Path(path).stem),
        "d": data.d,
        "n": data.n,
        "eig_min": eig_min,
        "eig_max": eig_max,
        "kernel": kernel.to_dict(),
    }
    print(json.dumps(record))
    out = cfg.get("output", {})
    if out.get("stats"):
        _write_json(out["stats"], record)
    return 0


def cmd_bench(cfg: dict) -> int:
    kwargs = _cast(cfg, _BENCH, "bench config")
    data_cfg = cfg.get("data", {})
    spec = ExperimentSpec(
        path=_data_path(data_cfg), csv=_csv_options(data_cfg), **kwargs
    )
    rows = run_experiment(spec)

    out = cfg.get("output", {})
    directory = Path(out.get("directory", "."))
    directory.mkdir(parents=True, exist_ok=True)
    basename = out.get("basename", "report")
    text = format_stats_table(rows) + "\n\n" + format_results_table(rows) + "\n"
    _write_json(str(directory / f"{basename}.json"), rows_to_records(rows))
    (directory / f"{basename}.txt").write_text(text, encoding="utf-8")
    print(text, end="")

    all_failed = all(len(r.failed_repeats) == spec.repeats for r in rows)
    return 1 if all_failed else 0


def cmd_predict(cfg: dict) -> int:
    model_path = cfg.get("model_path")
    if not model_path:
        raise ConfigError("--model (or model_path) is required")
    model = load_model(model_path)
    data_cfg = dict(cfg.get("data", {}))
    # Prediction files carry features only unless a label column is configured.
    data_cfg.setdefault("label_column", None)
    features = read_features(_data_path(data_cfg), _csv_options(data_cfg))
    probs = predict_proba(model, features)
    labels = predict_label(model, features)

    lines = ["index,probability,label"]
    lines += [
        f"{i},{float(p)!r},{int(lab)}"
        for i, (p, lab) in enumerate(zip(probs, labels))
    ]
    text = "\n".join(lines) + "\n"
    out = cfg.get("output", {})
    if out.get("predictions"):
        Path(out["predictions"]).write_text(text, encoding="utf-8")
    else:
        print(text, end="")
    return 0


def cmd_eval(cfg: dict) -> int:
    model_path = cfg.get("model_path")
    if not model_path:
        raise ConfigError("--model (or model_path) is required")
    model = load_model(model_path)
    data_cfg = cfg.get("data", {})
    data = ingest_csv(_data_path(data_cfg), _csv_options(data_cfg))
    acc = accuracy(model, data)
    record = {"accuracy": acc, "n": data.n, "error_rate": 1.0 - acc}
    print(json.dumps(record))
    out = cfg.get("output", {})
    if out.get("metrics"):
        _write_json(out["metrics"], record)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="iklogit",
        description="Sparse (indefinite-)kernel logistic regression toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", help="JSON config file")
        p.add_argument(
            "--set", action="append", default=[], metavar="KEY=VALUE",
            help="override a config key (dot-separated path, JSON value)",
        )
        p.add_argument("-v", "--verbose", action="store_true")

    p_train = sub.add_parser("train", help="fit a model and write a model file")
    common(p_train)
    p_train.add_argument("--data", help="dataset path (sets data.path)")
    p_train.add_argument("--output", help="model file path (sets output.model)")
    p_train.add_argument("--trace", help="trace file path (sets output.trace)")

    p_pred = sub.add_parser("predict", help="write probabilities and labels")
    common(p_pred)
    p_pred.add_argument("--model", help="model file from train")
    p_pred.add_argument("--data", help="feature file (sets data.path)")
    p_pred.add_argument("--output", help="predictions CSV path")

    p_eval = sub.add_parser("eval", help="accuracy of a model on labeled data")
    common(p_eval)
    p_eval.add_argument("--model", help="model file from train")
    p_eval.add_argument("--data", help="labeled dataset path")
    p_eval.add_argument("--output", help="metrics JSON path")

    p_stats = sub.add_parser("kernel-stats", help="Gram spectrum statistics")
    common(p_stats)
    p_stats.add_argument("--data", help="dataset path (sets data.path)")
    p_stats.add_argument("--output", help="stats JSON path")

    p_bench = sub.add_parser("bench", help="run the benchmark protocol")
    common(p_bench)
    p_bench.add_argument("--data", help="dataset path (sets data.path)")
    p_bench.add_argument("--output", help="report directory (sets output.directory)")

    return parser


def _merge_flags(cfg: dict, args: argparse.Namespace) -> dict:
    if getattr(args, "data", None):
        cfg.setdefault("data", {})["path"] = args.data
    if getattr(args, "model", None):
        cfg["model_path"] = args.model
    output = getattr(args, "output", None)
    if output:
        cfg.setdefault("output", {})[_OUTPUT_KEYS[args.command][0]] = output
    if getattr(args, "trace", None):
        cfg.setdefault("output", {})["trace"] = args.trace
    return cfg


_COMMANDS = {
    "train": cmd_train,
    "predict": cmd_predict,
    "eval": cmd_eval,
    "kernel-stats": cmd_kernel_stats,
    "bench": cmd_bench,
}


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(message)s",
    )
    try:
        cfg = _load_config(args.config)
        cfg = _apply_overrides(cfg, args.set)
        _check_sections(cfg)
        _check_keys(cfg, _COMMAND_KEYS[args.command], f"{args.command} config")
        _check_keys(cfg.get("output", {}), _OUTPUT_KEYS[args.command], "output")
        cfg = _merge_flags(cfg, args)
        return _COMMANDS[args.command](cfg)
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, TypeError, KeyError, OSError, ResourceError) as exc:
        # InputError and its subclasses land here too.
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
