"""CLI subcommands driven in-process through main(argv)."""

import dataclasses
import json

import numpy as np
import pytest

from iklogit import KernelSpec, ModelSpec, SolverConfig, cli, load_model
from iklogit.cli import main
from iklogit.experiment import CsvOptions, ExperimentSpec

from conftest import benchmark_data, separated_dataset, write_csv


@pytest.fixture
def clusters_csv(rng, tmp_path):
    data = separated_dataset(rng, n=16)
    return write_csv(tmp_path / "clusters.csv", data.features, data.labels)


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def train_config(tmp_path, data_path, **model_overrides):
    model = {"variant": "l1-riklr", "lambda": 0.5, "lambda1": 0.05}
    model.update(model_overrides)
    return write_config(
        tmp_path,
        {
            "data": {"path": str(data_path)},
            "model": model,
            "output": {"model": str(tmp_path / "model.json")},
        },
    )


class TestTrain:
    def test_success_writes_model_and_trace(self, clusters_csv, tmp_path, capsys):
        trace_path = tmp_path / "trace.json"
        cfg = train_config(tmp_path, clusters_csv)
        rc = main(["train", "--config", cfg, "--trace", str(trace_path)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "status: converged" in out
        assert "inner_iterations:" in out
        assert "selected_count:" in out
        assert "final_objective:" in out
        model = load_model(str(tmp_path / "model.json"))
        assert model.variant == "l1-riklr"
        trace = json.loads(trace_path.read_text())
        assert trace["status"] == "converged"
        assert trace["records"][0]["iteration"] == 1
        inner = sum(r["inner_iterations"] for r in trace["records"])
        assert f"inner_iterations: {inner}\n" in out

    def test_diverged_fit_writes_trace_but_no_model(self, tmp_path, capsys):
        # The benchmark's diverging fold setting: f falls to 0 or below
        # inside the first period, and the fit stops at its first f <= 0.
        data = benchmark_data(0, 120)
        csv = write_csv(tmp_path / "diverging.csv", data.features, data.labels)
        trace_path = tmp_path / "trace.json"
        cfg = train_config(tmp_path, csv, **{"lambda": 1.0, "lambda1": 1e-4})
        rc = main(["train", "--config", cfg, "--trace", str(trace_path)])
        assert rc == 2
        captured = capsys.readouterr()
        assert "numerical error:" in captured.err and "diverging" in captured.err
        assert captured.out == ""
        assert not (tmp_path / "model.json").exists()
        trace = json.loads(trace_path.read_text())
        assert trace["status"] == "diverged"
        records = trace["records"]
        assert [r["iteration"] for r in records] == list(range(1, len(records) + 1))
        objectives = [r["objective"] for r in records]
        assert objectives[-1] <= 0 and all(f > 0 for f in objectives[:-1])

    def test_missing_data_path_exits_one(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path, {"model": {"variant": "klr", "lambda": 1.0}}
        )
        rc = main(["train", "--config", cfg])
        assert rc == 1
        assert "data.path is required" in capsys.readouterr().err

    def test_unreadable_data_file_names_path(self, tmp_path, capsys):
        missing = tmp_path / "nope.csv"
        cfg = train_config(tmp_path, missing)
        rc = main(["train", "--config", cfg])
        assert rc == 1
        assert str(missing) in capsys.readouterr().err

    def test_iteration_cap_exits_two_but_writes_model(
        self, clusters_csv, tmp_path, capsys
    ):
        cfg = train_config(tmp_path, clusters_csv, variant="iklr", lambda1=0.0)
        rc = main(["train", "--config", cfg, "--set", "solver.max_outer=1"])
        assert rc == 2
        assert "status: max_iterations" in capsys.readouterr().out
        assert (tmp_path / "model.json").exists()

    def test_set_overrides_reach_the_model(self, clusters_csv, tmp_path, capsys):
        cfg = train_config(tmp_path, clusters_csv)
        rc = main(["train", "--config", cfg, "--set", "model.lambda=0.25"])
        assert rc == 0
        model = load_model(str(tmp_path / "model.json"))
        assert model.lam == 0.25

    def test_explicit_kernel_section(self, clusters_csv, tmp_path, capsys):
        # Small sigma keeps the Gram well conditioned on tight clusters.
        cfg = train_config(
            tmp_path, clusters_csv, kernel={"kind": "rbf", "sigma": 0.1}
        )
        rc = main(["train", "--config", cfg])
        assert rc == 0
        model = load_model(str(tmp_path / "model.json"))
        assert model.kernel.kind == "rbf"
        assert model.kernel.sigma == 0.1

    def test_idempotent_model_files(self, clusters_csv, tmp_path, capsys):
        cfg = train_config(tmp_path, clusters_csv)
        assert main(["train", "--config", cfg]) == 0
        first = (tmp_path / "model.json").read_bytes()
        assert main(["train", "--config", cfg]) == 0
        assert (tmp_path / "model.json").read_bytes() == first

    def test_malformed_override_exits_one(self, clusters_csv, tmp_path, capsys):
        cfg = train_config(tmp_path, clusters_csv)
        rc = main(["train", "--config", cfg, "--set", "no-equals-sign"])
        assert rc == 1
        assert "key=value" in capsys.readouterr().err

    def test_unknown_model_key_exits_one(self, clusters_csv, tmp_path, capsys):
        cfg = train_config(tmp_path, clusters_csv, bogus=1)
        rc = main(["train", "--config", cfg])
        assert rc == 1
        assert "unknown model keys" in capsys.readouterr().err

    def test_gram_size_cap_exits_one(self, tmp_path, capsys):
        # 8193 rows need an 8193 x 8193 Gram, just over the 2**29-byte cap.
        n = 8193
        features = np.arange(n, dtype=float)[:, None]
        path = write_csv(tmp_path / "big.csv", features, np.arange(n) % 2)
        rc = main(["train", "--config", train_config(tmp_path, path)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: Gram matrix of size 8193x8193")
        assert "Traceback" not in err

    def test_invalid_config_json_exits_one(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        rc = main(["train", "--config", str(path)])
        assert rc == 1
        assert "not valid JSON" in capsys.readouterr().err

    def test_non_object_config_exits_one(self, tmp_path, capsys):
        path = tmp_path / "list.json"
        path.write_text("[1, 2]")
        rc = main(["train", "--config", str(path)])
        assert rc == 1
        assert "JSON object" in capsys.readouterr().err

    def test_missing_config_file_exits_one(self, tmp_path, capsys):
        rc = main(["train", "--config", str(tmp_path / "absent.json")])
        assert rc == 1
        assert "cannot read config" in capsys.readouterr().err


class TestKernelStats:
    def test_two_far_points_hand_eigensystem(self, tmp_path, capsys):
        # d=2 resolves eta to 1.4; L1 distance 20 truncates the off-diagonal
        # to zero, so the Gram is 1.4 * I with a double eigenvalue.
        path = tmp_path / "pair.csv"
        path.write_text("0,0,0\n10,10,1\n")
        rc = main(["kernel-stats", "--data", str(path)])
        assert rc == 0
        record = json.loads(capsys.readouterr().out)
        assert record["n"] == 2
        assert record["d"] == 2
        assert record["eig_min"] == pytest.approx(1.4, abs=1e-12)
        assert record["eig_max"] == pytest.approx(1.4, abs=1e-12)
        assert record["kernel"]["kind"] == "tl1"
        assert record["kernel"]["eta"] == pytest.approx(1.4)

    def test_rbf_spectrum_nonnegative(self, clusters_csv, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            {
                "data": {"path": str(clusters_csv)},
                "kernel": {"kind": "rbf", "sigma": 1.0},
            },
        )
        rc = main(["kernel-stats", "--config", cfg])
        assert rc == 0
        record = json.loads(capsys.readouterr().out)
        assert record["eig_min"] >= -1e-10
        assert record["eig_max"] > 0

    def test_parameter_of_other_kind_exits_one(self, clusters_csv, capsys):
        override = 'kernel={"kind":"tl1","sigma":5}'
        rc = main(["kernel-stats", "--data", str(clusters_csv), "--set", override])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: tl1 kernel takes eta, not sigma")

    def test_stats_file_output(self, clusters_csv, tmp_path, capsys):
        out = tmp_path / "stats.json"
        rc = main(["kernel-stats", "--data", str(clusters_csv), "--output", str(out)])
        assert rc == 0
        assert json.loads(out.read_text())["n"] == 16


class TestPredictAndEval:
    @pytest.fixture
    def trained(self, clusters_csv, tmp_path, capsys):
        cfg = train_config(tmp_path, clusters_csv)
        assert main(["train", "--config", cfg]) == 0
        capsys.readouterr()
        return str(tmp_path / "model.json")

    def test_predict_stdout(self, trained, rng, tmp_path, capsys):
        features = rng.normal(2.0, 0.1, size=(4, 2))
        feat_path = tmp_path / "feat.csv"
        feat_path.write_text(
            "\n".join(",".join(repr(float(v)) for v in row) for row in features) + "\n"
        )
        rc = main(["predict", "--model", trained, "--data", str(feat_path)])
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "index,probability,label"
        assert len(lines) == 5
        for i, line in enumerate(lines[1:]):
            idx, prob, label = line.split(",")
            assert int(idx) == i
            assert 0.0 < float(prob) < 1.0
            assert label in ("0", "1")

    def test_predict_labeled_file_with_config(self, trained, clusters_csv, tmp_path, capsys):
        out_path = tmp_path / "preds.csv"
        cfg = write_config(
            tmp_path,
            {"data": {"path": str(clusters_csv), "label_column": -1}},
            name="pred.json",
        )
        rc = main(
            ["predict", "--config", cfg, "--model", trained, "--output", str(out_path)]
        )
        assert rc == 0
        lines = out_path.read_text().strip().splitlines()
        assert len(lines) == 17  # header + 16 rows
        labels = [int(line.split(",")[2]) for line in lines[1:]]
        # Separated clusters, first half class 0: the model must get most right.
        assert np.mean(np.array(labels[:8]) == 0) >= 0.75
        assert np.mean(np.array(labels[8:]) == 1) >= 0.75

    def test_predict_without_model_exits_one(self, clusters_csv, capsys):
        rc = main(["predict", "--data", str(clusters_csv)])
        assert rc == 1
        assert "model" in capsys.readouterr().err

    def test_malformed_model_file_exits_one(self, trained, clusters_csv, capsys):
        with open(trained) as fh:
            payload = json.load(fh)
        payload["kernel"] = 5
        with open(trained, "w") as fh:
            json.dump(payload, fh)
        rc = main(["predict", "--model", trained, "--data", str(clusters_csv)])
        assert rc == 1
        assert "error: kernel must be a JSON object" in capsys.readouterr().err

    def test_eval_metrics(self, trained, clusters_csv, tmp_path, capsys):
        metrics_path = tmp_path / "metrics.json"
        rc = main(
            [
                "eval",
                "--model",
                trained,
                "--data",
                str(clusters_csv),
                "--output",
                str(metrics_path),
            ]
        )
        assert rc == 0
        record = json.loads(capsys.readouterr().out)
        assert record["n"] == 16
        assert record["accuracy"] >= 0.9
        assert record["error_rate"] == pytest.approx(1.0 - record["accuracy"])
        assert json.loads(metrics_path.read_text()) == record


class TestBench:
    def test_single_cell_report(self, clusters_csv, tmp_path, capsys):
        report_dir = tmp_path / "reports"
        cfg = write_config(
            tmp_path,
            {
                "data": {"path": str(clusters_csv)},
                "variants": ["iklr"],
                "grid": [0.1],
                "repeats": 1,
                "cv_folds": 2,
                "output": {"directory": str(report_dir)},
            },
        )
        rc = main(["bench", "--config", cfg])
        out = capsys.readouterr().out
        assert rc == 0
        records = json.loads((report_dir / "report.json").read_text())
        assert len(records) == 1
        assert records[0]["variant"] == "iklr"
        assert records[0]["dataset"] == "clusters"
        text = (report_dir / "report.txt").read_text()
        assert "eig_min" in text
        assert "iklr" in text
        assert out == text

    def test_empty_grid_exits_one(self, clusters_csv, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            {"data": {"path": str(clusters_csv)}, "grid": [], "repeats": 1},
        )
        rc = main(["bench", "--config", cfg])
        assert rc == 1
        assert "grid" in capsys.readouterr().err

    def test_unknown_top_level_key_exits_one(self, clusters_csv, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            {"data": {"path": str(clusters_csv)}, "surprise": True},
        )
        rc = main(["bench", "--config", cfg])
        assert rc == 1
        assert "unknown bench config keys" in capsys.readouterr().err


class TestNumberKeys:
    """Number keys take JSON numbers only; the spec then checks the range."""

    @pytest.mark.parametrize(
        "override",
        [
            'solver.gamma="3"',
            "solver.epsilon_outer=true",
            "solver.max_outer=2.7",
            "solver.max_inner=true",
            'solver.max_inner="100"',
            "model.lambda=true",
            'model.lambda1="0.05"',
            "model.tau=[1e-06]",
        ],
    )
    def test_train_rejects_non_numbers(self, clusters_csv, tmp_path, capsys, override):
        key = override.partition("=")[0].rpartition(".")[2]
        cfg = train_config(tmp_path, clusters_csv)
        rc = main(["train", "--config", cfg, "--set", override])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {key} must be ")
        assert not (tmp_path / "model.json").exists()

    @pytest.mark.parametrize(
        "kernel, key",
        [
            ('{"kind": "rbf", "sigma": true}', "sigma"),
            ('{"kind": "tl1", "eta": false}', "eta"),
            ('{"kind": "rbf", "sigma": "1"}', "sigma"),
            ('{"kind": ["rbf"], "sigma": 1}', "kind"),
        ],
    )
    def test_kernel_keys_are_typed(self, clusters_csv, tmp_path, capsys, kernel, key):
        cfg = train_config(tmp_path, clusters_csv)
        rc = main(["train", "--config", cfg, "--set", f"model.kernel={kernel}"])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {key} must be ")
        assert not (tmp_path / "model.json").exists()
        rc = main(["kernel-stats", "--data", str(clusters_csv), "--set", f"kernel={kernel}"])
        assert rc == 1
        assert capsys.readouterr().err.startswith(f"error: {key} must be ")

    def test_integral_float_is_an_integer(self, clusters_csv, tmp_path, capsys):
        cfg = train_config(tmp_path, clusters_csv)
        assert main(["train", "--config", cfg, "--set", "solver.max_outer=1e3"]) == 0
        assert "status: converged" in capsys.readouterr().out

    def test_integral_float_label_column_trains_like_the_int(self, clusters_csv, tmp_path):
        cfg = train_config(tmp_path, clusters_csv)
        alphas = []
        for value in ("-1", "-1.0"):
            out = tmp_path / f"model{value}.json"
            argv = ["train", "--config", cfg, "--set", f"data.label_column={value}",
                    "--set", f"output.model={out}"]
            assert main(argv) == 0
            alphas.append(load_model(str(out)).alpha)
        assert np.array_equal(alphas[0], alphas[1])

    @pytest.mark.parametrize(
        "override",
        ["repeats=1.5", "cv_folds=true", 'base_seed="0"', "tau=true",
         "solver.max_outer=2.7", 'solver.epsilon_inner="0"', "tau=0"],
    )
    def test_bench_rejects_non_numbers(self, clusters_csv, tmp_path, capsys, override):
        key = override.partition("=")[0].rpartition(".")[2]
        cfg = write_config(
            tmp_path,
            {"data": {"path": str(clusters_csv)}, "variants": ["klr"], "grid": [0.1],
             "repeats": 1, "cv_folds": 2, "output": {"directory": str(tmp_path)}},
        )
        rc = main(["bench", "--config", cfg, "--set", override])
        assert rc == 1
        assert capsys.readouterr().err.startswith(f"error: {key} must be ")
        assert not (tmp_path / "report.json").exists()


class TestConfigTypes:
    """Flag keys take JSON booleans, grids JSON numbers, sections JSON objects."""

    @pytest.mark.parametrize(
        "override", ['data.has_header="false"', "data.has_header=0", "data.standardize=1"]
    )
    def test_flag_keys_reject_non_booleans(self, tmp_path, capsys, override):
        path = tmp_path / "four.csv"
        path.write_text("0,0,0\n1,0,1\n0,1,0\n1,1,1\n")
        rc = main(["kernel-stats", "--data", str(path), "--set", override])
        assert rc == 1
        err = capsys.readouterr().err
        key = override.partition("=")[0].rpartition(".")[2]
        assert err.startswith(f"error: {key} must be a bool, got ")

    @pytest.mark.parametrize("has_header, rows", [("true", 3), ("false", 4)])
    def test_boolean_header_flag(self, tmp_path, capsys, has_header, rows):
        path = tmp_path / "four.csv"
        path.write_text("0,0,0\n1,0,1\n0,1,0\n1,1,1\n")
        override = f"data.has_header={has_header}"
        assert main(["kernel-stats", "--data", str(path), "--set", override]) == 0
        assert json.loads(capsys.readouterr().out)["n"] == rows

    @pytest.mark.parametrize("grid", ["[true]", '[0.01, "1"]', "0.5"])
    def test_bench_grid_rejects_non_numbers(self, clusters_csv, tmp_path, capsys, grid):
        cfg = write_config(
            tmp_path,
            {"data": {"path": str(clusters_csv)}, "variants": ["klr"],
             "repeats": 1, "cv_folds": 2, "output": {"directory": str(tmp_path)}},
        )
        rc = main(["bench", "--config", cfg, "--set", f"grid={grid}"])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: grid ")
        assert not (tmp_path / "report.json").exists()

    @pytest.mark.parametrize(
        "override, message",
        [('variants="klr"', "variants must be a list or tuple of strings"),
         ('variants=["klr", 1]', "variants must be a list or tuple of strings"),
         ("name=3", "name must be a string or None"),
         ('data.label_column="x"', "label_column must be an integer or None"),
         ("data.label_column=true", "label_column must be an integer or None"),
         ("data.delimiter=5", "delimiter must be a string")],
    )
    def test_bench_pass_through_keys_are_typed(
        self, clusters_csv, tmp_path, capsys, override, message
    ):
        cfg = write_config(
            tmp_path,
            {"data": {"path": str(clusters_csv)}, "variants": ["klr"], "grid": [0.1],
             "repeats": 1, "cv_folds": 2, "output": {"directory": str(tmp_path)}},
        )
        rc = main(["bench", "--config", cfg, "--set", override])
        assert rc == 1
        assert capsys.readouterr().err.startswith(f"error: {message}, got ")
        assert not (tmp_path / "report.json").exists()

    @pytest.mark.parametrize(
        "override, section",
        [("output=3", "output"), ("data=3", "data"), ("model=3", "model"),
         ("solver=[]", "solver"), ("model.kernel=3", "kernel")],
    )
    def test_train_rejects_non_object_sections(
        self, clusters_csv, tmp_path, capsys, override, section
    ):
        cfg = train_config(tmp_path, clusters_csv)
        rc = main(["train", "--config", cfg, "--set", override])
        assert rc == 1
        assert capsys.readouterr().err == f"error: {section} must be a JSON object\n"
        assert not (tmp_path / "model.json").exists()

    @pytest.mark.parametrize("override", ["data=t.csv", "kernel=3", "output=3"])
    def test_kernel_stats_rejects_non_object_sections(
        self, clusters_csv, tmp_path, capsys, override
    ):
        cfg = write_config(tmp_path, {"data": {"path": str(clusters_csv)}})
        rc = main(["kernel-stats", "--config", cfg, "--set", override])
        assert rc == 1
        section = override.partition("=")[0]
        assert capsys.readouterr().err == f"error: {section} must be a JSON object\n"

    @pytest.mark.parametrize(
        "keys, spec, elsewhere",
        [(cli._DATA, CsvOptions, ()), (cli._SOLVER, SolverConfig, ()),
         (cli._KERNEL, KernelSpec, ()), (cli._MODEL, ModelSpec, ("solver",)),
         (cli._BENCH, ExperimentSpec, ("path", "csv"))],
        ids=["data", "solver", "kernel", "model", "bench"],
    )
    def test_config_keys_are_spec_fields(self, keys, spec, elsewhere):
        # Every key a section passes on (after the rename) is a field of its
        # spec, and every field is reachable: ``elsewhere`` are the fields
        # filled from another section, a model's solver from "solver" and a
        # bench's path and CSV options from "data".
        passed = {cli._FIELDS.get(key, key) for key in keys if key not in cli._OWN}
        fields = {field.name for field in dataclasses.fields(spec)}
        assert passed | set(elsewhere) == fields
        assert not passed & set(elsewhere)

    @pytest.mark.parametrize(
        "command, override, key",
        [("train", "solvr.max_outer=1", "solvr"),
         ("predict", "ouput.predictions=p.csv", "ouput"),
         ("eval", "model={}", "model"),
         ("kernel-stats", 'kernal={"kind": "rbf", "sigma": 1}', "kernal")],
    )
    def test_every_command_rejects_unknown_top_level_keys(
        self, clusters_csv, tmp_path, capsys, command, override, key
    ):
        # A misspelled section is an error that names it, not a section
        # left out and replaced by its defaults.
        cfg = train_config(tmp_path, clusters_csv)
        if command != "train":
            cfg = write_config(tmp_path, {"data": {"path": str(clusters_csv)}})
        rc = main([command, "--config", cfg, "--set", override])
        assert rc == 1
        assert capsys.readouterr().err == f"error: unknown {command} config keys: ['{key}']\n"
        assert not (tmp_path / "model.json").exists()

    @pytest.mark.parametrize(
        "command, override, key",
        [("train", "output.modle=m.json", "modle"),
         ("predict", "output.prediction=p.csv", "prediction"),
         ("eval", "output.metric=m.json", "metric"),
         ("kernel-stats", "output.stat=s.json", "stat"),
         ("bench", "output.dir=out", "dir")],
    )
    def test_every_command_rejects_unknown_output_keys(
        self, clusters_csv, tmp_path, capsys, monkeypatch, command, override, key
    ):
        # A misspelled output key is an error that names it, raised before
        # anything runs, not a file written under its default name.
        monkeypatch.chdir(tmp_path)
        cfg = train_config(tmp_path, clusters_csv)
        if command != "train":
            cfg = write_config(tmp_path, {"data": {"path": str(clusters_csv)}})
        before = set(tmp_path.iterdir())
        rc = main([command, "--config", cfg, "--set", override])
        assert rc == 1
        assert capsys.readouterr().err == f"error: unknown output keys: ['{key}']\n"
        assert set(tmp_path.iterdir()) == before
