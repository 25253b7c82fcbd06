"""Ingestion, splits, CV selection, and the benchmark protocol."""

import json
import re
import warnings

import numpy as np
import pytest

from iklogit import (
    ConfigError, Dataset, InputError, NumericalError, ParseError, SolverConfig,
)
from iklogit.experiment import (
    CsvOptions,
    ExperimentSpec,
    ReportRow,
    _stratified_folds,
    accuracy,
    cv_select,
    format_results_table,
    format_stats_table,
    half_split,
    ingest_csv,
    read_features,
    rows_to_records,
    run_experiment,
)

from conftest import separated_dataset, write_csv


class TestIngestCsv:
    def test_three_row_file(self, tmp_path):
        path = tmp_path / "tiny.csv"
        path.write_text("1.0,2.0,0\n3.0,4.0,1\n5.0,6.0,1\n")
        data = ingest_csv(str(path))
        assert data.n == 3
        assert data.d == 2
        assert data.labels.tolist() == [0, 1, 1]
        assert np.array_equal(data.features, [[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])

    def test_signed_labels_normalized(self, tmp_path):
        path = tmp_path / "signed.csv"
        path.write_text("1,2,-1\n3,4,1\n5,6,-1\n")
        data = ingest_csv(str(path))
        assert data.labels.tolist() == [0, 1, 0]

    def test_row_order_and_values_preserved(self, rng, tmp_path):
        features = rng.normal(size=(9, 4))
        labels = rng.integers(0, 2, size=9)
        labels[:2] = [0, 1]
        path = tmp_path / "round.csv"
        write_csv(path, features, labels)
        data = ingest_csv(str(path))
        assert np.array_equal(data.features, features)
        assert np.array_equal(data.labels, labels)

    def test_non_numeric_cell_located(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1,2,0\n3,oops,1\n")
        with pytest.raises(ParseError, match=r"line 2, column 2.*not numeric.*'oops'"):
            ingest_csv(str(path))

    def test_ragged_row_located(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("1,2,0\n3,4\n")
        with pytest.raises(ParseError, match=r"line 2: expected 3 fields, got 2"):
            ingest_csv(str(path))

    def test_missing_file_names_path(self, tmp_path):
        path = tmp_path / "absent.csv"
        with pytest.raises(InputError, match="cannot read dataset file"):
            ingest_csv(str(path))

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("\n\n")
        with pytest.raises(ParseError, match="no data rows"):
            ingest_csv(str(path))

    def test_label_column_required(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("1,2\n")
        with pytest.raises(ConfigError, match="label column is required"):
            ingest_csv(str(path), CsvOptions(label_column=None))

    def test_label_column_out_of_range(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("1,2,0\n3,4,1\n")
        with pytest.raises(ConfigError, match="out of range"):
            ingest_csv(str(path), CsvOptions(label_column=5))

    def test_label_only_file_rejected(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("0\n1\n")
        with pytest.raises(ConfigError, match="feature column"):
            ingest_csv(str(path))

    def test_fractional_labels_rejected(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("1,0.5\n2,1\n")
        with pytest.raises(InputError, match="labels must be integers"):
            ingest_csv(str(path))

    def test_out_of_set_labels_rejected(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("1,0\n2,2\n")
        with pytest.raises(InputError):
            ingest_csv(str(path))

    def test_header_and_delimiter(self, tmp_path):
        path = tmp_path / "h.csv"
        path.write_text("a;b;label\n1;2;0\n3;4;1\n")
        data = ingest_csv(str(path), CsvOptions(delimiter=";", has_header=True))
        assert data.n == 2
        assert data.labels.tolist() == [0, 1]

    def test_first_column_labels(self, tmp_path):
        path = tmp_path / "f.csv"
        path.write_text("0,10,20\n1,30,40\n")
        data = ingest_csv(str(path), CsvOptions(label_column=0))
        assert data.labels.tolist() == [0, 1]
        assert np.array_equal(data.features, [[10.0, 20.0], [30.0, 40.0]])

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "b.csv"
        path.write_text("1,2,0\n\n3,4,1\n\n")
        assert ingest_csv(str(path)).n == 2

    def test_standardize_centers_and_scales(self, rng, tmp_path):
        features = rng.normal(5.0, 3.0, size=(40, 3))
        features[:, 2] = 7.0  # constant column: centered only
        labels = rng.integers(0, 2, size=40)
        labels[:2] = [0, 1]
        path = tmp_path / "s.csv"
        write_csv(path, features, labels)
        data = ingest_csv(str(path), CsvOptions(standardize=True))
        assert np.allclose(data.features.mean(axis=0), 0.0, atol=1e-12)
        assert np.allclose(data.features[:, :2].std(axis=0), 1.0, atol=1e-12)
        assert np.all(data.features[:, 2] == 0.0)


class TestReadFeatures:
    def test_whole_matrix_when_no_label_column(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("1,2\n3,4\n")
        mat = read_features(str(path), CsvOptions(label_column=None))
        assert np.array_equal(mat, [[1.0, 2.0], [3.0, 4.0]])

    def test_drops_configured_label_column(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("1,2,0\n3,4,1\n")
        mat = read_features(str(path))
        assert np.array_equal(mat, [[1.0, 2.0], [3.0, 4.0]])


class TestHalfSplit:
    def test_haberman_sized_split(self, rng):
        features = rng.normal(size=(306, 3))
        labels = np.concatenate([np.zeros(225, dtype=int), np.ones(81, dtype=int)])
        data = Dataset(features, labels)
        train, test = half_split(data, seed=0)
        assert (train.n, test.n) == (153, 153)

    def test_ceiling_rule_odd_n(self, rng):
        features = rng.normal(size=(5, 2))
        data = Dataset(features, np.array([0, 0, 1, 1, 1]))
        train, test = half_split(data, seed=3)
        assert (train.n, test.n) == (3, 2)

    def test_deterministic_in_seed(self, rng):
        data = separated_dataset(rng, n=30)
        t1, e1 = half_split(data, seed=42)
        t2, e2 = half_split(data, seed=42)
        assert np.array_equal(t1.features, t2.features)
        assert np.array_equal(e1.labels, e2.labels)
        t3, _ = half_split(data, seed=43)
        assert not np.array_equal(t1.features, t3.features)

    def test_partition_of_rows(self, rng):
        # Feature column 0 is a unique row id; the halves must partition it.
        n = 21
        features = np.column_stack([np.arange(n, dtype=float), rng.normal(size=n)])
        labels = (np.arange(n) % 2).astype(int)
        train, test = half_split(Dataset(features, labels), seed=7)
        ids = np.concatenate([train.features[:, 0], test.features[:, 0]])
        assert sorted(ids.tolist()) == list(range(n))

    def test_stratification_balances_classes(self, rng):
        features = rng.normal(size=(40, 2))
        labels = np.concatenate([np.zeros(10, dtype=int), np.ones(30, dtype=int)])
        train, test = half_split(Dataset(features, labels), seed=5)
        assert np.sum(train.labels == 0) == 5
        assert np.sum(test.labels == 0) == 5
        assert np.sum(train.labels == 1) == 15

    def test_odd_class_counts_within_one(self, rng):
        features = rng.normal(size=(16, 2))
        labels = np.concatenate([np.zeros(7, dtype=int), np.ones(9, dtype=int)])
        train, test = half_split(Dataset(features, labels), seed=11)
        assert (train.n, test.n) == (8, 8)
        for cls, total in [(0, 7), (1, 9)]:
            got = int(np.sum(train.labels == cls))
            assert abs(got - total / 2) <= 0.5

    def test_single_sample_class_falls_back(self, rng):
        features = rng.normal(size=(6, 2))
        labels = np.array([1, 0, 0, 0, 0, 0])
        with pytest.warns(UserWarning, match="single sample"):
            train, test = half_split(Dataset(features, labels), seed=1)
        assert (train.n, test.n) == (3, 3)

    def test_too_small_rejected(self, rng):
        data = Dataset(rng.normal(size=(3, 2)), np.array([0, 1, 1]))
        with pytest.raises(InputError, match="n >= 4"):
            half_split(data, seed=0)


class TestStratifiedFolds:
    def test_balanced_partition(self):
        labels = np.array([0] * 5 + [1] * 5)
        folds = _stratified_folds(labels, 5, np.random.default_rng(0))
        assert len(folds) == 5
        all_rows = np.sort(np.concatenate(folds))
        assert np.array_equal(all_rows, np.arange(10))
        for fold in folds:
            assert fold.size == 2
            assert set(labels[fold]) == {0, 1}

    def test_more_folds_than_rows_rejected(self):
        with pytest.raises(InputError, match="folds"):
            _stratified_folds(np.array([0, 1]), 3, np.random.default_rng(0))


class TestCvSelect:
    def base_spec(self, tmp_path, **kwargs):
        # cv_select never opens the file; the path is manifest metadata.
        defaults = dict(path=str(tmp_path / "unused.csv"), cv_folds=2)
        defaults.update(kwargs)
        return ExperimentSpec(**defaults)

    def test_single_point_grid(self, rng, tmp_path):
        spec = self.base_spec(tmp_path, grid=(0.1,))
        train = separated_dataset(rng, n=12)
        chosen = cv_select(spec, "iklr", train, seed=0)
        assert chosen == {"lambda": 0.1, "lambda1": 0.0, "sigma": None}

    def test_tie_breaks_toward_larger_lambda1_then_lambda(self, monkeypatch, tmp_path, rng):
        # Constant CV accuracy forces the declared tie order to decide.
        monkeypatch.setattr("iklogit.experiment.fit", lambda spec, data: object())
        monkeypatch.setattr("iklogit.experiment.accuracy", lambda model, data: 0.7)
        spec = self.base_spec(tmp_path, grid=(0.01, 1.0))
        train = separated_dataset(rng, n=12)
        chosen = cv_select(spec, "l1-riklr", train, seed=0)
        assert chosen == {"lambda": 1.0, "lambda1": 1.0, "sigma": None}

    def test_tie_breaks_toward_larger_sigma(self, monkeypatch, tmp_path, rng):
        monkeypatch.setattr("iklogit.experiment.fit", lambda spec, data: object())
        monkeypatch.setattr("iklogit.experiment.accuracy", lambda model, data: 0.5)
        spec = self.base_spec(tmp_path, grid=(0.5, 2.0))
        train = separated_dataset(rng, n=12)
        chosen = cv_select(spec, "klr", train, seed=0)
        assert chosen == {"lambda": 2.0, "lambda1": 0.0, "sigma": 2.0}

    def test_failing_grid_point_scores_zero(self, monkeypatch, tmp_path, rng):
        real_fit = __import__("iklogit.model", fromlist=["fit"]).fit

        def flaky_fit(spec, data):
            if spec.lam == 10.0:
                raise NumericalError("synthetic failure")
            return real_fit(spec, data)

        monkeypatch.setattr("iklogit.experiment.fit", flaky_fit)
        spec = self.base_spec(tmp_path, grid=(0.1, 10.0))
        train = separated_dataset(rng, n=12)
        with pytest.warns(UserWarning, match="failed during CV"):
            chosen = cv_select(spec, "iklr", train, seed=0)
        assert chosen["lambda"] == 0.1

    def test_unexpected_fold_error_propagates(self, monkeypatch, tmp_path, rng):
        def broken_fit(spec, data):
            raise RuntimeError("bug in a fold fit")

        monkeypatch.setattr("iklogit.experiment.fit", broken_fit)
        spec = self.base_spec(tmp_path, grid=(0.1, 10.0))
        train = separated_dataset(rng, n=12)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(RuntimeError, match="bug in a fold fit"):
                cv_select(spec, "iklr", train, seed=0)

    def test_deterministic_choice(self, rng, tmp_path):
        spec = self.base_spec(tmp_path, grid=(0.1, 1.0))
        train = separated_dataset(rng, n=14)
        first = cv_select(spec, "l1-riklr", train, seed=9)
        second = cv_select(spec, "l1-riklr", train, seed=9)
        assert first == second


class TestExperimentSpecValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(variants=("klr", "bogus")),
            dict(variants=()),
            dict(grid=()),
            dict(grid=(0.1, -1.0)),
            dict(grid=(0.1, np.inf)),
            dict(repeats=0),
            dict(cv_folds=1),
            dict(tau=0),
            dict(repeats=True),
            dict(repeats=2.5),
            dict(cv_folds=2.5),
            dict(base_seed=-1),
            dict(base_seed=1.5),
            dict(grid=(True,)),
            dict(grid=("1",)),
            dict(variants="klr"),
            dict(name=3),
        ],
    )
    def test_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            ExperimentSpec(path="x.csv", **kwargs)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(has_header="false"),
            dict(standardize=1),
            dict(label_column=True),
            dict(delimiter=5),
            dict(delimiter=""),
            dict(delimiter=";;"),
        ],
    )
    def test_csv_options_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            CsvOptions(**kwargs)

    def test_dataset_name_defaults_to_stem(self):
        assert ExperimentSpec(path="/tmp/haberman.csv").dataset_name == "haberman"
        assert ExperimentSpec(path="x.csv", name="custom").dataset_name == "custom"

    def test_variants_lowercased(self):
        spec = ExperimentSpec(path="x.csv", variants=("IKLR",))
        assert spec.variants == ("iklr",)


class TestRunExperiment:
    def tiny_spec(self, rng, tmp_path, **kwargs):
        data = separated_dataset(rng, n=20)
        path = tmp_path / "clusters.csv"
        write_csv(path, data.features, data.labels)
        defaults = dict(
            path=str(path),
            variants=("iklr", "l1-riklr"),
            grid=(0.1, 1.0),
            repeats=2,
            cv_folds=2,
        )
        defaults.update(kwargs)
        return ExperimentSpec(**defaults)

    def test_protocol_end_to_end(self, rng, tmp_path):
        spec = self.tiny_spec(rng, tmp_path)
        rows = run_experiment(spec)
        assert [r.variant for r in rows] == ["iklr", "l1-riklr"]
        for row in rows:
            assert row.dataset == "clusters"
            assert (row.n, row.d) == (20, 2)
            assert row.eig_min <= row.eig_max
            assert np.isfinite(row.eig_min) and np.isfinite(row.eig_max)
            assert row.failed_repeats == []
            assert len(row.accuracies) == 2
            assert all(0.0 <= a <= 1.0 for a in row.accuracies)
            # Separated clusters are easy; anything below 0.9 means breakage.
            assert row.mean_accuracy >= 0.9
            assert all(s <= 10 for s in row.selected)
            assert len(row.chosen) == 2
        dense = rows[0]
        assert all(s == 10 for s in dense.selected)

    def test_bitwise_deterministic_reports(self, rng, tmp_path):
        spec = self.tiny_spec(rng, tmp_path)
        first = json.dumps(rows_to_records(run_experiment(spec)))
        second = json.dumps(rows_to_records(run_experiment(spec)))
        assert first == second

    def test_single_repeat_zero_std(self, rng, tmp_path):
        spec = self.tiny_spec(rng, tmp_path, repeats=1, variants=("iklr",))
        rows = run_experiment(spec)
        assert rows[0].accuracy_std == 0.0
        assert len(rows[0].accuracies) == 1

    def test_failed_repeats_flagged_and_excluded(self, rng, tmp_path, monkeypatch):
        spec = self.tiny_spec(rng, tmp_path, repeats=3, variants=("iklr",))
        real_half_split = half_split

        def flaky_split(data, seed):
            if seed == 1:
                raise NumericalError("synthetic repeat failure")
            return real_half_split(data, seed)

        monkeypatch.setattr("iklogit.experiment.half_split", flaky_split)
        with pytest.warns(UserWarning, match="repeat 1 of iklr failed"):
            rows = run_experiment(spec)
        row = rows[0]
        assert row.failed_repeats == [1]
        assert len(row.accuracies) == 2
        assert len(row.chosen) == 2

    def test_scored_model_at_max_iterations_warns(self, rng, tmp_path):
        # Two outer steps cannot converge: every scored model is kept and
        # named in a warning with its final stationarity residual.
        spec = self.tiny_spec(rng, tmp_path, variants=("klr",),
                              solver=SolverConfig(max_outer=2))
        pattern = (r"repeat {} of klr: the scored model stopped at max_iterations "
                   r"\(final stationarity residual [0-9][0-9.e+-]*\)")
        with pytest.warns(UserWarning) as caught:
            rows = run_experiment(spec)
        messages = [str(w.message) for w in caught]
        for r in (0, 1):
            assert any(re.fullmatch(pattern.format(r), m) for m in messages), messages
        assert rows[0].failed_repeats == []
        assert len(rows[0].accuracies) == 2

    def test_converged_scored_models_do_not_warn(self, rng, tmp_path):
        spec = self.tiny_spec(rng, tmp_path)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            run_experiment(spec)
        assert not [w for w in caught if "max_iterations" in str(w.message)]

    def test_accuracy_helper(self, rng):
        data = separated_dataset(rng, n=10)

        class Stub:
            def scores(self, features):
                return np.where(features[:, 0] > 0, 1.0, -1.0)

        from iklogit.model import FittedModel, KernelSpec

        model = FittedModel(
            alpha=np.zeros(10),
            train_features=data.features,
            kernel=KernelSpec.tl1(1.0),
            variant="iklr",
            lam=1.0,
            lam1=0.0,
            tau=1e-6,
        )
        model.alpha = np.zeros(10)
        # Zero model predicts all ones: accuracy is the class-1 fraction.
        assert accuracy(model, data) == np.mean(data.labels == 1)


class TestReports:
    def sample_rows(self):
        row = ReportRow(
            dataset="demo",
            n=20,
            d=2,
            eig_min=-0.25,
            eig_max=9.5,
            variant="iklr",
            mean_accuracy=0.91,
            accuracy_std=0.02,
            mean_selected=10.0,
            chosen=[{"lambda": 0.1, "lambda1": 0.0, "sigma": None}],
            accuracies=[0.9, 0.92],
            selected=[10, 10],
            failed_repeats=[],
        )
        flagged = ReportRow(
            dataset="demo",
            n=20,
            d=2,
            eig_min=-0.25,
            eig_max=9.5,
            variant="l1-riklr",
            mean_accuracy=0.88,
            accuracy_std=0.03,
            mean_selected=4.0,
            chosen=[{"lambda": 1.0, "lambda1": 0.1, "sigma": None}],
            accuracies=[0.88],
            selected=[4],
            failed_repeats=[1],
        )
        return [row, flagged]

    def test_stats_table_layout(self):
        text = format_stats_table(self.sample_rows())
        lines = text.splitlines()
        assert "dataset" in lines[0] and "eig_min" in lines[0]
        assert len(lines) == 2  # one dataset, deduplicated
        assert "demo" in lines[1]
        assert "-0.25" in lines[1]

    def test_results_table_layout(self):
        text = format_results_table(self.sample_rows())
        lines = text.splitlines()
        assert "iklr" in lines[0] and "l1-riklr" in lines[0]
        assert "0.910 +/- 0.020 (10)" in lines[1]
        assert "0.880 +/- 0.030 (4)!" in lines[1]
        assert any("failed repeats [1]" in line for line in lines[2:])

    def test_records_json_ready(self):
        text = json.dumps(rows_to_records(self.sample_rows()))
        parsed = json.loads(text)
        assert parsed[0]["variant"] == "iklr"
        assert parsed[1]["failed_repeats"] == [1]
