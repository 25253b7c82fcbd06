"""Model layer: variant specs, fit/predict, serialization."""

import dataclasses
import json

import numpy as np
import pytest

import iklogit.model
from iklogit import (
    Dataset,
    DcObjective,
    FittedModel,
    InputError,
    KernelSpec,
    ModelSpec,
    SolverConfig,
    decompose_gram,
    fit,
    gram_matrix,
    load_model,
    pla_fit,
    predict_label,
    predict_proba,
    save_model,
)
from iklogit.kernels import kernel_rows
from iklogit.model import L1_VARIANTS, SPARSITY_THRESHOLD, VARIANTS
from iklogit.solver import CONVERGED, MAX_ITERATIONS

from conftest import benchmark_data, f_at, random_dataset
from reference_solvers import ref_klr_solve, ref_l1_klr_solve


def zero_score_model(n=3, d=2):
    """A hand-built model whose scores are identically zero."""
    return FittedModel(
        alpha=np.zeros(n),
        train_features=np.zeros((n, d)),
        kernel=KernelSpec.rbf(1.0),
        variant="klr",
        lam=1.0,
        lam1=0.0,
        tau=1e-6,
    )


def v1_payload(model):
    """A model file as schema 1 wrote it: every training row, no d."""
    return {
        "schema": "iklogit-model",
        "schema_version": 1,
        "variant": model.variant,
        "kernel": model.kernel.to_dict(),
        "lambda": model.lam,
        "lambda1": model.lam1,
        "tau": model.tau,
        "sparsity_threshold": model.sparsity_threshold,
        "alpha": model.alpha.tolist(),
        "train_features": model.train_features.tolist(),
    }


def sparse_model(rng):
    """A fitted model with both zero and nonzero coefficients."""
    data = random_dataset(rng, n=15, d=3)
    model = fit(ModelSpec(variant="l1-riklr", lam=0.3, lam1=0.02), data)
    assert 0 < np.count_nonzero(model.alpha) < data.n
    return model


class TestModelSpec:
    def test_variant_names(self):
        assert VARIANTS == ("klr", "l1-rklr", "iklr", "l1-riklr")
        assert L1_VARIANTS == ("l1-rklr", "l1-riklr")

    def test_variant_case_insensitive(self):
        spec = ModelSpec(variant="L1-RIKLR", lam=1.0, lam1=0.1)
        assert spec.variant == "l1-riklr"
        assert spec.is_l1

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(variant="nope", lam=1.0),
            dict(variant="klr", lam=0.0),
            dict(variant="klr", lam=-1.0),
            dict(variant="klr", lam=np.nan),
            dict(variant="l1-rklr", lam=1.0, lam1=-0.1),
            dict(variant="klr", lam=1.0, tau=0.0),
            dict(variant="klr", lam=1.0, tau=-1e-6),
            dict(variant="klr", lam="1.0"),
            dict(variant="l1-rklr", lam=1.0, lam1=None),
            dict(variant="klr", lam=1.0, tau="1e-6"),
            dict(variant="klr", lam=True),
            dict(variant="klr", lam=1.0, tau=True),
        ],
    )
    def test_rejects_bad_parameters(self, kwargs):
        with pytest.raises(InputError):
            ModelSpec(**kwargs)

    @pytest.mark.parametrize("variant", ["klr", "iklr"])
    def test_l1_weight_forbidden_on_plain_variants(self, variant):
        # Non-L1 variants require lambda1 = 0 exactly.
        with pytest.raises(InputError, match="does not take an L1 term"):
            ModelSpec(variant=variant, lam=1.0, lam1=0.01)
        ModelSpec(variant=variant, lam=1.0, lam1=0.0)

    @pytest.mark.parametrize("variant", ["klr", "l1-rklr"])
    def test_default_kernel_rbf_for_psd_variants(self, variant):
        kernel = ModelSpec(variant=variant, lam=1.0).effective_kernel(d=7)
        assert kernel.kind == "rbf"
        assert kernel.sigma == 1.0

    @pytest.mark.parametrize("variant", ["iklr", "l1-riklr"])
    def test_default_kernel_tl1_for_indefinite_variants(self, variant):
        kernel = ModelSpec(variant=variant, lam=1.0).effective_kernel(d=7)
        assert kernel.kind == "tl1"
        assert kernel.eta == pytest.approx(0.7 * 7)

    def test_explicit_kernel_overrides_default(self):
        spec = ModelSpec(variant="iklr", lam=1.0, kernel=KernelSpec.rbf(2.0))
        assert spec.effective_kernel(d=3) == KernelSpec.rbf(2.0)
        spec = ModelSpec(variant="klr", lam=1.0, kernel=KernelSpec.tl1(1.5))
        assert spec.effective_kernel(d=3) == KernelSpec.tl1(1.5)


class TestFittedModelInvariants:
    def test_support_matches_threshold_exactly(self):
        model = zero_score_model(n=4)
        model.alpha = np.array([1.0, 1e-12, -0.3, 0.0])
        assert model.support.tolist() == [0, 2]

    def test_rejects_non_finite_alpha(self):
        with pytest.raises(InputError, match="finite"):
            FittedModel(
                alpha=np.array([1.0, np.nan]),
                train_features=np.zeros((2, 1)),
                kernel=KernelSpec.rbf(1.0),
                variant="klr",
                lam=1.0,
                lam1=0.0,
                tau=1e-6,
            )

    @pytest.mark.parametrize(
        "features",
        [
            [[0.0, 1.0], [np.nan, 2.0]],
            [[0.0, 1.0], [2.0, np.inf]],
            [[0.0, 1.0], [2.0]],
            [0.0, 1.0],
            [["a", 1.0], [0.0, 1.0]],
        ],
    )
    def test_rejects_malformed_train_features(self, features):
        # Row 1 has a zero coefficient, so scoring never reads it; the model
        # is still rejected.
        with pytest.raises(InputError, match="train_features"):
            FittedModel(
                alpha=np.array([1.0, 0.0]),
                train_features=features,
                kernel=KernelSpec.rbf(1.0),
                variant="klr",
                lam=1.0,
                lam1=0.0,
                tau=1e-6,
            )

    def test_rejects_length_mismatch(self):
        with pytest.raises(InputError, match="length"):
            FittedModel(
                alpha=np.ones(3),
                train_features=np.zeros((2, 1)),
                kernel=KernelSpec.rbf(1.0),
                variant="klr",
                lam=1.0,
                lam1=0.0,
                tau=1e-6,
            )


class TestFit:
    def test_pipeline_attaches_trace_and_invariants(self, rng):
        data = random_dataset(rng, n=16, d=3)
        spec = ModelSpec(variant="l1-riklr", lam=0.5, lam1=0.05)
        model = fit(spec, data)
        assert model.alpha.shape == (16,)
        assert model.train_features.shape == (16, 3)
        assert model.kernel.kind == "tl1"
        assert model.kernel.eta == pytest.approx(0.7 * 3)
        assert model.trace is not None
        assert model.trace.status in (CONVERGED, MAX_ITERATIONS)
        # The retained matrix is a copy, not a view of the caller's data.
        assert not np.shares_memory(model.train_features, data.features)

    def test_single_class_rejected(self, rng):
        features = rng.normal(size=(6, 2))
        data = Dataset(features, np.ones(6, dtype=int))
        with pytest.raises(InputError, match="both classes"):
            fit(ModelSpec(variant="klr", lam=1.0), data)

    def test_dominant_l1_weight_gives_empty_support(self, rng):
        data = random_dataset(rng, n=12, d=3)
        kernel = KernelSpec.tl1().resolve(3)
        gram = gram_matrix(kernel, data)
        y_signed = 2.0 * data.labels - 1.0
        # lambda1 above the loss-gradient sup norm at the origin pins
        # the zero critical point.
        needed = float(np.max(np.abs(gram @ y_signed))) / (2 * data.n)
        spec = ModelSpec(variant="l1-riklr", lam=0.5, lam1=1.1 * needed)
        model = fit(spec, data)
        assert np.all(model.alpha == 0.0)
        assert model.support.size == 0

    def test_zero_l1_weight_is_dense(self, rng):
        data = random_dataset(rng, n=14, d=3)
        model = fit(ModelSpec(variant="iklr", lam=0.5), data)
        assert model.trace.status == CONVERGED
        assert model.support.size == data.n

    def test_max_iteration_run_still_returns_model(self, rng):
        data = random_dataset(rng, n=10, d=2)
        spec = ModelSpec(
            variant="iklr", lam=0.5, solver=SolverConfig(max_outer=1)
        )
        model = fit(spec, data)
        assert model.trace.status == MAX_ITERATIONS
        assert model.alpha.shape == (10,)


class TestPredict:
    def test_zero_alpha_probability_half(self, rng):
        model = zero_score_model()
        test = rng.normal(size=(5, 2))
        probs = predict_proba(model, test)
        assert np.all(probs == 0.5)

    def test_unit_score_frozen_value(self):
        # One training point, RBF, alpha = 1: the score at the training
        # point itself is exactly 1, so p = e/(1+e).
        model = FittedModel(
            alpha=np.array([1.0]),
            train_features=np.array([[0.5, -0.5]]),
            kernel=KernelSpec.rbf(1.0),
            variant="klr",
            lam=1.0,
            lam1=0.0,
            tau=1e-6,
        )
        p = predict_proba(model, np.array([[0.5, -0.5]]))
        assert abs(p[0] - 0.7310585786300049) <= 1e-15

    def test_far_point_zero_tl1_row_probability_half(self):
        model = FittedModel(
            alpha=np.array([2.0, -1.0]),
            train_features=np.array([[0.0, 0.0], [1.0, 0.0]]),
            kernel=KernelSpec.tl1(1.4),
            variant="iklr",
            lam=1.0,
            lam1=0.0,
            tau=1e-6,
        )
        # L1 distance beyond eta on both rows truncates the kernel to 0.
        p = predict_proba(model, np.array([[100.0, 100.0]]))
        assert p[0] == 0.5
        assert predict_label(model, np.array([[100.0, 100.0]]))[0] == 1

    def test_probabilities_open_interval_under_huge_scores(self):
        model = FittedModel(
            alpha=np.array([1e5, -1e5]),
            train_features=np.array([[0.0], [10.0]]),
            kernel=KernelSpec.rbf(1.0),
            variant="klr",
            lam=1.0,
            lam1=0.0,
            tau=1e-6,
        )
        probs = predict_proba(model, np.array([[0.0], [10.0]]))
        assert np.all(probs > 0.0)
        assert np.all(probs < 1.0)

    def test_tie_score_maps_to_one(self, rng):
        model = zero_score_model()
        labels = predict_label(model, rng.normal(size=(4, 2)))
        assert np.all(labels == 1)

    def test_negative_score_maps_to_zero(self):
        model = FittedModel(
            alpha=np.array([-1.0]),
            train_features=np.array([[0.0]]),
            kernel=KernelSpec.rbf(1.0),
            variant="klr",
            lam=1.0,
            lam1=0.0,
            tau=1e-6,
        )
        assert predict_label(model, np.array([[0.0]]))[0] == 0
        assert predict_proba(model, np.array([[0.0]]))[0] < 0.5

    def test_label_equals_sign_rule_on_fitted_models(self, rng):
        data = random_dataset(rng, n=15, d=3)
        model = fit(ModelSpec(variant="l1-riklr", lam=0.3, lam1=0.02), data)
        test = rng.normal(size=(40, 3))
        labels = predict_label(model, test)
        scores = model.scores(test)
        probs = predict_proba(model, test)
        assert np.array_equal(labels, (scores >= 0.0).astype(int))
        assert np.array_equal(labels == 1, probs >= 0.5)

    def test_scores_in_row_blocks_match_one_block(self, rng, monkeypatch):
        data = random_dataset(rng, n=15, d=3)
        model = fit(ModelSpec(variant="l1-riklr", lam=0.3, lam1=0.02), data)
        test = rng.normal(size=(40, 3))
        whole = kernel_rows(model.kernel, data.features, test) @ model.alpha
        nonzero = np.count_nonzero(model.alpha)
        assert 3 < nonzero < 15
        # A block row holds one 8-byte value per nonzero coefficient (more
        # than d = 3): blocks of 7 rows, the last one short.
        monkeypatch.setattr(iklogit.model, "SCORE_BLOCK_BYTES", 7 * nonzero * 8)
        assert np.allclose(model.scores(test), whole, rtol=1e-13, atol=1e-15)
        assert model.scores(test[0]).shape == (1,)
        assert model.scores(test[:0]).shape == (0,)

    def test_score_blocks_sized_by_support_not_features(self, rng, monkeypatch):
        # Two nonzero coefficients, d = 10: a block row holds the 2 kernel
        # values of its support, so blocks of 3 rows take 3 * 2 * 8 bytes;
        # the 10 features do not count.
        model = FittedModel(
            alpha=np.array([0.5, 0.0, -1.0, 0.0]),
            train_features=rng.normal(size=(4, 10)),
            kernel=KernelSpec.rbf(3.0),
            variant="klr",
            lam=1.0,
            lam1=0.0,
            tau=1e-6,
        )
        test = rng.normal(size=(10, 10))
        whole = model.scores(test)
        blocks = []

        def recording_kernel_rows(spec, train, tests):
            blocks.append(len(tests))
            return kernel_rows(spec, train, tests)

        monkeypatch.setattr(iklogit.model, "kernel_rows", recording_kernel_rows)
        monkeypatch.setattr(iklogit.model, "SCORE_BLOCK_BYTES", 3 * 2 * 8)
        assert np.array_equal(model.scores(test), whole)
        assert blocks == [3, 3, 3, 1]
        # An all-zero alpha scores one value per row: blocks of 6 rows.
        blocks.clear()
        model.alpha = np.zeros(4)
        assert np.array_equal(model.scores(test), np.zeros(10))
        assert blocks == [6, 4]

    def test_dimension_mismatch_rejected(self, rng):
        model = zero_score_model(d=2)
        with pytest.raises(InputError):
            predict_proba(model, rng.normal(size=(3, 5)))

    def test_all_zero_alpha_still_checks_test_rows(self, rng):
        model = zero_score_model(d=2)
        with pytest.raises(InputError, match="dimension"):
            model.scores(np.zeros((3, 5)))
        with pytest.raises(InputError, match="non-finite"):
            predict_proba(model, np.array([[0.0, 1.0], [np.nan, 0.0]]))
        with pytest.raises(InputError, match="non-finite"):
            predict_label(model, np.array([[np.inf, 1.0]]))
        assert np.array_equal(model.scores(rng.normal(size=(4, 2))), np.zeros(4))

    def test_zero_coefficient_rows_are_never_read(self, rng):
        alpha = np.array([0.7, 0.0, -1.2, -0.0, 0.4])
        model = FittedModel(
            alpha=alpha,
            train_features=rng.normal(size=(5, 3)),
            kernel=KernelSpec.tl1(4.0),
            variant="iklr",
            lam=1.0,
            lam1=0.0,
            tau=1e-6,
        )
        test = rng.normal(size=(30, 3))
        full = kernel_rows(model.kernel, model.train_features, test) @ alpha
        before = model.scores(test)
        assert np.count_nonzero(before) > 20
        assert np.allclose(before, full, rtol=1e-13, atol=1e-15)
        model.train_features[[1, 3]] = rng.normal(size=(2, 3)) * 100.0
        assert np.array_equal(model.scores(test), before)
        # Written in place, past the constructor's finiteness check.
        model.train_features[[1, 3]] = np.nan
        assert np.array_equal(model.scores(test), before)


class TestSelectedCount:
    def test_frozen_threshold_example(self):
        model = zero_score_model(n=3)
        model.alpha = np.array([1.0, 1e-12, 0.3])
        assert model.support.size == 2

    def test_all_zero_alpha(self):
        assert zero_score_model(n=5).support.size == 0

    def test_threshold_monotonicity(self, rng):
        alpha = rng.normal(size=20) * 10.0 ** rng.integers(-12, 1, size=20)
        counts = []
        for threshold in [0.0, 1e-12, 1e-10, 1e-6, 1e-2, 1.0]:
            model = FittedModel(
                alpha=alpha,
                train_features=np.zeros((20, 2)),
                kernel=KernelSpec.rbf(1.0),
                variant="klr",
                lam=1.0,
                lam1=0.0,
                tau=1e-6,
                sparsity_threshold=threshold,
            )
            counts.append(model.support.size)
        assert counts == sorted(counts, reverse=True)

    def test_default_threshold_value(self):
        assert SPARSITY_THRESHOLD == 1e-10
        assert zero_score_model().sparsity_threshold == 1e-10


class TestConvexReduction:
    """With a PSD Gram the DC machinery must land on the convex optimum."""

    def test_matches_direct_convex_solve_without_l1(self, rng):
        data = random_dataset(rng, n=20, d=3)
        kernel = KernelSpec.rbf(1.0)
        spec = ModelSpec(
            variant="klr",
            lam=0.5,
            kernel=kernel,
            solver=SolverConfig(epsilon_outer=1e-7),
        )
        model = fit(spec, data)
        gram = gram_matrix(kernel, data)
        y_signed = 2.0 * data.labels - 1.0
        _, ref_value = ref_klr_solve(gram, y_signed, 0.5)
        obj = DcObjective.from_labels(decompose_gram(gram, spec.tau), data.labels, 0.5, 0.0)
        ours = f_at(obj, model.alpha)
        assert abs(ours - ref_value) <= 1e-4 * (1.0 + abs(ref_value))

    def test_matches_direct_convex_solve_with_l1(self, rng):
        data = random_dataset(rng, n=18, d=3)
        kernel = KernelSpec.rbf(1.5)
        spec = ModelSpec(
            variant="l1-rklr",
            lam=0.3,
            lam1=0.02,
            kernel=kernel,
            solver=SolverConfig(epsilon_outer=1e-7),
        )
        model = fit(spec, data)
        gram = gram_matrix(kernel, data)
        y_signed = 2.0 * data.labels - 1.0
        _, ref_value = ref_l1_klr_solve(gram, y_signed, 0.3, 0.02)
        obj = DcObjective.from_labels(
            decompose_gram(gram, spec.tau), data.labels, 0.3, 0.02
        )
        ours = f_at(obj, model.alpha)
        assert abs(ours - ref_value) <= 1e-4 * (1.0 + abs(ref_value))


class TestPsdByKernel:
    """An RBF fit declares its Gram PSD: no eigensolver runs."""

    @staticmethod
    def refuse_eigensolvers(monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("eigensolver called")

        monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
        monkeypatch.setattr(np.linalg, "eigh", refuse)

    @pytest.mark.parametrize("variant, lam1", [("klr", 0.0), ("l1-rklr", 0.01)])
    def test_rbf_fit_runs_no_eigensolver(self, rng, monkeypatch, variant, lam1):
        data = random_dataset(rng, n=40, d=3)
        self.refuse_eigensolvers(monkeypatch)
        model = fit(ModelSpec(variant=variant, lam=0.5, lam1=lam1), data)
        assert model.trace.status == CONVERGED

    def test_tl1_fit_keeps_the_eigensolver(self, rng, monkeypatch):
        data = random_dataset(rng, n=20, d=3)
        self.refuse_eigensolvers(monkeypatch)
        with pytest.raises(AssertionError, match="eigensolver called"):
            fit(ModelSpec(variant="l1-riklr", lam=0.5, lam1=0.01), data)

    def test_matches_the_eigensolver_path_on_a_flat_gram(self):
        # sigma = 100 makes K nearly all ones: eigvalsh reports 41
        # eigenvalues of at least -1.0e-14, far inside n eps ||K||_2 =
        # 8.9e-12.  They are rounding: the undeclared split gets rho = tau
        # exactly and is not marked indefinite, so it differs from the
        # declared one only in its norms, eigvalsh's against the power
        # bound's.  With the declared norms it fits bitwise alike.
        data = benchmark_data(0, 200)
        gram = gram_matrix(KernelSpec.rbf(100.0), data)
        undeclared = decompose_gram(gram, 1e-6)
        declared = decompose_gram(gram, 1e-6, psd=True)
        assert undeclared.shift == declared.shift == 1e-6
        assert not undeclared.indefinite and not declared.indefinite
        assert np.array_equal(undeclared.gram, declared.gram)
        assert undeclared.spectral_norm == pytest.approx(declared.spectral_norm, rel=1e-14)
        renormed = dataclasses.replace(
            undeclared, spectral_norm=declared.spectral_norm,
            top_eigenvalue=declared.top_eigenvalue,
        )
        runs = []
        for decomp in (undeclared, renormed, declared):
            obj = DcObjective.from_labels(decomp, data.labels, 1.0, 0.01)
            runs.append(pla_fit(obj, SolverConfig()))
        (a_eig, t_eig), (a_ren, t_ren), (a_psd, t_psd) = runs
        assert t_psd.status == t_eig.status == CONVERGED
        assert not any(t_eig.extrapolated) and not any(t_psd.extrapolated)
        assert np.array_equal(a_ren, a_psd)
        assert t_ren.inner_iterations == t_psd.inner_iterations
        assert all(np.array_equal(a, b) for a, b in zip(t_ren.iterates, t_psd.iterates))
        # Its own norms move only the last bits.
        assert t_psd.num_iterations == t_eig.num_iterations
        assert t_psd.inner_iterations == t_eig.inner_iterations
        support = [np.flatnonzero(np.abs(a) > SPARSITY_THRESHOLD) for a in (a_eig, a_psd)]
        assert np.array_equal(*support)
        f_eig, f_psd = t_eig.f_values[-1], t_psd.f_values[-1]
        assert abs(f_psd - f_eig) <= 1e-10 * abs(f_eig)


class TestSerialization:
    def test_round_trip_reproduces_predictions_bitwise(self, rng, tmp_path):
        data = random_dataset(rng, n=12, d=3)
        model = fit(ModelSpec(variant="l1-riklr", lam=0.5, lam1=0.03), data)
        path = tmp_path / "model.json"
        save_model(model, str(path))
        loaded = load_model(str(path))
        nonzero = np.flatnonzero(model.alpha)
        assert np.array_equal(loaded.alpha, model.alpha[nonzero])
        assert np.array_equal(loaded.train_features, model.train_features[nonzero])
        assert loaded.kernel == model.kernel
        assert loaded.variant == model.variant
        assert loaded.lam == model.lam
        assert loaded.lam1 == model.lam1
        assert loaded.tau == model.tau
        assert loaded.sparsity_threshold == model.sparsity_threshold
        assert loaded.trace is None
        test = rng.normal(size=(25, 3))
        assert np.array_equal(predict_proba(loaded, test), predict_proba(model, test))
        assert np.array_equal(predict_label(loaded, test), predict_label(model, test))

    def test_rbf_model_round_trip(self, rng, tmp_path):
        data = random_dataset(rng, n=10, d=2)
        model = fit(ModelSpec(variant="klr", lam=1.0), data)
        path = tmp_path / "m.json"
        save_model(model, str(path))
        loaded = load_model(str(path))
        test = rng.normal(size=(8, 2))
        assert np.array_equal(loaded.scores(test), model.scores(test))

    def test_file_stores_only_nonzero_rows(self, rng, tmp_path):
        model = sparse_model(rng)
        path = tmp_path / "m.json"
        save_model(model, str(path))
        payload = json.loads(path.read_text())
        nonzero = np.flatnonzero(model.alpha)
        assert payload["schema_version"] == 2
        assert payload["d"] == 3
        assert payload["alpha"] == model.alpha[nonzero].tolist()
        assert payload["train_features"] == model.train_features[nonzero].tolist()
        loaded = load_model(str(path))
        assert loaded.support.size == model.support.size
        test = rng.normal(size=(40, 3))
        assert np.array_equal(loaded.scores(test), model.scores(test))
        assert np.array_equal(predict_proba(loaded, test), predict_proba(model, test))
        assert np.array_equal(predict_label(loaded, test), predict_label(model, test))

    def test_schema_1_file_loads_and_predicts_bitwise(self, rng, tmp_path):
        model = sparse_model(rng)
        path = tmp_path / "v1.json"
        path.write_text(json.dumps(v1_payload(model)) + "\n")
        loaded = load_model(str(path))
        assert np.array_equal(loaded.alpha, model.alpha)
        assert np.array_equal(loaded.train_features, model.train_features)
        test = rng.normal(size=(40, 3))
        assert np.array_equal(loaded.scores(test), model.scores(test))
        assert np.array_equal(predict_proba(loaded, test), predict_proba(model, test))
        assert np.array_equal(predict_label(loaded, test), predict_label(model, test))

    def test_all_zero_alpha_round_trip_keeps_width(self, rng, tmp_path):
        model = zero_score_model(n=3, d=2)
        path = tmp_path / "m.json"
        save_model(model, str(path))
        payload = json.loads(path.read_text())
        assert (payload["alpha"], payload["train_features"]) == ([], [])
        loaded = load_model(str(path))
        assert loaded.train_features.shape == (0, 2)
        assert np.array_equal(loaded.scores(rng.normal(size=(4, 2))), np.zeros(4))
        with pytest.raises(InputError, match="dimension"):
            loaded.scores(np.zeros((3, 5)))
        with pytest.raises(InputError, match="non-finite"):
            predict_proba(loaded, np.array([[0.0, 1.0], [np.nan, 0.0]]))
        with pytest.raises(InputError, match="non-finite"):
            predict_label(loaded, np.array([[np.inf, 1.0]]))

    @pytest.mark.parametrize("bad_row", [[float("nan"), 0.0, 0.0], [1.0, 2.0]])
    def test_rejects_malformed_train_row(self, rng, tmp_path, bad_row):
        model = sparse_model(rng)
        path = tmp_path / "m.json"
        save_model(model, str(path))
        payload = json.loads(path.read_text())
        payload["train_features"][0] = bad_row
        path.write_text(json.dumps(payload))
        with pytest.raises(InputError, match="train_features"):
            load_model(str(path))

    @pytest.mark.parametrize("bad_row", [[float("nan"), 0.0, 0.0], [1.0, 2.0]])
    def test_rejects_malformed_schema_1_row(self, rng, tmp_path, bad_row):
        # Schema 1 stores every row; a zero-coefficient row is never scored
        # but is still checked.
        model = sparse_model(rng)
        payload = v1_payload(model)
        zero = int(np.flatnonzero(model.alpha == 0.0)[0])
        payload["train_features"][zero] = bad_row
        path = tmp_path / "m.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(InputError, match="train_features"):
            load_model(str(path))

    def test_rejects_rows_of_another_width_than_d(self, rng, tmp_path):
        model = sparse_model(rng)
        path = tmp_path / "m.json"
        save_model(model, str(path))
        payload = json.loads(path.read_text())
        payload["d"] = 4
        path.write_text(json.dumps(payload))
        with pytest.raises(InputError, match="d = 4"):
            load_model(str(path))

    @pytest.mark.parametrize(
        "key, value, message",
        [
            pytest.param("alpha", None, "lacks the key 'alpha'", id="no-alpha"),
            pytest.param("kernel", None, "lacks the key 'kernel'", id="no-kernel"),
            pytest.param("d", None, "lacks the key 'd'", id="no-d"),
            pytest.param("d", "3", "d must be a positive integer", id="string-d"),
            pytest.param("kernel", 5, "kernel must be a JSON object", id="number-kernel"),
            pytest.param(
                "kernel", {"kind": "rbf", "sigma": "1.0"}, "sigma", id="string-sigma"
            ),
            pytest.param(
                "kernel", {"kind": "rbf", "sigma": True}, "sigma", id="bool-sigma"
            ),
            pytest.param("lambda", "1.0", "lam must be a finite", id="string-lambda"),
            pytest.param(
                "sparsity_threshold", "0", "sparsity_threshold must be",
                id="string-threshold",
            ),
            pytest.param("variant", "svm", "unknown variant", id="unknown-variant"),
        ],
    )
    def test_malformed_payload_raises_input_error(
        self, tmp_path, key, value, message
    ):
        # An all-zero alpha stores no row, so d alone gives the width.
        path = tmp_path / "m.json"
        save_model(zero_score_model(n=3, d=2), str(path))
        payload = json.loads(path.read_text())
        if value is None:
            del payload[key]
        else:
            payload[key] = value
        path.write_text(json.dumps(payload))
        with pytest.raises(InputError, match=message):
            load_model(str(path))

    @pytest.mark.parametrize("text", ["[1, 2]\n", '{"schema": \n'], ids=["list", "cut"])
    def test_rejects_non_object_or_non_json_file(self, tmp_path, text):
        path = tmp_path / "m.json"
        path.write_text(text)
        with pytest.raises(InputError, match="model file|not a model file"):
            load_model(str(path))

    def test_rejects_foreign_json(self, tmp_path):
        path = tmp_path / "other.json"
        path.write_text('{"schema": "something-else"}\n')
        with pytest.raises(InputError, match="not a model file"):
            load_model(str(path))

    def test_rejects_unknown_schema_version(self, rng, tmp_path):
        data = random_dataset(rng, n=8, d=2)
        model = fit(ModelSpec(variant="klr", lam=1.0), data)
        path = tmp_path / "m.json"
        save_model(model, str(path))
        payload = json.loads(path.read_text())
        payload["schema_version"] = 999
        path.write_text(json.dumps(payload))
        with pytest.raises(InputError, match="schema version"):
            load_model(str(path))
