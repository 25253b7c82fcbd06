"""Model layer: variant specs, fit/predict, serialization."""

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
    predict_label,
    predict_proba,
    save_model,
)
from iklogit.kernels import kernel_rows
from iklogit.model import L1_VARIANTS, SPARSITY_THRESHOLD, VARIANTS, selected_count
from iklogit.objective import f_value
from iklogit.solver import CONVERGED, MAX_ITERATIONS

from conftest import random_dataset
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
        assert selected_count(model) == 0

    def test_zero_l1_weight_is_dense(self, rng):
        data = random_dataset(rng, n=14, d=3)
        model = fit(ModelSpec(variant="iklr", lam=0.5), data)
        assert model.trace.status == CONVERGED
        assert selected_count(model) == data.n

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
        whole = kernel_rows(model.kernel, data, test) @ model.alpha
        # 15 coefficients of 8 bytes: blocks of 7 rows, the last one short.
        monkeypatch.setattr(iklogit.model, "SCORE_BLOCK_BYTES", 7 * 15 * 8)
        assert np.allclose(model.scores(test), whole, rtol=1e-13, atol=1e-15)
        assert model.scores(test[0]).shape == (1,)
        assert model.scores(test[:0]).shape == (0,)

    def test_dimension_mismatch_rejected(self, rng):
        model = zero_score_model(d=2)
        with pytest.raises(InputError):
            predict_proba(model, rng.normal(size=(3, 5)))


class TestSelectedCount:
    def test_frozen_threshold_example(self):
        model = zero_score_model(n=3)
        model.alpha = np.array([1.0, 1e-12, 0.3])
        assert selected_count(model) == 2

    def test_all_zero_alpha(self):
        assert selected_count(zero_score_model(n=5)) == 0

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
            counts.append(selected_count(model))
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
        ours = f_value(obj, model.alpha)
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
        ours = f_value(obj, model.alpha)
        assert abs(ours - ref_value) <= 1e-4 * (1.0 + abs(ref_value))


class TestSerialization:
    def test_round_trip_reproduces_predictions_bitwise(self, rng, tmp_path):
        data = random_dataset(rng, n=12, d=3)
        model = fit(ModelSpec(variant="l1-riklr", lam=0.5, lam1=0.03), data)
        path = tmp_path / "model.json"
        save_model(model, str(path))
        loaded = load_model(str(path))
        assert np.array_equal(loaded.alpha, model.alpha)
        assert np.array_equal(loaded.train_features, model.train_features)
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

    def test_rejects_foreign_json(self, tmp_path):
        path = tmp_path / "other.json"
        path.write_text('{"schema": "something-else"}\n')
        with pytest.raises(InputError, match="not a model file"):
            load_model(str(path))

    def test_rejects_unknown_schema_version(self, rng, tmp_path):
        import json

        data = random_dataset(rng, n=8, d=2)
        model = fit(ModelSpec(variant="klr", lam=1.0), data)
        path = tmp_path / "m.json"
        save_model(model, str(path))
        payload = json.loads(path.read_text())
        payload["schema_version"] = 999
        path.write_text(json.dumps(payload))
        with pytest.raises(InputError, match="schema version"):
            load_model(str(path))
