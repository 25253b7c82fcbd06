"""Kernel evaluation, Gram assembly, and dataset plumbing."""

import numpy as np
import pytest

from iklogit import Dataset, InputError, KernelSpec, ResourceError, gram_matrix
from iklogit.kernels import kernel_rows, normalize_binary_labels

from conftest import random_dataset
from reference_solvers import ref_tl1_gram

INVALID_SPECS = [
    {"kind": "poly"},
    {"kind": "tl1", "sigma": 1.0},
    {"kind": "tl1", "eta": -1.0},
    {"kind": "rbf"},
    {"kind": "rbf", "sigma": 0.0},
    {"kind": "rbf", "eta": 1.0, "sigma": 1.0},
    {"kind": "tl1", "eta": "1.4"},
    {"kind": "rbf", "sigma": [1.0]},
    {"kind": "rbf", "sigma": True},
    {"kind": "tl1", "eta": True},
]


class TestKernelEval:
    def test_tl1_identical_points_give_eta(self):
        spec = KernelSpec.tl1(2.1)
        assert kernel_rows(spec, [[1.0, -3.0]], [[1.0, -3.0]])[0, 0] == pytest.approx(2.1)

    def test_tl1_truncates_to_zero_beyond_eta(self):
        spec = KernelSpec.tl1(2.1)
        # L1 distance 3 exceeds eta.
        assert kernel_rows(spec, [[1.5, 1.5]], [[0.0, 0.0]])[0, 0] == 0.0

    def test_tl1_hand_value(self):
        spec = KernelSpec.tl1(2.1)
        value = kernel_rows(spec, [[0.5, 0.5, 0.0]], [[0.0, 0.0, 0.0]])[0, 0]
        assert value == pytest.approx(1.1, abs=1e-12)

    def test_rbf_identical_points_give_one(self):
        spec = KernelSpec.rbf(2.0)
        assert kernel_rows(spec, [[3.0, 4.0]], [[3.0, 4.0]])[0, 0] == pytest.approx(1.0)

    def test_rbf_hand_value(self):
        spec = KernelSpec.rbf(2.0)
        # squared distance 5, sigma^2 = 4
        expected = np.exp(-5.0 / 4.0)
        assert kernel_rows(spec, [[1.0, 2.0]], [[0.0, 0.0]])[0, 0] == pytest.approx(expected)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(InputError):
            kernel_rows(KernelSpec.tl1(1.0), [[0.0, 1.0]], [[0.0]])

    def test_non_finite_rejected(self):
        with pytest.raises(InputError):
            kernel_rows(KernelSpec.tl1(1.0), [[0.0]], [[np.nan]])


class TestKernelSpec:
    def test_default_eta_resolves_to_fraction_of_dimension(self):
        spec = KernelSpec.tl1().resolve(10)
        assert spec.eta == pytest.approx(7.0)

    def test_explicit_eta_survives_resolve(self):
        assert KernelSpec.tl1(2.5).resolve(10).eta == 2.5

    def test_unresolved_eta_rejected_at_eval(self):
        with pytest.raises(InputError, match="unresolved"):
            kernel_rows(KernelSpec.tl1(), [[1.0]], [[0.0]])

    @pytest.mark.parametrize("kwargs", INVALID_SPECS)
    def test_invalid_specs_rejected(self, kwargs):
        with pytest.raises(InputError):
            KernelSpec(**kwargs)

    @pytest.mark.parametrize("payload", INVALID_SPECS)
    def test_invalid_dicts_rejected(self, payload):
        # A parameter of the other kind is an error, not silently dropped.
        with pytest.raises(InputError):
            KernelSpec.from_dict(payload)

    def test_dict_round_trip(self):
        for spec in (KernelSpec.tl1(1.5), KernelSpec.rbf(0.3)):
            assert KernelSpec.from_dict(spec.to_dict()) == spec


class TestGramMatrix:
    def test_matches_pairwise_reference(self, rng):
        data = random_dataset(rng, 17, 4)
        spec = KernelSpec.tl1().resolve(4)
        gram = gram_matrix(spec, data)
        ref = ref_tl1_gram(data.features, spec.eta)
        assert np.allclose(gram, ref, atol=1e-14)

    def test_symmetric_with_eta_diagonal(self, rng):
        data = random_dataset(rng, 12, 3)
        spec = KernelSpec.tl1(2.0)
        gram = gram_matrix(spec, data)
        assert np.array_equal(gram, gram.T)
        assert np.allclose(np.diag(gram), 2.0)

    def test_row_permutation_conjugates_gram(self, rng):
        data = random_dataset(rng, 10, 3)
        spec = KernelSpec.tl1(2.0)
        perm = rng.permutation(10)
        gram = gram_matrix(spec, data)
        gram_perm = gram_matrix(spec, data.subset(perm))
        assert np.allclose(gram_perm, gram[np.ix_(perm, perm)], atol=1e-14)

    def test_rbf_gram_is_psd(self, rng):
        data = random_dataset(rng, 15, 3)
        gram = gram_matrix(KernelSpec.rbf(1.0), data)
        eigvals = np.linalg.eigvalsh(gram)
        assert eigvals.min() >= -1e-10

    def test_memory_cap_enforced(self, rng):
        data = random_dataset(rng, 20, 2)
        with pytest.raises(ResourceError):
            gram_matrix(KernelSpec.tl1(1.0), data, max_bytes=100)


class TestKernelRows:
    def test_against_gram_on_train_points(self, rng):
        data = random_dataset(rng, 9, 3)
        spec = KernelSpec.tl1().resolve(3)
        gram = gram_matrix(spec, data)
        rows = kernel_rows(spec, data, data.features)
        assert np.allclose(rows, gram, atol=1e-14)

    def test_accepts_bare_feature_matrix(self, rng):
        data = random_dataset(rng, 6, 2)
        spec = KernelSpec.rbf(1.0)
        via_dataset = kernel_rows(spec, data, data.features[:2])
        via_matrix = kernel_rows(spec, data.features, data.features[:2])
        assert np.array_equal(via_dataset, via_matrix)

    def test_single_test_point_promoted_to_matrix(self, rng):
        data = random_dataset(rng, 5, 2)
        rows = kernel_rows(KernelSpec.tl1(1.0), data, np.zeros(2))
        assert rows.shape == (1, 5)

    def test_dimension_mismatch_rejected(self, rng):
        data = random_dataset(rng, 5, 3)
        with pytest.raises(InputError):
            kernel_rows(KernelSpec.tl1(1.0), data, np.zeros((2, 4)))

    @pytest.mark.parametrize("kind", ["tl1", "rbf"])
    @pytest.mark.parametrize("m, n", [(3, 11), (11, 3), (7, 7)])
    @pytest.mark.parametrize("d", [3, 40])
    def test_either_orientation_bitwise_equal(self, rng, kind, m, n, d):
        # The loop runs over the shorter side; swapping the sides swaps
        # which one that is, and every entry must come out the same.
        spec = KernelSpec.tl1(2.0 * d) if kind == "tl1" else KernelSpec.rbf(np.sqrt(d))
        a = rng.normal(size=(m, d))
        b = rng.normal(size=(n, d))
        rows = kernel_rows(spec, a, b)
        assert rows.shape == (n, m)
        assert np.array_equal(rows, kernel_rows(spec, b, a).T)
        assert np.count_nonzero(rows) > rows.size // 2


class TestDataset:
    def test_basic_properties(self):
        data = Dataset(np.zeros((3, 2)), np.array([0, 1, 1]))
        assert data.n == 3 and data.d == 2

    def test_subset_preserves_pairing(self, rng):
        data = random_dataset(rng, 8, 2)
        sub = data.subset(np.array([4, 1]))
        assert np.array_equal(sub.features, data.features[[4, 1]])
        assert np.array_equal(sub.labels, data.labels[[4, 1]])

    @pytest.mark.parametrize(
        "features,labels",
        [
            (np.zeros((1, 2)), np.array([0])),
            (np.zeros(3), np.array([0, 1, 0])),
            (np.zeros((3, 2)), np.array([0, 1])),
            (np.zeros((3, 2)), np.array([0, 1, 2])),
            (np.full((2, 2), np.inf), np.array([0, 1])),
        ],
    )
    def test_invalid_inputs_rejected(self, features, labels):
        with pytest.raises(InputError):
            Dataset(features, labels)


class TestLabelNormalization:
    def test_zero_one_passthrough(self):
        assert np.array_equal(
            normalize_binary_labels(np.array([0, 1, 1, 0])), [0, 1, 1, 0]
        )

    def test_signed_mapped_to_zero_one(self):
        assert np.array_equal(
            normalize_binary_labels(np.array([-1, 1, -1])), [0, 1, 0]
        )

    def test_mixed_conventions_rejected(self):
        with pytest.raises(InputError):
            normalize_binary_labels(np.array([-1, 0, 1]))

    def test_out_of_alphabet_rejected(self):
        with pytest.raises(InputError):
            normalize_binary_labels(np.array([0, 2]))
