"""Eigendecomposition and the shifted positive split."""

import dataclasses
import tracemalloc

import numpy as np
import pytest

from iklogit import InputError, KernelSpec, decompose_gram, gram_matrix
from iklogit.spectral import positive_decompose, sym_eigendecompose

from conftest import (
    bfactor,
    kminus,
    kplus,
    num_nonneg,
    random_dataset,
    random_symmetric,
)


class TestSymEigendecompose:
    def test_two_by_two_hand_values(self):
        vals, vecs = sym_eigendecompose(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert np.allclose(vals, [1.0, -1.0], atol=1e-14)
        assert np.allclose(vecs @ np.diag(vals) @ vecs.T, [[0, 1], [1, 0]], atol=1e-14)

    def test_descending_order_on_indefinite_diagonal(self):
        vals, _ = sym_eigendecompose(np.diag([5.0, -2.0, 0.0]))
        assert np.allclose(vals, [5.0, 0.0, -2.0], atol=1e-14)

    def test_reconstruction_and_orthonormality(self, rng):
        for _ in range(10):
            mat = random_symmetric(rng, int(rng.integers(2, 25)))
            vals, vecs = sym_eigendecompose(mat)
            assert np.all(np.diff(vals) <= 1e-14)
            assert np.allclose(vecs @ np.diag(vals) @ vecs.T, mat, atol=1e-10)
            assert np.allclose(vecs.T @ vecs, np.eye(len(mat)), atol=1e-12)

    def test_asymmetric_input_rejected(self):
        mat = np.array([[1.0, 2.0], [2.0 + 1e-6, 1.0]])
        with pytest.raises(InputError, match="not symmetric"):
            sym_eigendecompose(mat)

    def test_non_square_rejected(self):
        with pytest.raises(InputError):
            sym_eigendecompose(np.zeros((2, 3)))

    def test_non_finite_rejected(self):
        with pytest.raises(InputError):
            sym_eigendecompose(np.array([[np.nan, 0.0], [0.0, 1.0]]))

    def test_empty_matrix_rejected(self):
        for vectors_if_negative in (False, True):
            with pytest.raises(InputError, match="empty"):
                sym_eigendecompose(np.zeros((0, 0)), vectors_if_negative=vectors_if_negative)
        with pytest.raises(InputError, match="empty"):
            decompose_gram(np.zeros((0, 0)), 1e-6)

    def test_vectors_only_for_a_negative_spectrum(self):
        vals, vecs = sym_eigendecompose(np.diag([3.0, 1.0]), vectors_if_negative=True)
        assert vecs is None
        assert np.array_equal(vals, [3.0, 1.0])
        vals, vecs = sym_eigendecompose(np.diag([3.0, -1.0]), vectors_if_negative=True)
        assert vecs.shape == (2, 2)
        assert np.allclose(vals, [3.0, -1.0], atol=1e-14)


class TestPositiveDecompose:
    def test_hand_worked_two_by_two(self):
        gram = np.diag([5.0, -2.0])
        vals, vecs = sym_eigendecompose(gram)
        dec = positive_decompose(gram, vals, vecs, tau=1.0)
        assert num_nonneg(dec) == 1
        assert np.allclose(kplus(dec), np.diag([6.0, 1.0]), atol=1e-12)
        assert np.allclose(kminus(dec), np.diag([1.0, 3.0]), atol=1e-12)

    def test_stores_only_gram_spectrum_and_lowrank_factor(self, rng):
        dec = decompose_gram(random_symmetric(rng, 6), 1e-6)
        arrays = {k for k, v in vars(dec).items() if isinstance(v, np.ndarray)}
        assert arrays == {"gram", "eigenvalues", "lowrank"}
        fields = {f.name for f in dataclasses.fields(dec)}
        assert fields == {"gram", "eigenvalues", "tau", "lowrank"}

    def test_invariants_on_random_matrices(self, rng):
        tau = 1e-6
        # Probe vectors come from their own stream so the matrices stay put.
        probe = np.random.default_rng(7)

        def assert_products_match(dec, alpha):
            # K- and K+ are applied through the low-rank factor, never formed.
            kminus_a = dec.kminus_dot(alpha)
            kplus_a = dec.gram @ alpha + kminus_a
            for applied, dense in ((kminus_a, kminus(dec)), (kplus_a, kplus(dec))):
                expected = dense @ alpha
                err = np.linalg.norm(applied - expected)
                assert err <= 1e-10 * np.linalg.norm(expected)

        for _ in range(20):
            n = int(rng.integers(2, 20))
            gram = random_symmetric(rng, n, scale=float(rng.uniform(0.1, 5.0)))
            dec = decompose_gram(gram, tau)
            assert np.allclose(kplus(dec) - kminus(dec), gram, atol=1e-10)
            assert np.linalg.eigvalsh(kplus(dec)).min() == pytest.approx(tau, abs=1e-12)
            assert np.linalg.eigvalsh(kminus(dec)).min() == pytest.approx(tau, abs=1e-12)
            assert np.allclose(bfactor(dec).T @ bfactor(dec), kplus(dec), atol=1e-10)
            assert num_nonneg(dec) == int(np.sum(dec.eigenvalues >= 0))
            assert dec.lowrank.shape == (n, n - num_nonneg(dec))
            assert_products_match(dec, probe.normal(size=n))

        # PSD Gram: no negative eigenpairs, so K- = tau I.
        rbf_gram = gram_matrix(KernelSpec.rbf(1.0), random_dataset(rng, 12, 3))
        psd = decompose_gram(rbf_gram, tau)
        assert psd.lowrank.shape == (12, 0)
        assert_products_match(psd, probe.normal(size=12))

    def test_psd_input_gives_tau_scaled_identity_minus_part(self, rng):
        data = random_dataset(rng, 10, 3)
        gram = gram_matrix(KernelSpec.rbf(1.0), data)
        dec = decompose_gram(gram, 0.5)
        if num_nonneg(dec) == 10:
            assert np.allclose(kminus(dec), 0.5 * np.eye(10), atol=1e-10)

    def test_tau_must_be_positive(self):
        gram = np.eye(2)
        vals, vecs = sym_eigendecompose(gram)
        for tau in (0.0, -1.0, np.nan):
            with pytest.raises(InputError):
                positive_decompose(gram, vals, vecs, tau)

    def test_unsorted_eigenvalues_rejected(self):
        gram = np.diag([1.0, 2.0])
        with pytest.raises(InputError, match="descending"):
            positive_decompose(gram, np.array([1.0, 2.0]), np.eye(2), tau=0.1)

    def test_shape_mismatch_rejected(self):
        gram = np.eye(3)
        with pytest.raises(InputError):
            positive_decompose(gram, np.ones(2), np.eye(3), tau=0.1)


def full_eigh_split(gram):
    """Eigenvalues and W from a full eigh: the reference for indefinite Grams."""
    vals, vecs = np.linalg.eigh(gram)
    vals, vecs = vals[::-1].copy(), vecs[:, ::-1].copy()
    neg = vals < 0.0
    return vals, vecs[:, neg] * np.sqrt(-vals[neg])


class TestEigenvaluesOnly:
    """Eigenvectors are computed only when the Gram has a negative eigenvalue."""

    def test_psd_gram_runs_no_eigh(self, rng, monkeypatch):
        gram = gram_matrix(KernelSpec.rbf(1.0), random_dataset(rng, 40, 3))
        calls = []
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda a: calls.append(1) or eigh(a))
        tau = 0.25
        dec = decompose_gram(gram, tau)
        assert calls == []
        assert dec.lowrank.shape == (40, 0)
        assert np.array_equal(dec.eigenvalues, np.linalg.eigvalsh(gram)[::-1])
        alpha = rng.normal(size=40)
        assert np.array_equal(dec.kminus_dot(alpha), tau * alpha)

    def test_indefinite_gram_matches_full_eigh_bitwise(self, rng):
        for n in (40, 120):
            data = random_dataset(rng, n, 3)
            gram = gram_matrix(KernelSpec.tl1().resolve(3), data)
            vals, factor = full_eigh_split(gram)
            assert np.any(vals < 0.0)
            dec = decompose_gram(gram, 1e-6)
            assert np.array_equal(dec.eigenvalues, vals)
            assert np.array_equal(dec.lowrank, factor)

    def test_missing_eigenvectors_rejected_for_negative_spectrum(self):
        gram = np.diag([2.0, -1.0])
        with pytest.raises(InputError, match="eigenvectors"):
            positive_decompose(gram, np.array([2.0, -1.0]), None, tau=0.1)
        dec = positive_decompose(np.diag([2.0, 0.0]), np.array([2.0, 0.0]), None, tau=0.1)
        assert dec.lowrank.shape == (2, 0)

    @pytest.mark.parametrize(
        "kernel, bound",
        [(KernelSpec.rbf(1.0), 1.25), (KernelSpec.tl1().resolve(3), 1.6)],
        ids=["rbf", "tl1"],
    )
    def test_peak_traced_memory(self, rng, kernel, bound):
        # Allocations of decompose_gram beyond its input, in units of one
        # n x n matrix of doubles: eigenvectors for every Gram take about 2.
        n = 300
        gram = gram_matrix(kernel, random_dataset(rng, n, 3))
        decompose_gram(gram, 1e-6)  # first-call allocations stay out
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            decompose_gram(gram, 1e-6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound * 8 * n * n
