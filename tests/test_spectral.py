"""Eigendecomposition and the shifted positive split."""

import numpy as np
import pytest

from iklogit import InputError, KernelSpec, decompose_gram, gram_matrix
from iklogit.spectral import positive_decompose, sym_eigendecompose

from conftest import random_dataset, random_symmetric


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


class TestPositiveDecompose:
    def test_hand_worked_two_by_two(self):
        gram = np.diag([5.0, -2.0])
        vals, vecs = sym_eigendecompose(gram)
        dec = positive_decompose(gram, vals, vecs, tau=1.0)
        assert dec.num_nonneg == 1
        assert np.allclose(dec.kplus, np.diag([6.0, 1.0]), atol=1e-12)
        assert np.allclose(dec.kminus, np.diag([1.0, 3.0]), atol=1e-12)

    def test_invariants_on_random_matrices(self, rng):
        tau = 1e-6
        # Probe vectors come from their own stream so the matrices stay put.
        probe = np.random.default_rng(7)

        def assert_products_match(dec, alpha):
            # K- and K+ are applied through the low-rank factor, never formed.
            kminus_a = dec.kminus_dot(alpha)
            kplus_a = dec.gram @ alpha + kminus_a
            for applied, dense in ((kminus_a, dec.kminus), (kplus_a, dec.kplus)):
                expected = dense @ alpha
                err = np.linalg.norm(applied - expected)
                assert err <= 1e-10 * np.linalg.norm(expected)

        for _ in range(20):
            n = int(rng.integers(2, 20))
            gram = random_symmetric(rng, n, scale=float(rng.uniform(0.1, 5.0)))
            dec = decompose_gram(gram, tau)
            assert np.allclose(dec.kplus - dec.kminus, gram, atol=1e-10)
            assert np.linalg.eigvalsh(dec.kplus).min() == pytest.approx(tau, abs=1e-12)
            assert np.linalg.eigvalsh(dec.kminus).min() == pytest.approx(tau, abs=1e-12)
            assert np.allclose(dec.bfactor.T @ dec.bfactor, dec.kplus, atol=1e-10)
            assert dec.num_nonneg == int(np.sum(dec.eigenvalues >= 0))
            assert dec.lowrank.shape == (n, n - dec.num_nonneg)
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
        if dec.num_nonneg == 10:
            assert np.allclose(dec.kminus, 0.5 * np.eye(10), atol=1e-10)

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
