"""Eigendecomposition and the shifted positive split."""

import dataclasses
import tracemalloc

import numpy as np
import pytest

import iklogit.spectral
from iklogit import InputError, KernelSpec, decompose_gram, gram_matrix
from iklogit.kernels import kernel_rows
from iklogit.spectral import perron_bound, positive_decompose, sym_eigendecompose

from conftest import (
    bfactor,
    eigenvalues,
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
        gram = random_symmetric(rng, 6)
        dec = decompose_gram(gram, 1e-6)
        arrays = {k for k, v in vars(dec).items() if isinstance(v, np.ndarray)}
        assert arrays == {"gram", "lowrank"}
        fields = {f.name for f in dataclasses.fields(dec)}
        assert fields == {"gram", "tau", "lowrank", "spectral_norm", "top_eigenvalue"}
        # The two norms are the step bound's, read off the eigenvalues.
        vals, _ = sym_eigendecompose(gram, vectors_if_negative=True)
        assert dec.spectral_norm == max(abs(float(vals[0])), abs(float(vals[-1])))
        assert dec.top_eigenvalue == max(float(vals[0]), 0.0)

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
            vals = eigenvalues(dec)
            assert dec.spectral_norm == pytest.approx(max(-vals[-1], vals[0]), rel=1e-12)
            assert dec.lowrank.shape == (n, n - num_nonneg(dec))
            assert_products_match(dec, probe.normal(size=n))

        # PSD Gram: no negative eigenpairs, so K- = tau I.
        rbf_gram = gram_matrix(KernelSpec.rbf(1.0), random_dataset(rng, 12, 3))
        for declared in (False, True):
            psd = decompose_gram(rbf_gram, tau, psd=declared)
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
        vals, vecs = sym_eigendecompose(gram, vectors_if_negative=True)
        assert calls == [] and vecs is None
        assert np.array_equal(vals, np.linalg.eigvalsh(gram)[::-1])
        assert dec.spectral_norm == dec.top_eigenvalue == vals[0]
        alpha = rng.normal(size=40)
        assert np.array_equal(dec.kminus_dot(alpha), tau * alpha)

    def test_indefinite_gram_matches_full_eigh_bitwise(self, rng):
        for n in (40, 120):
            data = random_dataset(rng, n, 3)
            gram = gram_matrix(KernelSpec.tl1().resolve(3), data)
            vals, factor = full_eigh_split(gram)
            assert np.any(vals < 0.0)
            dec = decompose_gram(gram, 1e-6)
            assert np.array_equal(sym_eigendecompose(gram, vectors_if_negative=True)[0], vals)
            assert np.array_equal(dec.lowrank, factor)
            assert dec.spectral_norm == max(abs(float(vals[0])), abs(float(vals[-1])))
            assert dec.top_eigenvalue == max(float(vals[0]), 0.0)

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


def rbf_gram(rng, n, sigma, d=3):
    """RBF Gram of n standard normal points; n = 1 is allowed."""
    x = rng.normal(size=(n, d))
    return kernel_rows(KernelSpec.rbf(sigma), x, x)


class TestPsdDeclared:
    """decompose_gram(psd=True): no eigensolver, ||K||_2 from perron_bound."""

    @pytest.mark.parametrize("n", [1, 2, 80, 500])
    @pytest.mark.parametrize("sigma", [1e-4, 0.01, 1.0, 10.0, 100.0])
    def test_bound_is_within_rounding_above_top_eigenvalue(self, rng, n, sigma):
        gram = rbf_gram(rng, n, sigma)
        mu1 = float(np.linalg.eigvalsh(gram)[-1])
        bound = perron_bound(gram)
        # eigvalsh is itself off by a few ulps of ||K||: on a near-identity
        # Gram (sigma = 0.01, n = 500) it returns 1 + 6 ulps for a Perron
        # root that rounds to 1.
        assert bound >= mu1 * (1.0 - 16 * np.finfo(float).eps)
        assert bound <= mu1 * (1.0 + 1e-12)

    def test_identity_gives_exactly_one(self):
        assert perron_bound(np.eye(7)) == 1.0
        dec = decompose_gram(np.eye(7), 0.5, psd=True)
        assert dec.spectral_norm == dec.top_eigenvalue == 1.0

    def test_capped_run_still_bounds_from_above(self, rng, monkeypatch):
        gram = rbf_gram(rng, 80, 1.0)
        mu1 = float(np.linalg.eigvalsh(gram)[-1])
        converged = perron_bound(gram)
        monkeypatch.setattr(iklogit.spectral, "PERRON_MAX_ITER", 2)
        capped = perron_bound(gram)
        assert capped > converged * (1.0 + 1e-6)  # the cap stopped it early
        assert capped >= mu1

    def test_underflowing_entries_keep_the_bound_finite(self):
        # Two clusters of identical points, weakly coupled, converge slowly;
        # an isolated point's entry of v shrinks by about 100x per step and
        # would reach 0, and 0/0 would make the bound NaN.
        gram = np.zeros((200, 200))
        gram[:100, :100] = gram[100:199, 100:199] = 1.0
        gram[:100, 100:199] = gram[100:199, :100] = 1e-3
        gram[199, 199] = 1.0
        mu1 = float(np.linalg.eigvalsh(gram)[-1])
        bound = perron_bound(gram)
        assert mu1 <= bound <= 1.001 * mu1

    def test_split_has_no_negative_part_and_runs_no_eigensolver(self, rng, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("eigensolver called")

        gram = rbf_gram(rng, 30, 1.0)
        monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
        monkeypatch.setattr(np.linalg, "eigh", refuse)
        dec = decompose_gram(gram, 0.25, psd=True)
        assert dec.lowrank.shape == (30, 0)
        assert dec.spectral_norm == dec.top_eigenvalue == perron_bound(gram)
        alpha = rng.normal(size=30)
        assert np.array_equal(dec.kminus_dot(alpha), 0.25 * alpha)

    @pytest.mark.parametrize(
        "entries, match",
        [
            ({(0, 1): -0.1, (1, 0): -0.1}, "negative"),
            ({(2, 2): np.nan}, "non-finite"),
            ({(0, 1): 2.0}, "not symmetric"),
            ({(3, 3): 0.0}, "positive diagonal"),
        ],
        ids=["negative-entry", "nan", "asymmetric", "zero-diagonal"],
    )
    def test_rejects_what_the_bound_cannot_take(self, rng, entries, match):
        gram = rbf_gram(rng, 6, 1.0)
        for index, value in entries.items():
            gram[index] = value
        with pytest.raises(InputError, match=match):
            decompose_gram(gram, 1e-6, psd=True)

    def test_rejects_non_square_and_empty(self):
        for gram in (np.ones((2, 3)), np.zeros((0, 0))):
            with pytest.raises(InputError):
                decompose_gram(gram, 1e-6, psd=True)

    def test_eigenvectors_without_eigenvalues_rejected(self):
        with pytest.raises(InputError, match="eigenvalues"):
            positive_decompose(np.eye(2), None, np.eye(2), tau=0.1)
