"""Eigendecomposition and the shifted positive split."""

import dataclasses
import tracemalloc

import numpy as np
import pytest

import iklogit.spectral
from iklogit import (
    InputError,
    KernelSpec,
    ModelSpec,
    NumericalError,
    decompose_gram,
    fit,
    gram_matrix,
)
from iklogit.kernels import kernel_rows
from iklogit.spectral import perron_bound, positive_decompose, sym_eigendecompose

from conftest import (
    bfactor,
    eigen_kminus,
    eigen_kplus,
    eigenvalues,
    kminus,
    kplus,
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
        with pytest.raises(InputError, match="empty"):
            sym_eigendecompose(np.zeros((0, 0)))
        with pytest.raises(InputError, match="empty"):
            decompose_gram(np.zeros((0, 0)), 1e-6)

    def test_vectors_for_every_spectrum(self):
        for diagonal in ([3.0, 1.0], [3.0, -1.0]):
            vals, vecs = sym_eigendecompose(np.diag(diagonal))
            assert np.allclose(vals, diagonal, atol=1e-14)
            assert np.allclose(np.abs(vecs), np.eye(2), atol=1e-14)


class TestPositiveDecompose:
    def test_hand_worked_two_by_two(self):
        # mu = (5, -2) and tau = 1: rho = tau - mu_n = 3, K+ = diag(8, 1),
        # K- = 3 I.  The paper's eigen split gives diag(6, 1) and diag(1, 3).
        gram = np.diag([5.0, -2.0])
        dec = positive_decompose(gram, tau=1.0)
        assert dec.indefinite and dec.shift == 3.0
        assert np.allclose(kplus(dec), np.diag([8.0, 1.0]), atol=1e-12)
        assert np.allclose(kminus(dec), 3.0 * np.eye(2), atol=1e-12)
        assert np.allclose(eigen_kplus(gram, 1.0), np.diag([6.0, 1.0]), atol=1e-12)
        assert np.allclose(eigen_kminus(gram, 1.0), np.diag([1.0, 3.0]), atol=1e-12)

    def test_stores_only_gram_shift_and_norms(self, rng):
        gram = random_symmetric(rng, 6)
        dec = decompose_gram(gram, 1e-6)
        arrays = {k for k, v in vars(dec).items() if isinstance(v, np.ndarray)}
        assert arrays == {"gram"}
        fields = {f.name for f in dataclasses.fields(dec)}
        assert fields == {"gram", "shift", "spectral_norm", "top_eigenvalue", "indefinite"}
        # The shift and the two norms are read off the extreme eigenvalues.
        vals = np.linalg.eigvalsh(gram)
        assert dec.indefinite and dec.shift == 1e-6 - float(vals[0])
        assert dec.spectral_norm == max(abs(float(vals[0])), abs(float(vals[-1])))
        assert dec.top_eigenvalue == max(float(vals[-1]), 0.0)

    def test_invariants_on_random_matrices(self, rng):
        tau = 1e-6
        for _ in range(20):
            n = int(rng.integers(2, 20))
            gram = random_symmetric(rng, n, scale=float(rng.uniform(0.1, 5.0)))
            dec = decompose_gram(gram, tau)
            vals = eigenvalues(dec)
            assert dec.indefinite == (vals[-1] < 0.0)
            assert np.allclose(kplus(dec) - kminus(dec), gram, atol=1e-10)
            assert np.linalg.eigvalsh(kplus(dec)).min() == pytest.approx(tau, abs=1e-12)
            assert dec.shift == pytest.approx(tau - vals[-1], abs=1e-12)
            assert np.allclose(bfactor(dec).T @ bfactor(dec), kplus(dec), atol=1e-10)
            assert dec.spectral_norm == pytest.approx(max(-vals[-1], vals[0]), rel=1e-12)
            assert dec.top_eigenvalue == pytest.approx(max(vals[0], 0.0), rel=1e-12)

        # PSD Gram, declared or not: K- = tau I.
        rbf_gram = gram_matrix(KernelSpec.rbf(1.0), random_dataset(rng, 12, 3))
        for declared in (False, True):
            psd = decompose_gram(rbf_gram, tau, psd=declared)
            assert not psd.indefinite and psd.shift == tau

    def test_psd_input_gives_tau_scaled_identity_minus_part(self, rng):
        data = random_dataset(rng, 10, 3)
        gram = gram_matrix(KernelSpec.rbf(1.0), data)
        dec = decompose_gram(gram, 0.5)
        assert not dec.indefinite and dec.shift == 0.5
        assert np.array_equal(kminus(dec), 0.5 * np.eye(10))

    def test_tau_must_be_positive(self):
        for psd in (False, True):
            for tau in (0.0, -1.0, np.nan):
                with pytest.raises(InputError):
                    positive_decompose(np.eye(2), tau, psd=psd)

    def test_shape_mismatch_rejected(self):
        # positive_decompose checks the matrix itself, in both modes.
        for psd in (False, True):
            for gram in (np.ones((2, 3)), np.ones(3)):
                with pytest.raises(InputError, match="square"):
                    positive_decompose(gram, 0.1, psd=psd)

    def test_rounding_level_negative_eigenvalue_is_not_indefinite(self):
        # The cut is n eps ||K||_2, an eigensolver's backward error: here
        # 3 eps * 4.  A diagonal K's eigenvalues are exact.
        noise = 3 * np.finfo(np.float64).eps * 4.0
        for low, indefinite in ((-0.5 * noise, False), (-2.0 * noise, True)):
            dec = decompose_gram(np.diag([4.0, 1.0, low]), 0.1)
            assert dec.indefinite == indefinite
            assert dec.shift == (0.1 - low if indefinite else 0.1)
            assert dec.spectral_norm == 4.0 and dec.top_eigenvalue == 4.0

    def test_negative_definite_gram(self):
        # mu_1 < 0: ||K+||_2 = mu_1 + rho is bounded by 0 + rho.
        dec = decompose_gram(np.diag([-1.0, -3.0]), 0.5)
        assert dec.indefinite and dec.shift == 3.5
        assert dec.spectral_norm == 3.0 and dec.top_eigenvalue == 0.0
        assert np.allclose(kplus(dec), np.diag([2.5, 0.5]), atol=1e-15)

    def test_eigensolver_failure_is_a_numerical_error(self, monkeypatch):
        def failing(a):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigvalsh", failing)
        with pytest.raises(NumericalError, match="did not converge"):
            decompose_gram(np.eye(3), 0.1)


class TestEigenvaluesOnly:
    """An undeclared Gram runs one eigvalsh and no eigh, whatever its spectrum."""

    def test_undeclared_psd_gram_runs_one_eigvalsh(self, rng, monkeypatch):
        gram = gram_matrix(KernelSpec.rbf(1.0), random_dataset(rng, 40, 3))
        spectra = []
        eigvalsh = np.linalg.eigvalsh

        def recording_eigvalsh(a):
            result = eigvalsh(a)
            spectra.append(result)
            return result

        def refuse(*args, **kwargs):
            raise AssertionError("eigh called")

        monkeypatch.setattr(np.linalg, "eigvalsh", recording_eigvalsh)
        monkeypatch.setattr(np.linalg, "eigh", refuse)
        tau = 0.25
        dec = decompose_gram(gram, tau)
        assert len(spectra) == 1
        vals = spectra[0]  # ascending
        assert vals[0] >= 0.0
        assert not dec.indefinite and dec.shift == tau
        assert dec.spectral_norm == max(abs(float(vals[-1])), abs(float(vals[0])))
        assert dec.top_eigenvalue == float(vals[-1])

    def test_tl1_fit_runs_no_eigh_and_one_eigvalsh_of_order_n(self, rng, monkeypatch):
        # Working sets take an eigvalsh of order |W| < n/2 for their step;
        # the Gram itself gets one eigvalsh and no eigh.
        shapes = {"eigh": [], "eigvalsh": []}
        for name in shapes:

            def recording(a, *args, _name=name, _solver=getattr(np.linalg, name), **kwargs):
                shapes[_name].append(np.shape(a))
                return _solver(a, *args, **kwargs)

            monkeypatch.setattr(np.linalg, name, recording)
        n = 30
        spec = ModelSpec(variant="l1-riklr", lam=0.5, lam1=0.05, kernel=KernelSpec.tl1())
        fit(spec, random_dataset(rng, n, 3))
        assert shapes["eigh"] == []
        assert shapes["eigvalsh"].count((n, n)) == 1

    def test_indefinite_gram_matches_eigvalsh_bitwise(self, rng):
        for n in (40, 120):
            data = random_dataset(rng, n, 3)
            gram = gram_matrix(KernelSpec.tl1().resolve(3), data)
            vals = np.linalg.eigvalsh(gram)
            assert vals[0] < 0.0
            dec = decompose_gram(gram, 1e-6)
            assert dec.indefinite and dec.shift == 1e-6 - float(vals[0])
            assert dec.spectral_norm == max(abs(float(vals[0])), abs(float(vals[-1])))
            assert dec.top_eigenvalue == max(float(vals[-1]), 0.0)

    @pytest.mark.parametrize(
        "kernel, bound",
        [(KernelSpec.rbf(1.0), 0.9), (KernelSpec.tl1().resolve(3), 0.9)],
        ids=["rbf", "tl1"],
    )
    def test_peak_traced_memory(self, rng, kernel, bound):
        # Allocations of decompose_gram beyond its input, in units of one
        # n x n matrix of doubles: no eigenvector matrix (eigh's took 1, and
        # W added r / n, 1.01 and 1.34 in all on these Grams).  The
        # symmetry check's blocks take about 0.78 here; eigvalsh's copy of
        # K is LAPACK's workspace, which tracemalloc does not see.
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
        assert not dec.indefinite and dec.shift == 0.25
        assert dec.spectral_norm == dec.top_eigenvalue == perron_bound(gram)

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

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("psd", [False, True])
    def test_rejects_non_finite_entries(self, rng, value, psd):
        # One min and one max pass find every NaN and infinity.
        gram = rbf_gram(rng, 7, 1.0)
        gram[2, 5] = gram[5, 2] = value
        with pytest.raises(InputError, match="non-finite"):
            decompose_gram(gram, 1e-6, psd=psd)

    @pytest.mark.parametrize(
        "pair", [(9, 10), (10, 8), (3, 4), (4, 3), (0, 10)],
        ids=["last-block-upper", "last-block-lower", "straddle-upper",
             "straddle-lower", "corner"],
    )
    @pytest.mark.parametrize("psd", [False, True])
    def test_asymmetry_found_in_every_block_pair(self, rng, monkeypatch, pair, psd):
        # n = 11 in blocks of 4 rows: [0, 4), [4, 8) and a short [8, 11).
        monkeypatch.setattr(iklogit.spectral, "SYMMETRY_BLOCK_BYTES", 8 * 11 * 4)
        gram = rbf_gram(rng, 11, 1.0)
        gram[pair] += 1e-6
        with pytest.raises(InputError, match="not symmetric"):
            decompose_gram(gram, 1e-6, psd=psd)

    def test_psd_split_peak_traced_memory(self, rng):
        # The symmetry check works on blocks: no n x n temporary, where
        # K - K^T alone took 8 n^2 bytes.
        n = 600
        gram = rbf_gram(rng, n, 1.0)
        decompose_gram(gram, 1e-6, psd=True)  # first-call allocations stay out
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            decompose_gram(gram, 1e-6, psd=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * n * n / 2

    def test_rejects_non_square_and_empty(self):
        for gram in (np.ones((2, 3)), np.zeros((0, 0))):
            with pytest.raises(InputError):
                decompose_gram(gram, 1e-6, psd=True)
