"""Objective values, DC split identity, gradients, and the proximal map."""

import math

import numpy as np
import pytest

from iklogit import DcObjective, InputError, SolverConfig, decompose_gram
from iklogit.objective import loss_grad, loss_value, sigmoid, soft_threshold
from iklogit.solver import inner_solve, stationarity_residual

from conftest import (
    f_at,
    g_value,
    grad_h_at,
    h_value,
    kminus,
    logistic_loss,
    smooth_grad_g,
    symmetric_objective,
    tl1_objective,
)
from reference_solvers import central_difference_gradient, ref_full_objective


def scalar_objective(gram_value=1.0, y=1.0, lam=1.0, lam1=0.0, tau=1e-6):
    decomp = decompose_gram(np.array([[gram_value]]), tau)
    return DcObjective(decomp=decomp, y_signed=np.array([y]), lam=lam, lam1=lam1)


class TestLogisticLoss:
    def test_zero_alpha_gives_log_two(self, rng):
        obj = tl1_objective(rng)
        assert logistic_loss(obj, np.zeros(obj.n)) == pytest.approx(math.log(2.0), abs=1e-12)

    def test_scalar_unit_score(self):
        obj = scalar_objective()
        loss = logistic_loss(obj, np.array([1.0]))
        assert loss == pytest.approx(0.313262, abs=1e-6)
        assert loss == pytest.approx(math.log1p(math.exp(-1.0)), abs=1e-15)

    def test_perfectly_classified_limit(self):
        obj = scalar_objective()
        assert logistic_loss(obj, np.array([2000.0])) == pytest.approx(0.0, abs=1e-300)

    def test_large_scores_stay_finite(self, rng):
        obj = symmetric_objective(rng, scale=50.0)
        alpha = rng.normal(scale=100.0, size=obj.n)
        assert np.isfinite(logistic_loss(obj, alpha))

    def test_non_finite_alpha_rejected(self, rng):
        obj = tl1_objective(rng)
        with pytest.raises(InputError):
            logistic_loss(obj, np.full(obj.n, np.nan))


# Margins y * s at which the loss and its gradient are checked.
MARGINS = np.array([0.0, 1e-300, -1e-300, 30.0, -30.0, 745.0, -745.0, 1e4, -1e4])
ULPS = 4 * np.finfo(np.float64).eps


class TestLossArithmetic:
    """loss_value and loss_grad against the logaddexp and sigmoid formulas."""

    @pytest.mark.parametrize("y", [1.0, -1.0])
    @pytest.mark.parametrize("margin", MARGINS)
    def test_single_margin(self, margin, y):
        obj = scalar_objective(y=y)
        scores = np.array([y * margin])
        value = loss_value(obj, scores)
        grad = loss_grad(obj, scores)
        assert np.isfinite(value) and np.all(np.isfinite(grad))
        assert np.allclose(value, np.logaddexp(0.0, -margin), rtol=ULPS, atol=0.0)
        # K = [[1]] and n = 1: the gradient is -y sigmoid(-m).
        assert np.allclose(grad, -y * sigmoid(-margin), rtol=ULPS, atol=0.0)

    def test_vector_of_margins(self):
        # K = I: the gradient's entries are the per-margin ones over n.
        n = 2 * MARGINS.size
        y = np.repeat([1.0, -1.0], MARGINS.size)
        margins = np.concatenate([MARGINS, -MARGINS])
        obj = DcObjective(decomp=decompose_gram(np.eye(n), 1e-6), y_signed=y, lam=1.0)
        scores = y * margins
        before = scores.copy()
        value = loss_value(obj, scores)
        grad = loss_grad(obj, scores)
        assert np.array_equal(scores, before)
        assert np.allclose(value, np.logaddexp(0.0, -margins).mean(), rtol=ULPS, atol=0.0)
        assert np.allclose(grad, -(y * sigmoid(-margins)) / n, rtol=ULPS, atol=0.0)
        # Rows of K give the gradient's entries on those rows.
        rows = np.array([1, 4, 12])
        assert np.array_equal(loss_grad(obj, scores, obj.decomp.gram[rows]), grad[rows])


class TestDcSplit:
    def test_values_at_zero(self, rng):
        obj = tl1_objective(rng)
        zero = np.zeros(obj.n)
        assert f_at(obj, zero) == pytest.approx(math.log(2.0), abs=1e-12)
        assert g_value(obj, zero) == pytest.approx(math.log(2.0), abs=1e-12)
        assert h_value(obj, zero) == 0.0

    def test_identity_f_equals_g_minus_h(self, rng):
        for builder in (tl1_objective, symmetric_objective):
            obj = builder(rng)
            for _ in range(100):
                alpha = rng.normal(scale=3.0, size=obj.n)
                f = f_at(obj, alpha)
                assert abs(f - (g_value(obj, alpha) - h_value(obj, alpha))) <= 1e-10 * (
                    1.0 + abs(f)
                )

    def test_f_matches_term_by_term_oracle(self, rng):
        obj = symmetric_objective(rng, n=7)
        for _ in range(5):
            alpha = rng.normal(size=7)
            expected = ref_full_objective(
                obj.decomp.gram, obj.y_signed, obj.lam, obj.lam1, alpha
            )
            assert f_at(obj, alpha) == pytest.approx(expected, rel=1e-12)

    def test_h_on_psd_matrix_is_scaled_norm(self, rng):
        # PSD input forces kminus = tau * I.
        gram = np.eye(4) * 3.0
        decomp = decompose_gram(gram, 0.25)
        obj = DcObjective(decomp, np.array([1.0, -1.0, 1.0, -1.0]), lam=2.0)
        alpha = rng.normal(size=4)
        expected = 0.5 * 2.0 * 0.25 * float(alpha @ alpha)
        assert h_value(obj, alpha) == pytest.approx(expected, rel=1e-12)

    def test_g_and_h_are_convex(self, rng):
        obj = symmetric_objective(rng)
        for _ in range(25):
            a, b = rng.normal(size=(2, obj.n))
            theta = float(rng.uniform(0.05, 0.95))
            mid = theta * a + (1 - theta) * b
            for func in (g_value, h_value):
                lhs = func(obj, mid)
                rhs = theta * func(obj, a) + (1 - theta) * func(obj, b)
                assert lhs <= rhs + 1e-10

    def test_g_is_strongly_convex_with_lam_tau_modulus(self, rng):
        # K+ = K + rho I has no eigenvalue below tau, whatever rho is.
        tau = 0.1
        obj = symmetric_objective(rng, tau=tau)
        shift = 0.5 * obj.lam * tau

        def reduced(alpha):
            return g_value(obj, alpha) - shift * float(alpha @ alpha)

        for _ in range(25):
            a, b = rng.normal(size=(2, obj.n))
            theta = float(rng.uniform(0.05, 0.95))
            mid = theta * a + (1 - theta) * b
            assert reduced(mid) <= theta * reduced(a) + (1 - theta) * reduced(b) + 1e-10


class TestGradients:
    def test_smooth_grad_at_zero_closed_form(self, rng):
        obj = tl1_objective(rng)
        expected = -obj.decomp.gram @ obj.y_signed / (2.0 * obj.n)
        assert np.allclose(smooth_grad_g(obj, np.zeros(obj.n)), expected, atol=1e-14)

    def test_scalar_half_gradient(self):
        # The quadratic term vanishes at zero, isolating the loss gradient.
        obj = scalar_objective()
        assert smooth_grad_g(obj, np.zeros(1))[0] == pytest.approx(-0.5, abs=1e-15)

    def test_smooth_grad_matches_finite_differences(self, rng):
        obj = symmetric_objective(rng, n=9)

        def smooth_part(alpha):
            return g_value(obj, alpha) - obj.lam1 * float(np.abs(alpha).sum())

        for _ in range(20):
            alpha = rng.normal(size=9)
            numeric = central_difference_gradient(smooth_part, alpha)
            analytic = smooth_grad_g(obj, alpha)
            rel = np.linalg.norm(numeric - analytic) / max(np.linalg.norm(analytic), 1e-8)
            assert rel <= 1e-5

    def test_grad_h_matches_finite_differences(self, rng):
        obj = symmetric_objective(rng, n=9)
        for _ in range(20):
            alpha = rng.normal(size=9)
            numeric = central_difference_gradient(lambda a: h_value(obj, a), alpha)
            analytic = grad_h_at(obj, alpha)
            rel = np.linalg.norm(numeric - analytic) / max(np.linalg.norm(analytic), 1e-8)
            assert rel <= 1e-5

    def test_grad_h_closed_form_and_lipschitz(self, rng):
        obj = symmetric_objective(rng)
        assert np.array_equal(grad_h_at(obj, np.zeros(obj.n)), np.zeros(obj.n))
        lip = obj.lam * np.linalg.norm(kminus(obj.decomp), 2)
        for _ in range(50):
            a, b = rng.normal(size=(2, obj.n))
            lhs = np.linalg.norm(grad_h_at(obj, a) - grad_h_at(obj, b))
            assert lhs <= lip * np.linalg.norm(a - b) * (1 + 1e-12)

    def test_grad_h_on_psd_matrix_is_tau_scaling(self, rng):
        decomp = decompose_gram(np.eye(3) * 2.0, 0.5)
        obj = DcObjective(decomp, np.array([1.0, 1.0, -1.0]), lam=3.0)
        alpha = rng.normal(size=3)
        assert np.allclose(grad_h_at(obj, alpha), 3.0 * 0.5 * alpha, atol=1e-12)


class TestSoftThreshold:
    def test_hand_values(self):
        assert soft_threshold(np.array([3.0]), 1.0)[0] == pytest.approx(2.0)
        assert soft_threshold(np.array([-0.5]), 1.0)[0] == 0.0
        assert np.allclose(
            soft_threshold(np.array([2.0, -2.0, 0.0]), 0.5), [1.5, -1.5, 0.0]
        )

    def test_negative_threshold_rejected(self, rng):
        # soft_threshold itself does not check t: the solver checks its
        # threshold step * lam1 once per solve.
        obj = tl1_objective(rng)
        zero = np.zeros(obj.n)
        for step in (-0.1, math.nan):
            with pytest.raises(InputError):
                stationarity_residual(obj, zero, step, zero, zero)
            with pytest.raises(InputError):
                inner_solve(
                    obj, zero, zero, SolverConfig(), step, 1e-8, zero, zero, zero
                )

    def test_clip_form_equals_sign_form(self, rng):
        v = rng.normal(size=1_000_000)
        v[::7] = 0.0
        for t in (0.0, 0.3, 1.0):
            sign_form = np.sign(v) * np.maximum(np.abs(v) - t, 0.0)
            assert np.array_equal(soft_threshold(v, t), sign_form)

    def test_nonexpansive(self, rng):
        for _ in range(50):
            u, v = rng.normal(size=(2, 8))
            t = float(rng.uniform(0, 2))
            assert np.linalg.norm(
                soft_threshold(u, t) - soft_threshold(v, t)
            ) <= np.linalg.norm(u - v) + 1e-12

    def test_minimizes_prox_objective(self, rng):
        v = rng.normal(size=6)
        t = 0.7

        def prox_obj(u):
            return 0.5 * float((u - v) @ (u - v)) + t * float(np.abs(u).sum())

        star = soft_threshold(v, t)
        best = prox_obj(star)
        for _ in range(200):
            assert best <= prox_obj(star + rng.normal(scale=0.1, size=6)) + 1e-12


class TestDcObjectiveValidation:
    def test_from_labels_maps_to_signed(self, rng):
        obj = tl1_objective(rng)
        assert set(np.unique(obj.y_signed)) <= {-1.0, 1.0}

    def test_bad_labels_rejected(self, rng):
        decomp = decompose_gram(np.eye(3), 1e-6)
        with pytest.raises(InputError):
            DcObjective(decomp, np.array([1.0, 0.5, -1.0]), lam=1.0)
        with pytest.raises(InputError):
            DcObjective(decomp, np.array([1.0, -1.0]), lam=1.0)

    def test_bad_weights_rejected(self):
        decomp = decompose_gram(np.eye(2), 1e-6)
        y = np.array([1.0, -1.0])
        with pytest.raises(InputError):
            DcObjective(decomp, y, lam=0.0)
        with pytest.raises(InputError):
            DcObjective(decomp, y, lam=1.0, lam1=-0.5)
