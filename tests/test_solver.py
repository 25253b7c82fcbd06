"""Inner solver, outer PLA loop, residuals, and the rate monitor."""

import numpy as np
import pytest

from iklogit import (
    DcObjective,
    InputError,
    NumericalError,
    SolverConfig,
    decompose_gram,
    pla_fit,
    rate_monitor,
)
from iklogit.objective import f_value, grad_h, smooth_grad_g
from iklogit.solver import (
    CONVERGED,
    MAX_ITERATIONS,
    RATE_DEGENERATE,
    RATE_INSUFFICIENT,
    RATE_OK,
    SolveTrace,
    inner_solve,
    smooth_lipschitz_bound,
    stationarity_residual,
)
from iklogit.spectral import GramDecomposition

from conftest import symmetric_objective, tl1_objective
from reference_solvers import ref_inner_objective, ref_inner_prox_gradient


def dominant_lam1_objective(rng, n=8, lam=0.3):
    """Objective whose L1 weight absorbs the loss gradient at the origin."""
    obj = tl1_objective(rng, n=n, lam=lam, lam1=0.0)
    needed = float(np.max(np.abs(obj.decomp.gram @ obj.y_signed))) / (2 * n)
    return DcObjective(obj.decomp, obj.y_signed, lam=lam, lam1=1.1 * needed)


class TestLipschitzBound:
    def test_hand_value_identity_gram(self):
        # n=1, K=[1], lam=1, tau=0, gamma=1: 1/4 + 1 + 1.
        decomp = GramDecomposition(
            gram=np.eye(1),
            eigenvalues=np.array([1.0]),
            eigenvectors=np.eye(1),
            tau=0.0,
        )
        obj = DcObjective(decomp, np.array([1.0]), lam=1.0)
        assert smooth_lipschitz_bound(obj, gamma=1.0) == pytest.approx(2.25, abs=1e-15)

    def test_limit_is_loss_curvature_term(self, rng):
        obj = symmetric_objective(rng, lam=1e-12, lam1=0.0)
        spec_norm = max(abs(obj.decomp.eigenvalues[0]), abs(obj.decomp.eigenvalues[-1]))
        expected = spec_norm**2 / (4.0 * obj.n)
        assert smooth_lipschitz_bound(obj, gamma=1e12) == pytest.approx(expected, rel=1e-9)

    def test_bounds_observed_gradient_ratios(self, rng):
        obj = symmetric_objective(rng)
        gamma = 0.7
        anchor = rng.normal(size=obj.n)
        omega = grad_h(obj, anchor)
        bound = smooth_lipschitz_bound(obj, gamma)

        def phi_grad(alpha):
            return smooth_grad_g(obj, alpha) - omega + (alpha - anchor) / gamma

        for _ in range(100):
            a, b = rng.normal(size=(2, obj.n))
            num = np.linalg.norm(phi_grad(a) - phi_grad(b))
            assert num <= bound * np.linalg.norm(a - b) * (1 + 1e-10)

    def test_invalid_gamma_rejected(self, rng):
        obj = symmetric_objective(rng)
        with pytest.raises(InputError):
            smooth_lipschitz_bound(obj, 0.0)


class TestInnerSolve:
    def test_l1_dominated_origin_is_returned_immediately(self, rng):
        obj = dominant_lam1_objective(rng)
        zero = np.zeros(obj.n)
        result = inner_solve(obj, zero, zero, 1.0, SolverConfig())
        assert np.array_equal(result.alpha, zero)
        assert result.iterations == 0
        assert result.converged
        assert result.residual == 0.0

    def test_pure_quadratic_minimized_at_zero(self):
        # Zero Gram makes the loss constant; kplus alone shapes the problem.
        decomp = GramDecomposition(
            gram=np.zeros((1, 1)),
            eigenvalues=np.array([0.0]),
            eigenvectors=np.eye(1),
            tau=1.0,
        )
        obj = DcObjective(decomp, np.array([1.0]), lam=1.0, lam1=0.0)
        result = inner_solve(obj, np.zeros(1), np.zeros(1), 1.0, SolverConfig())
        assert np.array_equal(result.alpha, np.zeros(1))
        assert result.converged

    def test_matches_long_run_prox_gradient_oracle(self, rng):
        cfg = SolverConfig()
        for trial in range(5):
            n = int(rng.integers(4, 16))
            obj = symmetric_objective(
                rng, n=n, lam=float(rng.uniform(0.05, 2.0)),
                lam1=float(rng.choice([0.0, 0.05, 0.3])),
            )
            anchor = rng.normal(size=n)
            omega = grad_h(obj, anchor)
            result = inner_solve(obj, omega, anchor, 1.0, cfg)
            ref = ref_inner_prox_gradient(
                obj.decomp.gram, obj.decomp.kplus, obj.y_signed,
                obj.lam, obj.lam1, omega, anchor, 1.0,
            )
            ours = ref_inner_objective(
                obj.decomp.gram, obj.decomp.kplus, obj.y_signed,
                obj.lam, obj.lam1, omega, anchor, 1.0, result.alpha,
            )
            best = ref_inner_objective(
                obj.decomp.gram, obj.decomp.kplus, obj.y_signed,
                obj.lam, obj.lam1, omega, anchor, 1.0, ref,
            )
            assert result.converged
            assert result.residual <= cfg.epsilon_inner
            assert abs(ours - best) <= 1e-6

    def test_iteration_cap_returns_unconverged_best(self, rng):
        obj = symmetric_objective(rng, lam1=0.0)
        cfg = SolverConfig(max_inner=1, epsilon_inner=1e-15)
        anchor = rng.normal(size=obj.n) * 5.0
        result = inner_solve(obj, np.zeros(obj.n), anchor, 1.0, cfg)
        assert not result.converged
        assert result.iterations == 1
        assert np.all(np.isfinite(result.alpha))

    def test_non_finite_blowup_raises(self, rng):
        obj = symmetric_objective(rng, lam1=0.0)
        huge = np.full(obj.n, 1e300)
        with pytest.raises(NumericalError):
            inner_solve(obj, huge, np.zeros(obj.n), 1.0, SolverConfig())


class TestPlaFit:
    def test_dominant_l1_converges_in_one_outer_step(self, rng):
        obj = dominant_lam1_objective(rng)
        alpha, trace = pla_fit(obj, SolverConfig())
        assert np.array_equal(alpha, np.zeros(obj.n))
        assert trace.status == CONVERGED
        assert trace.num_iterations == 1
        assert trace.step_norms == [0.0]
        assert trace.stationarity_residuals[-1] == 0.0
        assert len(trace.f_values) == 2
        assert len(trace.iterates) == 2

    def test_descent_and_lower_bound_on_indefinite_instance(self, rng):
        obj = tl1_objective(rng, n=30, d=4, lam=0.2, lam1=0.02)
        alpha, trace = pla_fit(obj, SolverConfig())
        assert trace.status == CONVERGED
        mu_min = float(obj.decomp.eigenvalues[-1])
        for k in range(trace.num_iterations):
            drop = trace.f_values[k] - trace.f_values[k + 1]
            assert drop >= 0.5 * trace.step_norms[k] ** 2 - 1e-12
        for f_k, it in zip(trace.f_values, trace.iterates):
            assert f_k >= 0.5 * obj.lam * mu_min * float(it @ it) - 1e-12

    def test_terminal_residual_within_ten_epsilon(self, rng):
        # Second instance: mostly-PSD Gram with a mild negative tail, the
        # regime where a non-trivial critical point exists near the origin.
        low_rank = rng.normal(size=(12, 8))
        bump = rng.normal(size=(12, 12))
        gram = low_rank @ low_rank.T / 8 + 0.15 * (bump + bump.T) / 2
        y_signed = rng.choice([-1.0, 1.0], size=12)
        instances = [
            tl1_objective(rng, lam=0.5, lam1=0.05),
            DcObjective(decompose_gram(gram, 1e-6), y_signed, lam=0.5, lam1=0.05),
        ]
        for obj in instances:
            cfg = SolverConfig()
            alpha, trace = pla_fit(obj, cfg)
            assert trace.status == CONVERGED
            assert trace.stationarity_residuals[-1] <= 10 * cfg.epsilon_outer

    def test_strongly_indefinite_divergence_raises(self, rng):
        # lam * ||K-|| well above 1: f is unbounded below and the outer
        # linearization runs away; the solver must say so.
        obj = symmetric_objective(rng, n=10, lam=5.0, lam1=0.0, scale=2.0)
        with pytest.raises(NumericalError, match="diverging|non-finite"):
            pla_fit(obj, SolverConfig())

    def test_deterministic_traces(self, rng):
        obj = tl1_objective(rng, n=15, lam=0.3, lam1=0.03)
        a1, t1 = pla_fit(obj, SolverConfig())
        a2, t2 = pla_fit(obj, SolverConfig())
        assert np.array_equal(a1, a2)
        assert t1.f_values == t2.f_values
        assert t1.step_norms == t2.step_norms
        assert all(np.array_equal(x, y) for x, y in zip(t1.iterates, t2.iterates))

    def test_max_outer_reported_not_raised(self, rng):
        obj = tl1_objective(rng, n=20, lam=0.1, lam1=0.0)
        alpha, trace = pla_fit(obj, SolverConfig(max_outer=1, epsilon_outer=1e-14))
        assert trace.status == MAX_ITERATIONS
        assert trace.num_iterations == 1
        assert np.all(np.isfinite(alpha))

    def test_inner_cap_flag_lands_in_trace(self, rng):
        obj = tl1_objective(rng, n=20, lam=0.1, lam1=0.0)
        cfg = SolverConfig(max_outer=2, max_inner=1, epsilon_inner=1e-15)
        _, trace = pla_fit(obj, cfg)
        assert False in trace.inner_converged

    def test_gamma_schedule_is_consulted_per_iteration(self, rng):
        obj = tl1_objective(rng, n=12, lam=0.3, lam1=0.02)
        seen = []

        def schedule(k):
            seen.append(k)
            return 1.0 + 0.5 * k

        _, trace = pla_fit(obj, SolverConfig(gamma=schedule))
        assert trace.status == CONVERGED
        assert seen == list(range(trace.num_iterations))

    def test_bad_schedule_value_rejected(self, rng):
        obj = tl1_objective(rng, n=8)
        with pytest.raises(InputError):
            pla_fit(obj, SolverConfig(gamma=lambda k: 0.0))

    def test_alpha0_shape_checked(self, rng):
        obj = tl1_objective(rng, n=8)
        with pytest.raises(InputError):
            pla_fit(obj, SolverConfig(alpha0=np.zeros(5)))

    def test_warm_start_at_exact_critical_point_stops_bitwise(self, rng):
        obj = dominant_lam1_objective(rng)
        start = np.zeros(obj.n)
        alpha, trace = pla_fit(obj, SolverConfig(alpha0=start))
        assert trace.status == CONVERGED
        assert trace.num_iterations == 1
        assert np.array_equal(alpha, start)

    def test_warm_start_refines_an_approximate_solution(self, rng):
        obj = tl1_objective(rng, n=10, lam=0.4, lam1=0.05)
        alpha, _ = pla_fit(obj, SolverConfig())
        again, trace = pla_fit(obj, SolverConfig(alpha0=alpha, epsilon_outer=1e-10))
        assert trace.status == CONVERGED
        assert f_value(obj, again) <= f_value(obj, alpha) + 1e-12

    def test_trace_records_are_structured(self, rng):
        obj = tl1_objective(rng, n=10)
        _, trace = pla_fit(obj, SolverConfig())
        records = trace.to_records()
        assert len(records) == trace.num_iterations
        assert set(records[0]) == {
            "iteration", "objective", "step_norm",
            "stationarity_residual", "inner_iterations", "inner_converged",
        }
        assert records[0]["iteration"] == 1


class TestSolverConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"gamma": -1.0},
            {"epsilon_outer": 0.0},
            {"epsilon_inner": -1e-9},
            {"max_outer": 0},
            {"max_inner": -3},
            {"alpha0": np.zeros((2, 2))},
        ],
    )
    def test_invalid_configs_rejected(self, kwargs):
        with pytest.raises(InputError):
            SolverConfig(**kwargs)


class TestStationarityResidual:
    def test_zero_at_critical_point(self, rng):
        obj = dominant_lam1_objective(rng)
        assert stationarity_residual(obj, np.zeros(obj.n)) == 0.0

    def test_positive_away_from_critical_points(self, rng):
        obj = tl1_objective(rng)
        assert stationarity_residual(obj, rng.normal(size=obj.n) * 3) > 0

    def test_decreases_along_solver_path(self, rng):
        obj = tl1_objective(rng, n=20, lam=0.3, lam1=0.02)
        alpha, trace = pla_fit(obj, SolverConfig())
        first = stationarity_residual(obj, trace.iterates[0])
        assert trace.stationarity_residuals[-1] < first


class TestRateMonitor:
    def test_recovers_geometric_ratio(self):
        v = np.array([2.0, -1.0, 0.5])
        trace = SolveTrace(iterates=[0.5**k * v for k in range(25)])
        est = rate_monitor(trace, np.zeros(3), tail_fraction=0.5)
        assert est.status == RATE_OK
        assert est.m_hat == pytest.approx(0.5, abs=1e-6)
        assert est.r_squared >= 0.999

    def test_zero_distances_flagged_degenerate(self):
        star = np.ones(2)
        trace = SolveTrace(iterates=[star.copy() for _ in range(10)])
        est = rate_monitor(trace, star)
        assert est.status == RATE_DEGENERATE

    def test_constant_nonzero_distances_flagged_degenerate(self):
        trace = SolveTrace(iterates=[np.ones(2) for _ in range(10)])
        est = rate_monitor(trace, np.zeros(2))
        assert est.status == RATE_DEGENERATE

    def test_short_tail_flagged_insufficient(self):
        trace = SolveTrace(iterates=[np.ones(2) * (0.5**k) for k in range(3)])
        est = rate_monitor(trace, np.zeros(2), tail_fraction=1.0)
        assert est.status == RATE_INSUFFICIENT

    def test_tail_fraction_validated(self):
        trace = SolveTrace(iterates=[np.ones(1)])
        with pytest.raises(InputError):
            rate_monitor(trace, np.zeros(1), tail_fraction=0.0)
