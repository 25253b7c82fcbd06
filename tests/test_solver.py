"""Inner solver, outer PLA loop, residuals, and the rate monitor."""

import dataclasses
import logging

import numpy as np
import pytest

import iklogit.solver

from iklogit import (
    DcObjective,
    InputError,
    ModelSpec,
    NumericalError,
    SolverConfig,
    decompose_gram,
    fit,
    pla_fit,
    rate_monitor,
)
from iklogit.objective import loss_grad, sigmoid
from iklogit.solver import (
    CONVERGED,
    DIVERGED,
    DIVERGENCE_NORM,
    MAX_ITERATIONS,
    RATE_DEGENERATE,
    RATE_INSUFFICIENT,
    RATE_OK,
    SolveTrace,
    inner_solve,
    smooth_lipschitz_bound,
    stationarity_residual,
)
from iklogit.spectral import GramDecomposition, positive_decompose

from conftest import (
    benchmark_data,
    eigenvalues,
    grad_h_at,
    kplus,
    residual_at,
    smooth_grad_g,
    solve_subproblem,
    symmetric_objective,
    tl1_objective,
)
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
            gram=np.eye(1), tau=0.0, lowrank=np.empty((1, 0)),
            spectral_norm=1.0, top_eigenvalue=1.0,
        )
        obj = DcObjective(decomp, np.array([1.0]), lam=1.0)
        assert smooth_lipschitz_bound(obj, gamma=1.0) == pytest.approx(2.25, abs=1e-15)

    def test_limit_is_loss_curvature_term(self, rng):
        obj = symmetric_objective(rng, lam=1e-12, lam1=0.0)
        vals = eigenvalues(obj.decomp)
        spec_norm = max(abs(vals[0]), abs(vals[-1]))
        expected = spec_norm**2 / (4.0 * obj.n)
        assert smooth_lipschitz_bound(obj, gamma=1e12) == pytest.approx(expected, rel=1e-9)

    def test_bounds_observed_gradient_ratios(self, rng):
        obj = symmetric_objective(rng)
        gamma = 0.7
        anchor = rng.normal(size=obj.n)
        omega = grad_h_at(obj, anchor)
        bound = smooth_lipschitz_bound(obj, gamma)

        def phi_grad(alpha):
            return smooth_grad_g(obj, alpha) - omega + (alpha - anchor) / gamma

        for _ in range(100):
            a, b = rng.normal(size=(2, obj.n))
            num = np.linalg.norm(phi_grad(a) - phi_grad(b))
            assert num <= bound * np.linalg.norm(a - b) * (1 + 1e-10)

    def test_computed_once_per_fit(self, rng, monkeypatch):
        calls = []

        def counting_bound(obj, gamma):
            calls.append(gamma)
            return smooth_lipschitz_bound(obj, gamma)

        monkeypatch.setattr(iklogit.solver, "smooth_lipschitz_bound", counting_bound)
        obj = tl1_objective(rng, n=20, lam=0.3, lam1=0.02)
        _, trace = pla_fit(obj, SolverConfig(gamma=0.5))
        assert trace.num_iterations > 1
        assert calls == [0.5]


class TestInnerSolve:
    def test_l1_dominated_origin_is_returned_immediately(self, rng):
        obj = dominant_lam1_objective(rng)
        zero = np.zeros(obj.n)
        result = solve_subproblem(obj, zero, zero, SolverConfig())
        assert np.array_equal(result.alpha, zero)
        assert result.iterations == 0
        assert result.converged
        assert result.residual == 0.0

    def test_pure_quadratic_minimized_at_zero(self):
        # Zero Gram makes the loss constant; kplus alone shapes the problem.
        decomp = positive_decompose(np.zeros((1, 1)), np.array([0.0]), np.eye(1), tau=1.0)
        obj = DcObjective(decomp, np.array([1.0]), lam=1.0, lam1=0.0)
        result = solve_subproblem(obj, np.zeros(1), np.zeros(1), SolverConfig())
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
            omega = grad_h_at(obj, anchor)
            result = solve_subproblem(obj, omega, anchor, cfg)
            ref = ref_inner_prox_gradient(
                obj.decomp.gram, kplus(obj.decomp), obj.y_signed,
                obj.lam, obj.lam1, omega, anchor, 1.0,
            )
            ours = ref_inner_objective(
                obj.decomp.gram, kplus(obj.decomp), obj.y_signed,
                obj.lam, obj.lam1, omega, anchor, 1.0, result.alpha,
            )
            best = ref_inner_objective(
                obj.decomp.gram, kplus(obj.decomp), obj.y_signed,
                obj.lam, obj.lam1, omega, anchor, 1.0, ref,
            )
            assert result.converged
            assert result.residual <= cfg.epsilon_inner
            assert abs(ours - best) <= 1e-6

    def test_iteration_cap_returns_unconverged_best(self, rng):
        obj = symmetric_objective(rng, lam1=0.0)
        cfg = SolverConfig(max_inner=1, epsilon_inner=1e-15)
        anchor = rng.normal(size=obj.n) * 5.0
        result = solve_subproblem(obj, np.zeros(obj.n), anchor, cfg)
        assert not result.converged
        assert result.iterations == 1
        assert np.all(np.isfinite(result.alpha))

    def test_returned_scores_are_k_alpha(self, rng):
        obj = tl1_objective(rng, n=30)
        omega = grad_h_at(obj, np.zeros(obj.n))
        for cfg in (SolverConfig(), SolverConfig(max_inner=3, epsilon_inner=1e-15)):
            result = solve_subproblem(obj, omega, np.zeros(obj.n), cfg)
            assert result.iterations > 0
            assert np.array_equal(result.scores, obj.decomp.gram @ result.alpha)
        again = solve_subproblem(obj, omega, result.alpha, SolverConfig())
        assert np.array_equal(again.scores, obj.decomp.gram @ again.alpha)

    def test_support_row_products_match_full(self, rng):
        # Below half of n nonzeros, K a and W^T a are sums over the support
        # rows: equal to the full products up to rounding.
        decomp = tl1_objective(rng, n=80).decomp
        assert decomp.lowrank.shape[1] > 0
        for count in (0, 1, 5, 39, 40, 80):
            a = np.zeros(80)
            a[rng.choice(80, count, replace=False)] = rng.normal(size=count)
            k_a, kplus_a, nz = iklogit.solver._products(decomp, a)
            full = decomp.gram @ a
            assert np.array_equal(nz, np.flatnonzero(a))
            assert np.allclose(k_a, full, rtol=1e-13, atol=1e-15)
            kplus_full = full + decomp.kminus_dot(a)
            assert np.allclose(kplus_a, kplus_full, rtol=1e-13, atol=1e-15)

    def test_stop_on_free_residual_returns_exact_products(self, rng):
        # A strong proximal term (small gamma) makes plain steps contract
        # fast.  With tol a quarter of the start's residual, the first
        # candidate is not checked; the second iteration's momentum point
        # is that candidate (beta = 0), its free residual passes, and the
        # solve returns it with the products it carries.
        obj = tl1_objective(rng, n=40)
        cfg = SolverConfig(gamma=0.01)
        anchor = np.zeros(obj.n)
        omega = grad_h_at(obj, anchor)
        step = 1.0 / smooth_lipschitz_bound(obj, cfg.gamma)
        scores = obj.decomp.gram @ anchor
        lg = loss_grad(obj, scores)
        start = stationarity_residual(obj, anchor, step, scores, lg)
        tol = start / 4
        kminus = obj.decomp.kminus_dot(anchor)
        result = inner_solve(obj, omega, anchor, cfg, step, tol, scores, kminus, lg)
        assert result.converged
        assert result.iterations == 1
        assert result.residual <= tol
        alpha = result.alpha
        k_alpha = obj.decomp.gram @ alpha
        assert np.allclose(result.scores, k_alpha, rtol=1e-13, atol=1e-15)
        exact = {
            "kminus": obj.decomp.kminus_dot(alpha),
            "loss_grad": loss_grad(obj, k_alpha),
        }
        for name, value in exact.items():
            assert np.allclose(getattr(result, name), value, rtol=1e-12, atol=1e-15)

    def test_non_finite_blowup_raises(self, rng):
        obj = symmetric_objective(rng, lam1=0.0)
        huge = np.full(obj.n, 1e300)
        with pytest.raises(NumericalError):
            solve_subproblem(obj, huge, np.zeros(obj.n), SolverConfig())


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
        mu_min = float(eigenvalues(obj.decomp)[-1])
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


class TestInexactInner:
    @staticmethod
    def benchmark_fit(**solver):
        """The benchmark's TL1 problem at n=120 (lam=0.1, lam1=0.01)."""
        spec = ModelSpec("l1-riklr", lam=0.1, lam1=0.01, solver=SolverConfig(**solver))
        return fit(spec, benchmark_data(0, 120)).trace

    @staticmethod
    def record_tolerances(monkeypatch):
        """The ``tol`` each inner_solve call of a fit receives, in order."""
        tols = []

        def recording_inner_solve(obj, omega, alpha_k, cfg, step, tol, *products):
            tols.append(tol)
            return inner_solve(obj, omega, alpha_k, cfg, step, tol, *products)

        monkeypatch.setattr(iklogit.solver, "inner_solve", recording_inner_solve)
        return tols

    def test_tolerance_follows_the_last_step(self, monkeypatch):
        eps, rtol = SolverConfig().epsilon_inner, iklogit.solver.INNER_RTOL
        tols = self.record_tolerances(monkeypatch)
        trace = self.benchmark_fit()
        assert trace.status == CONVERGED
        steps = trace.step_norms
        assert tols == [eps] + [max(eps, rtol * s) for s in steps[:-1]]
        assert max(tols) > eps

    def test_zero_rtol_is_the_fixed_tolerance(self, monkeypatch):
        monkeypatch.setattr(iklogit.solver, "INNER_RTOL", 0.0)
        tols = self.record_tolerances(monkeypatch)
        trace = self.benchmark_fit()
        assert trace.status == CONVERGED
        assert len(tols) == trace.num_iterations
        assert set(tols) == {SolverConfig().epsilon_inner}

    def test_short_inexact_step_does_not_stop_the_fit(self, monkeypatch):
        # Without the residual guard this fit stops at outer step 2, on an
        # exact repeat of a loose solve, with residual 6e-3 and support 98.
        monkeypatch.setattr(iklogit.solver, "INNER_RTOL", 0.1)
        trace = self.benchmark_fit()
        assert trace.status == CONVERGED
        assert trace.stationarity_residuals[-1] <= 10 * SolverConfig().epsilon_outer

    def test_loose_epsilon_inner_stops_on_exact_repeat(self):
        # epsilon_inner above 10 epsilon_outer: a solve returns its warm
        # start, and the repeat stops at residual <= epsilon_inner instead
        # of crawling to max_outer.
        cfg = SolverConfig(epsilon_inner=1e-2)
        trace = self.benchmark_fit(epsilon_inner=1e-2)
        assert trace.status == CONVERGED
        assert trace.step_norms[-1] == 0.0
        assert 10 * cfg.epsilon_outer < trace.stationarity_residuals[-1]
        assert trace.stationarity_residuals[-1] <= cfg.epsilon_inner


def phi(m):
    """ln(1 + e^-m) + (m/2) sigmoid(-m): the per-row value of f at a critical point."""
    return np.logaddexp(0.0, -m) + 0.5 * m * sigmoid(-m)


class TestDivergenceCertificate:
    def test_phi_is_positive(self):
        m = np.linspace(-50.0, 50.0, 200_001)
        assert np.all(phi(m) > 0)

    def test_converged_f_matches_critical_point_value(self, rng):
        # At a critical point f = (1/n) sum phi(m_i) + (lam1/2) ||a||_1 > 0.
        for n in (40, 60):
            obj = tl1_objective(rng, n=n, d=3, lam=0.1, lam1=0.01)
            assert obj.decomp.lowrank.shape[1] > 0
            alpha, trace = pla_fit(obj, SolverConfig())
            assert trace.status == CONVERGED
            margins = obj.y_signed * (obj.decomp.gram @ alpha)
            value = phi(margins).mean() + 0.5 * obj.lam1 * np.abs(alpha).sum()
            assert trace.f_values[-1] == pytest.approx(value, abs=1e-4)

    def test_raises_at_first_nonpositive_f(self):
        # The benchmark's diverging fold setting, lam = 1 and lam1 = 1e-4:
        # the norm cap fired only at outer step 72.
        with pytest.raises(NumericalError, match="diverging") as info:
            fit(ModelSpec("l1-riklr", lam=1.0, lam1=1e-4), benchmark_data(0, 120))
        trace = info.value.trace
        assert trace.status == DIVERGED
        assert all(f > 0 for f in trace.f_values[:-1])
        assert trace.f_values[-1] <= 0
        assert len(trace.iterates) == len(trace.f_values) == trace.num_iterations + 1
        assert np.linalg.norm(trace.iterates[-1]) < DIVERGENCE_NORM
        assert f"outer step {trace.num_iterations}," in str(info.value)

    def test_negative_f_at_max_outer_now_raises(self):
        # This fit used to run all 500 outer steps and end with f = -1.58,
        # scored as a model; f first fell to 0 or below at step 411.
        with pytest.raises(NumericalError, match="diverging") as info:
            fit(ModelSpec("l1-riklr", lam=0.01, lam1=1e-4), benchmark_data(1, 120))
        trace = info.value.trace
        assert trace.status == DIVERGED
        assert trace.num_iterations < SolverConfig().max_outer
        assert all(f > 0 for f in trace.f_values[:-1]) and trace.f_values[-1] <= 0


class TestStopLog:
    @staticmethod
    def stop_lines(caplog):
        return [r.getMessage() for r in caplog.records
                if r.name == "iklogit.solver" and r.levelno == logging.INFO]

    def test_converged(self, rng, caplog):
        caplog.set_level(logging.INFO, logger="iklogit.solver")
        pla_fit(dominant_lam1_objective(rng), SolverConfig())
        assert self.stop_lines(caplog) == [
            "PLA stopped: converged at outer step 1 (0 inner iterations), "
            "f = 0.6931471806, ||alpha|| = 0"
        ]

    def test_max_iterations(self, rng, caplog):
        caplog.set_level(logging.INFO, logger="iklogit.solver")
        obj = tl1_objective(rng, n=20, lam=0.1, lam1=0.0)
        alpha, trace = pla_fit(obj, SolverConfig(max_outer=2, epsilon_outer=1e-14))
        assert self.stop_lines(caplog) == [
            f"PLA stopped: max_iterations at outer step 2 "
            f"({sum(trace.inner_iterations)} inner iterations), "
            f"f = {trace.f_values[-1]:.10g}, ||alpha|| = {np.linalg.norm(alpha):.4g}"
        ]

    def test_diverged(self, rng, caplog):
        caplog.set_level(logging.INFO, logger="iklogit.solver")
        obj = symmetric_objective(rng, n=10, lam=5.0, lam1=0.0, scale=2.0)
        with pytest.raises(NumericalError) as info:
            pla_fit(obj, SolverConfig())
        trace = info.value.trace
        assert self.stop_lines(caplog) == [
            f"PLA stopped: diverged at outer step {trace.num_iterations} "
            f"({sum(trace.inner_iterations)} inner iterations), "
            f"f = {trace.f_values[-1]:.10g}, "
            f"||alpha|| = {np.linalg.norm(trace.iterates[-1]):.4g}"
        ]


class TestSolverConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"gamma": -1.0},
            {"epsilon_outer": 0.0},
            {"epsilon_inner": -1e-9},
            {"max_outer": 0},
            {"max_inner": -3},
            {"epsilon_outer": "1e-4"},
            {"epsilon_inner": None},
            {"max_outer": True},
            {"max_inner": False},
            {"max_outer": 5.0},
            {"gamma": True},
            {"epsilon_inner": True},
        ],
    )
    def test_invalid_configs_rejected(self, kwargs):
        with pytest.raises(InputError):
            SolverConfig(**kwargs)

    def test_invalid_gamma_rejected(self):
        with pytest.raises(InputError, match="gamma"):
            SolverConfig(gamma=0.0)

    def test_callable_gamma_rejected(self):
        # gamma is one constant proximal weight; a schedule is not accepted.
        for gamma in (lambda k: 1.0, "1.0", None):
            with pytest.raises(InputError, match="gamma"):
                SolverConfig(gamma=gamma)

    def test_five_settable_fields_and_float_gamma(self):
        names = [f.name for f in dataclasses.fields(SolverConfig)]
        assert names == [
            "gamma", "epsilon_outer", "max_outer", "epsilon_inner", "max_inner",
        ]
        assert type(SolverConfig(gamma=2).gamma) is float


class TestStationarityResidual:
    def test_zero_at_critical_point(self, rng):
        obj = dominant_lam1_objective(rng)
        assert residual_at(obj, np.zeros(obj.n)) == 0.0

    def test_positive_away_from_critical_points(self, rng):
        obj = tl1_objective(rng)
        assert residual_at(obj, rng.normal(size=obj.n) * 3) > 0

    def test_decreases_along_solver_path(self, rng):
        obj = tl1_objective(rng, n=20, lam=0.3, lam1=0.02)
        alpha, trace = pla_fit(obj, SolverConfig())
        first = residual_at(obj, trace.iterates[0])
        assert trace.stationarity_residuals[-1] < first


class TestProductBudget:
    @staticmethod
    def counted_objective(rng):
        """An indefinite TL1 objective whose K and K- products are counted.

        ``dense`` gets one entry per full product with K, ``rows`` the row
        count of each product with support rows of K (``c[nz] @ K[nz]``),
        and ``lowrank`` one entry per expansion W v of a K- product.
        """
        dense, rows, lowrank = [], [], []

        class CountingGram(np.ndarray):
            def __matmul__(self, other):
                dense.append(1)
                return np.matmul(self.view(np.ndarray), other)

            def __rmatmul__(self, other):
                rows.append(self.shape[0])
                return np.matmul(other, self.view(np.ndarray))

        class CountingFactor(np.ndarray):
            def __matmul__(self, other):
                if self.shape[0] == n:  # W v, not W^T a
                    lowrank.append(1)
                return np.matmul(self.view(np.ndarray), other)

        obj = tl1_objective(rng, n=100, d=3, lam=0.1, lam1=0.01)
        n = obj.n
        assert obj.decomp.lowrank.shape[1] > 0
        counted = dataclasses.replace(
            obj.decomp,
            gram=obj.decomp.gram.view(CountingGram),
            lowrank=obj.decomp.lowrank.view(CountingFactor),
        )
        obj = DcObjective(counted, obj.y_signed, lam=obj.lam, lam1=obj.lam1)
        return obj, dense, rows, lowrank

    def check_budget(self, rng, min_ratio):
        obj, dense, rows, lowrank = self.counted_objective(rng)
        _, trace = pla_fit(obj, SolverConfig())
        assert trace.status == CONVERGED
        inner, outer = sum(trace.inner_iterations), trace.num_iterations
        assert inner > min_ratio * outer
        # One full product per inner iteration (the loss gradient at the
        # momentum point), plus stop tests, restarts and a few per fit.
        # Taking the candidate's loss gradient every iteration, or its K c
        # as a full product, costs about 2 or 3 per inner iteration.
        assert len(dense) <= 1.5 * inner + 2 * outer + 2
        # While under half of a candidate's coefficients are nonzero, its
        # K c comes from its support rows; K- c costs one expansion W v.
        assert 0 < len(rows) <= 1.3 * inner + outer
        assert max(rows) < obj.n / 2
        assert len(lowrank) <= 1.3 * inner + 1 * outer + 2

    def test_products_per_inner_iteration(self, rng, monkeypatch):
        # Fixed inner tolerance: long inner solves, few outer steps.
        monkeypatch.setattr(iklogit.solver, "INNER_RTOL", 0.0)
        self.check_budget(rng, min_ratio=10)

    def test_products_per_inner_iteration_default(self, rng, monkeypatch):
        # The same budget at the default step-relative tolerance, whose
        # inner solves are shorter.
        self.check_budget(rng, min_ratio=5)

    def test_outer_loop_adds_no_products(self, rng, monkeypatch):
        # K a, K- a and the loss gradient of each new iterate come back from
        # the inner solve; outside it, only the starting point's K a, loss
        # gradient and K- a are computed.
        obj, dense, rows, lowrank = self.counted_objective(rng)
        inside = {"dense": 0, "rows": 0, "lowrank": 0, "solves": 0}

        def counting_inner_solve(*args, **kwargs):
            before = len(dense), len(rows), len(lowrank)
            result = inner_solve(*args, **kwargs)
            inside["dense"] += len(dense) - before[0]
            inside["rows"] += len(rows) - before[1]
            inside["lowrank"] += len(lowrank) - before[2]
            inside["solves"] += 1
            return result

        monkeypatch.setattr(iklogit.solver, "inner_solve", counting_inner_solve)
        _, trace = pla_fit(obj, SolverConfig())
        assert trace.status == CONVERGED
        assert inside["solves"] == trace.num_iterations > 10
        assert len(dense) - inside["dense"] == 2
        assert len(rows) == inside["rows"]
        assert len(lowrank) - inside["lowrank"] == 1


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
