"""Inner solver, outer PLA loop, residuals, and the rate monitor."""

import dataclasses
import logging
import math
import types

import numpy as np
import pytest

import iklogit.solver

from iklogit import (
    DcObjective,
    InputError,
    KernelSpec,
    ModelSpec,
    NumericalError,
    SolverConfig,
    decompose_gram,
    fit,
    gram_matrix,
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
from reference_solvers import (
    ref_inner_objective,
    ref_inner_prox_gradient,
    ref_soft_threshold,
)
import full_set_solver
from test_acceptance import descent_battery


def working_set(obj, index, last=None, gamma=1.0):
    """The working set of ``index`` in a fit of ``obj`` at ``gamma``."""
    step = 1.0 / smooth_lipschitz_bound(obj, gamma)
    return iklogit.solver._WorkingSet(obj, index, step, 1.0 / gamma, last)


def dominant_lam1_objective(rng, n=8, lam=0.3):
    """Objective whose L1 weight absorbs the loss gradient at the origin."""
    obj = tl1_objective(rng, n=n, lam=lam, lam1=0.0)
    needed = float(np.max(np.abs(obj.decomp.gram @ obj.y_signed))) / (2 * n)
    return DcObjective(obj.decomp, obj.y_signed, lam=lam, lam1=1.1 * needed)


class TestLipschitzBound:
    def test_hand_value_identity_gram(self):
        # n=1, K=[1], lam=1, tau=0, gamma=1: 1/4 + 1 + 1.
        decomp = GramDecomposition(
            gram=np.eye(1), shift=0.0, spectral_norm=1.0, top_eigenvalue=1.0,
            indefinite=False,
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
        decomp = positive_decompose(np.zeros((1, 1)), tau=1.0)
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

    def test_working_set_products_match_full(self, rng):
        # Over all n the products are K a and K a + K- a themselves, sparse a
        # too.  On a working set (39 of 80 rows is still one), K a is a
        # product with the set's rows; zeros inside the set, and an all-zero
        # candidate, are taken as they come.
        obj = tl1_objective(rng, n=80)
        decomp = obj.decomp
        assert decomp.indefinite
        subsets = [np.sort(rng.choice(80, m, replace=False)) for m in (30, 39)]
        for index in (None, *subsets):
            ws = working_set(obj, index)
            assert ws.index is index
            on_set = np.arange(80) if index is None else index
            size = on_set.size
            with_zeros = rng.normal(size=size)
            with_zeros[rng.choice(size, 12, replace=False)] = 0.0
            sparse = np.zeros(size)
            sparse[rng.choice(size, 5, replace=False)] = rng.normal(size=5)
            for coef in (with_zeros, sparse, rng.normal(size=size), np.zeros(size)):
                a = np.zeros(80)
                a[on_set] = coef
                k_a, kplus_a = iklogit.solver._products(decomp, coef, ws)
                full = decomp.gram @ a
                kplus_full = (full + decomp.shift * a)[on_set]
                if index is None:
                    assert np.array_equal(k_a, full)
                    assert np.array_equal(kplus_a, kplus_full)
                scale = max(np.abs(full).max(), np.abs(kplus_full).max(), 1.0)
                assert np.allclose(k_a, full, rtol=1e-12, atol=1e-15 * scale)
                assert np.allclose(kplus_a, kplus_full, rtol=1e-12, atol=1e-15 * scale)
            assert not k_a.any() and not kplus_a.any()

    def test_support_row_products_match_full(self, rng):
        # Sparse a, from empty to full support: K a and K+ a equal the full
        # products up to rounding.  On a working set a holds the
        # coefficients on the set and K+ a comes on the set.
        obj = tl1_objective(rng, n=80)
        decomp = obj.decomp
        assert decomp.indefinite
        subset = np.sort(rng.choice(80, 39, replace=False))
        for index, counts in ((None, (0, 1, 5, 39, 40, 80)), (subset, (0, 1, 5, 39))):
            ws = working_set(obj, index)
            assert (ws.index is None) == (index is None)
            on_set = np.arange(80) if index is None else index
            for count in counts:
                a = np.zeros(80)
                a[rng.choice(on_set, count, replace=False)] = rng.normal(size=count)
                k_a, kplus_a = iklogit.solver._products(decomp, a[on_set], ws)
                full = decomp.gram @ a
                assert np.allclose(k_a, full, rtol=1e-13, atol=1e-15)
                kplus_full = full + decomp.shift * a
                assert np.allclose(kplus_a, kplus_full[on_set], rtol=1e-13, atol=1e-15)

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
        kminus = obj.decomp.shift * anchor
        result = inner_solve(obj, omega, anchor, cfg, step, tol, scores, kminus, lg)
        assert result.converged
        assert result.iterations == 1
        assert result.residual <= tol
        alpha = result.alpha
        k_alpha = obj.decomp.gram @ alpha
        assert np.allclose(result.scores, k_alpha, rtol=1e-13, atol=1e-15)
        exact = {
            "kminus": obj.decomp.shift * alpha,
            "loss_grad": loss_grad(obj, k_alpha),
        }
        for name, value in exact.items():
            assert np.allclose(getattr(result, name), value, rtol=1e-12, atol=1e-15)

    def test_non_finite_blowup_raises(self, rng):
        obj = symmetric_objective(rng, lam1=0.0)
        huge = np.full(obj.n, 1e300)
        with pytest.raises(NumericalError):
            solve_subproblem(obj, huge, np.zeros(obj.n), SolverConfig())


def dense_residual(obj, omega, anchor, cfg, alpha):
    """The subproblem's proximal residual over all n at alpha, from dense products."""
    step = 1.0 / smooth_lipschitz_bound(obj, cfg.gamma)
    grad = (loss_grad(obj, obj.decomp.gram @ alpha) + obj.lam * (kplus(obj.decomp) @ alpha)
            - omega + (alpha - anchor) / cfg.gamma)
    return np.abs(alpha - ref_soft_threshold(alpha - step * grad, step * obj.lam1)).max()


def recorded_working_sets(monkeypatch):
    """The index of every working set an inner solve builds (None: all n)."""
    sets = []
    init = iklogit.solver._WorkingSet.__init__

    def recording(self, *args):
        init(self, *args)
        sets.append(self.index)

    monkeypatch.setattr(iklogit.solver._WorkingSet, "__init__", recording)
    return sets


class TestWorkingSet:
    @staticmethod
    def pushed_subproblem(kind, lam1):
        """A subproblem at the origin where only coordinates 0, 1 and 2 violate.

        omega cancels the loss gradient at 0 exactly except on those three,
        which it pushes hard.  Once they move, the loss and K+ couple their
        neighbours in, whose gradients then pass lam1.
        """
        n = 40
        if kind == "rbf":
            data = benchmark_data(0, n)
            gram = gram_matrix(KernelSpec.rbf(1.0), data)
            obj = DcObjective.from_labels(
                decompose_gram(gram, 1e-6, psd=True), data.labels, 0.5, lam1)
        else:
            obj = tl1_objective(np.random.default_rng(0), n=n, lam=0.5, lam1=lam1)
            assert obj.decomp.indefinite
        anchor = np.zeros(n)
        scores = obj.decomp.gram @ anchor
        push = np.zeros(n)
        push[:3] = [0.5, -0.5, 0.5]
        omega = loss_grad(obj, scores) + push
        return obj, omega, anchor

    @pytest.mark.parametrize("kind, lam1", [("rbf", 0.01), ("tl1", 0.05)])
    def test_violator_outside_the_start_joins(self, kind, lam1, monkeypatch):
        obj, omega, anchor = self.pushed_subproblem(kind, lam1)
        sets = recorded_working_sets(monkeypatch)
        cfg = SolverConfig()
        result = solve_subproblem(obj, omega, anchor, cfg)
        assert result.converged
        # W started at the three pushed coordinates and grew, still below n/2.
        assert sets[0].tolist() == [0, 1, 2]
        assert len(sets) >= 2 and sets[1] is not None
        assert set(sets[0].tolist()) < set(sets[1].tolist())
        outside = set(np.flatnonzero(result.alpha).tolist()) - {0, 1, 2}
        assert outside
        # The residual over all n, computed here from dense products.
        alpha, gram = result.alpha, obj.decomp.gram
        assert dense_residual(obj, omega, anchor, cfg, alpha) <= cfg.epsilon_inner
        # The products returned are those of the returned point.
        k_alpha = gram @ alpha
        assert np.allclose(result.scores, k_alpha, rtol=1e-13, atol=1e-15)
        assert np.allclose(result.kminus, obj.decomp.shift * alpha, rtol=1e-12, atol=1e-15)
        assert np.allclose(result.loss_grad, loss_grad(obj, k_alpha), rtol=1e-12, atol=1e-15)
        # And the point is the subproblem's minimizer.
        args = (gram, kplus(obj.decomp), obj.y_signed, obj.lam, obj.lam1, omega, anchor, 1.0)
        ref = ref_inner_prox_gradient(*args)
        assert set(np.flatnonzero(ref).tolist()) == set(np.flatnonzero(alpha).tolist())
        assert abs(ref_inner_objective(*args, alpha) - ref_inner_objective(*args, ref)) <= 1e-9

    @pytest.mark.parametrize("lam1", [0.0, 0.05])
    def test_capped_solve_reports_the_point_it_returns(self, lam1, monkeypatch):
        # A capped solve returns its last point with that point's residual
        # over all n and its products.  With lam1 = 0 the solve runs on all
        # n; with lam1 > 0 it is capped on a working set of the three pushed
        # coordinates, and the point is expanded to all n.
        obj, omega, anchor = self.pushed_subproblem("tl1", lam1)
        sets = recorded_working_sets(monkeypatch)
        cfg = SolverConfig(max_inner=3, epsilon_inner=1e-15)
        result = solve_subproblem(obj, omega, anchor, cfg)
        assert not result.converged
        assert result.iterations == 3
        if lam1 == 0.0:
            assert sets == [None]
        else:
            assert [s.tolist() for s in sets] == [[0, 1, 2]]
        alpha = result.alpha
        residual = dense_residual(obj, omega, anchor, cfg, alpha)
        assert residual > cfg.epsilon_inner
        assert result.residual == pytest.approx(residual, rel=1e-12)
        k_alpha = obj.decomp.gram @ alpha
        exact = {
            "scores": k_alpha,
            "kminus": obj.decomp.shift * alpha,
            "loss_grad": loss_grad(obj, k_alpha),
        }
        for name, value in exact.items():
            assert np.allclose(getattr(result, name), value, rtol=1e-12, atol=1e-15)

    def test_restricted_fit_ends_at_a_critical_point(self, monkeypatch):
        # Every solve of this RBF fit runs on fewer than half of the n.
        data = benchmark_data(0, 120)
        gram = gram_matrix(KernelSpec.rbf(1.0), data)
        obj = DcObjective.from_labels(decompose_gram(gram, 1e-6, psd=True), data.labels,
                                      lam=0.01, lam1=0.01)
        sets = recorded_working_sets(monkeypatch)
        alpha, trace = pla_fit(obj, SolverConfig())
        assert trace.status == CONVERGED
        assert len(sets) >= trace.num_iterations > 100
        assert all(s is not None and 2 * s.size < obj.n for s in sets)
        assert residual_at(obj, alpha) <= 10 * SolverConfig().epsilon_outer

    def test_iteration_index_counts_kept_candidates(self, monkeypatch):
        # A solve's index counts the candidates it keeps: one per iteration
        # that advances FISTA's momentum weight theta (one square root),
        # and one that passes the stop test.  A candidate that a restart
        # discards is taken again at its index.  In one solve of each of
        # these fits a working set ends at the beta = 0 check right after a
        # restart, and its expanded point fails over all n: the next working
        # set takes the discarded candidate's index again.
        kept, tols, solves = [0], [], []
        prox_residual = iklogit.solver._prox_residual

        def counting_sqrt(x):
            kept[0] += 1
            return math.sqrt(x)

        def counting_prox_residual(*args):
            value = prox_residual(*args)
            kept[0] += value <= tols[-1]
            return value

        def recording_inner_solve(obj, omega, alpha_k, cfg, step, tol, *products):
            tols.append(tol)
            before = kept[0]
            result = inner_solve(obj, omega, alpha_k, cfg, step, tol, *products)
            solves.append((result.iterations, kept[0] - before))
            return result

        counting_math = types.SimpleNamespace(**vars(math))
        counting_math.sqrt = counting_sqrt
        monkeypatch.setattr(iklogit.solver, "math", counting_math)
        monkeypatch.setattr(iklogit.solver, "_prox_residual", counting_prox_residual)
        monkeypatch.setattr(iklogit.solver, "inner_solve", recording_inner_solve)
        # The plain loop: extrapolation takes square roots of its own, for
        # its outer steps' theta.
        monkeypatch.setattr(iklogit.solver, "EXTRAPOLATE", False)
        for seed, n in ((5, 200), (7, 250)):
            model = fit(ModelSpec("l1-riklr", lam=0.1, lam1=0.01), benchmark_data(seed, n))
            assert model.trace.status == CONVERGED
        assert len(solves) > 100
        assert [iterations for iterations, _ in solves] == [count for _, count in solves]

    @pytest.mark.parametrize("spec", [
        ModelSpec("klr", lam=1e-4),
        ModelSpec("l1-riklr", lam=1.0, lam1=0.01),
    ], ids=["klr", "l1-riklr"])
    def test_all_n_fits_are_bitwise_the_full_set_loop(self, spec, monkeypatch):
        # klr (lam1 = 0) runs on all n with no set-up; this l1-riklr fit's
        # working sets each hold at least half of the n.  Either way every
        # iterate is the full-set loop's, bitwise.
        data = benchmark_data(0, 120)
        sets = recorded_working_sets(monkeypatch)
        model = fit(spec, data)
        assert sets and all(s is None for s in sets)
        monkeypatch.setattr(iklogit.solver, "inner_solve", full_set_solver.inner_solve)
        reference = fit(spec, data)
        trace, ref = model.trace, reference.trace
        assert trace.status == ref.status
        assert trace.inner_iterations == ref.inner_iterations
        assert len(trace.iterates) == len(ref.iterates)
        assert all(np.array_equal(a, b) for a, b in zip(trace.iterates, ref.iterates))
        assert np.array_equal(model.alpha, reference.alpha)


class TestWorkingSetStep:
    @staticmethod
    def objective(kind, n=80):
        """A TL1, an RBF, or a Gram with negative entries, at lam = 0.5."""
        if kind == "rbf":
            data = benchmark_data(0, n)
            gram = gram_matrix(KernelSpec.rbf(1.0), data)
            return DcObjective.from_labels(
                decompose_gram(gram, 1e-6, psd=True), data.labels, 0.5, 0.01)
        if kind == "tl1":
            return tl1_objective(np.random.default_rng(0), n=n, lam=0.5, lam1=0.05)
        rng = np.random.default_rng(0)
        low_rank, bump = rng.normal(size=(n, 8)), rng.normal(size=(n, n))
        gram = low_rank @ low_rank.T / 8 + 0.15 * (bump + bump.T) / 2
        assert gram.min() < 0.0
        return DcObjective(decompose_gram(gram, 1e-6), rng.choice([-1.0, 1.0], size=n), 0.5, 0.05)

    @pytest.mark.parametrize("gamma", [1.0, 0.3])
    @pytest.mark.parametrize("kind", ["tl1", "rbf", "negative entries"])
    def test_step_bounds_the_curvature_on_the_set(self, kind, gamma):
        # On a set W of fewer than n/2 coordinates the step is 1/L_W, with
        # L_W = lambda_max(K[W,:] K[:,W] / (4n) + lam K+[W,W]) + 1/gamma, a
        # bound on the curvature of the subproblem's smooth part on W, and
        # at most the fit's L: the gradient on W is L_W-Lipschitz.  The bound
        # reads no sign of K's entries.  A set of n/2 or more is all n, at 1/L.
        obj = self.objective(kind)
        n, gram, dense_kplus = obj.n, obj.decomp.gram, kplus(obj.decomp)
        big_l = smooth_lipschitz_bound(obj, gamma)
        rng = np.random.default_rng(1)
        for size in (1, 10, 39):
            index = np.sort(rng.choice(n, size, replace=False))
            ws = working_set(obj, index, gamma=gamma)
            assert ws.index is index
            rows = gram[index]
            restricted = rows @ rows.T / (4 * n) + obj.lam * dense_kplus[np.ix_(index, index)]
            exact = float(np.linalg.eigvalsh(restricted)[-1]) + 1.0 / gamma
            assert 1.0 / ws.step == pytest.approx(exact, rel=1e-12)
            assert ws.step >= 1.0 / big_l
            if size == 10:
                assert 1.0 / ws.step < 0.9 * big_l
            for _ in range(20):
                a, b = np.zeros((2, n))
                a[index], b[index] = rng.normal(size=(2, size))
                num = np.linalg.norm((smooth_grad_g(obj, a) - smooth_grad_g(obj, b)
                                      + (a - b) / gamma)[index])
                assert num <= np.linalg.norm(a - b) / ws.step * (1 + 1e-10)
        for index in (None, np.arange(n // 2)):
            ws = working_set(obj, index, gamma=gamma)
            assert ws.index is None and ws.step == 1.0 / big_l
            assert ws.gram is gram

    def test_reused_step_never_leaves_its_set(self):
        # A set equal to the last one takes its rows and step; one inside
        # it takes its step; any other set, a superset or one that swaps a
        # coordinate, gets a bound of its own, even when inside a set that
        # an earlier set reused the step of.
        obj = self.objective("tl1")
        rng = np.random.default_rng(2)
        outer = np.sort(rng.choice(obj.n, 30, replace=False))
        first = working_set(obj, outer)
        same = working_set(obj, outer.copy(), last=first)
        assert same.gram is first.gram and same.step == first.step
        inside = outer[::2]
        sub = working_set(obj, inside, last=first)
        assert sub.step == first.step < working_set(obj, inside).step
        assert np.array_equal(sub.gram, obj.decomp.gram[inside])
        assert working_set(obj, inside[::2], last=sub).step == first.step
        extra = np.setdiff1d(np.arange(obj.n), outer)[:1]
        swapped = np.union1d(outer[1:], extra)
        for index in (np.union1d(outer, extra), swapped, np.union1d(inside, extra)):
            own = working_set(obj, index).step
            assert working_set(obj, index, last=first).step == own
            assert working_set(obj, index, last=sub).step == own

    def test_every_step_of_a_fit_was_bounded_on_a_superset(self, rng, monkeypatch):
        # Over a whole fit, with the set carried from one solve to the next:
        # each set's step is the step computed for a set that contains it.
        bounds, built = [], []
        init = iklogit.solver._WorkingSet.__init__
        bound = iklogit.solver._set_lipschitz_bound

        def counting_bound(*args):
            bounds.append(args[1])
            return bound(*args)

        def recording(self, *args):
            before = len(bounds)
            init(self, *args)
            if self.index is not None:
                built.append((set(self.index.tolist()), self.step, len(bounds) > before))

        monkeypatch.setattr(iklogit.solver, "_set_lipschitz_bound", counting_bound)
        monkeypatch.setattr(iklogit.solver._WorkingSet, "__init__", recording)
        obj = tl1_objective(rng, n=100, d=3, lam=0.1, lam1=0.02)
        _, trace = pla_fit(obj, SolverConfig())
        assert trace.status == CONVERGED
        computed = [(index, step) for index, step, fresh in built if fresh]
        assert len(built) > 10 * len(computed) >= 20
        inside = []
        for index, step, _ in built:
            bounded_on = [built for built, built_step in computed if step == built_step]
            assert any(index <= built for built in bounded_on)
            inside.append(not any(index == built for built in bounded_on))
        assert any(inside)

    def test_baseline_fit_takes_the_working_set_step(self):
        # The benchmark's n = 500 TL1 fit (lam = 0.1, lam1 = 0.01): 578
        # inner iterations over 104 outer steps, and 2,165 over 366 in the
        # plain loop (TestAdca).  At the fit's step 1/L on every working set
        # the plain loop took 4,285 over 370.
        model = fit(ModelSpec("l1-riklr", lam=0.1, lam1=0.01), benchmark_data(0, 500))
        assert model.trace.status == CONVERGED
        assert sum(model.trace.inner_iterations) <= 2165


class TestDescentCertificate:
    @pytest.mark.parametrize("on_set", [True, False], ids=["working set", "all n"])
    @pytest.mark.parametrize("kind", ["tl1", "rbf"])
    def test_certified_candidates_do_not_raise_the_objective(self, kind, on_set):
        # Beck & Teboulle (2009), Lemma 2.3: for the proximal step c from y
        # at a step of at most 1/L_W, F(c) <= F(x) whenever
        # cert = <y - c, c - x> + ||y - c||^2 / 2 <= 0, for every x.  So
        # the inner solve evaluates F only where the certificate fails.
        # Random x and y at distances 1e-4 to 1 from the subproblem's
        # minimizer on the set, where F(x) - F(c) can be small, at the
        # solver's step.  A certificate that always holds fails here, and
        # so does one at 4 times the step on three of the four.
        obj = TestWorkingSetStep.objective(kind)
        n, gamma, lam1 = obj.n, 1.0, obj.lam1
        dense_kplus = kplus(obj.decomp)
        rng = np.random.default_rng(3)
        omega, anchor = rng.normal(scale=0.1, size=(2, n))
        ws = working_set(obj, np.sort(rng.choice(n, 30, replace=False)) if on_set else None)
        assert (ws.index is None) != on_set
        coords = np.arange(n) if ws.index is None else ws.index

        def value(a):
            return ref_inner_objective(obj.decomp.gram, dense_kplus, obj.y_signed, obj.lam,
                                       lam1, omega, anchor, gamma, a)

        def on_coords(v):
            a = np.zeros(n)
            a[coords] = v
            return a

        def prox_step(y):
            grad = (smooth_grad_g(obj, y) - omega + (y - anchor) / gamma)[coords]
            return on_coords(ref_soft_threshold(y[coords] - ws.step * grad, ws.step * lam1))

        star = np.zeros(n)
        for _ in range(300):
            star = prox_step(star)
        certified = 0
        for _ in range(300):
            x, y = (star + on_coords(10.0 ** rng.uniform(-4, 0) * rng.normal(size=coords.size))
                    for _ in range(2))
            cand = prox_step(y)
            back, move = y - cand, cand - x
            if back @ move + 0.5 * (back @ back) <= 0.0:
                certified += 1
                f_x = value(x)
                assert value(cand) <= f_x + 1e-12 * abs(f_x)
        assert 20 < certified < 280

    def test_few_candidates_evaluate_the_objective(self, monkeypatch):
        # Each candidate costs one product with the set's rows (_products);
        # its objective, and lazily x's, only where the certificate fails.
        # This TL1 fit in the plain loop evaluates 477 objectives over 1,588
        # candidates on its working sets (1,794 when every candidate and
        # each set's start were evaluated).
        counts = {"objectives": 0, "candidates": 0}
        value, products = iklogit.solver.loss_value, iklogit.solver._products

        def counting_value(*args):
            counts["objectives"] += 1
            return value(*args)

        def counting_products(*args):
            counts["candidates"] += 1
            return products(*args)

        monkeypatch.setattr(iklogit.solver, "loss_value", counting_value)
        monkeypatch.setattr(iklogit.solver, "_products", counting_products)
        sets = recorded_working_sets(monkeypatch)
        monkeypatch.setattr(iklogit.solver, "EXTRAPOLATE", False)
        model = fit(ModelSpec("l1-riklr", lam=0.1, lam1=0.01), benchmark_data(0, 200))
        assert model.trace.status == CONVERGED
        assert sum(s is not None for s in sets) > 0.9 * len(sets)
        assert counts["candidates"] >= sum(model.trace.inner_iterations) > 1000
        assert counts["objectives"] <= 0.4 * counts["candidates"]


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
            "extrapolated",
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
            assert obj.decomp.indefinite
            alpha, trace = pla_fit(obj, SolverConfig())
            assert trace.status == CONVERGED
            margins = obj.y_signed * (obj.decomp.gram @ alpha)
            value = phi(margins).mean() + 0.5 * obj.lam1 * np.abs(alpha).sum()
            assert trace.f_values[-1] == pytest.approx(value, abs=1e-4)

    def test_raises_at_first_nonpositive_f(self, monkeypatch):
        # The benchmark's diverging fold setting, lam = 1 and lam1 = 1e-4:
        # the norm cap fired only at outer step 72.  The plain loop never
        # raises f, so it stops at the first f <= 0.
        monkeypatch.setattr(iklogit.solver, "EXTRAPOLATE", False)
        with pytest.raises(NumericalError, match="diverging") as info:
            fit(ModelSpec("l1-riklr", lam=1.0, lam1=1e-4), benchmark_data(0, 120))
        trace = info.value.trace
        assert trace.status == DIVERGED
        assert all(f > 0 for f in trace.f_values[:-1])
        assert trace.f_values[-1] <= 0
        assert len(trace.iterates) == len(trace.f_values) == trace.num_iterations + 1
        assert np.linalg.norm(trace.iterates[-1]) < DIVERGENCE_NORM
        assert f"outer step {trace.num_iterations}," in str(info.value)

    def test_negative_f_at_max_outer_now_raises(self, monkeypatch):
        # The plain loop used to run all 500 outer steps of this fit and end
        # with f = -1.58, scored as a model; f first falls to 0 or below at
        # step 414.
        monkeypatch.setattr(iklogit.solver, "EXTRAPOLATE", False)
        with pytest.raises(NumericalError, match="diverging") as info:
            fit(ModelSpec("l1-riklr", lam=0.01, lam1=1e-4), benchmark_data(1, 120))
        trace = info.value.trace
        assert trace.status == DIVERGED
        assert trace.num_iterations < SolverConfig().max_outer
        assert all(f > 0 for f in trace.f_values[:-1]) and trace.f_values[-1] <= 0

    @pytest.mark.parametrize("seed, lam", [(0, 1.0), (1, 0.01)])
    def test_extrapolated_fit_raises_once_the_window_is_nonpositive(self, seed, lam):
        # Extrapolated steps bound f only by the largest of the last
        # ADCA_WINDOW values, so one f <= 0 does not yet show that the run
        # diverges; the fit stops at the first step where all of them are.
        with pytest.raises(NumericalError, match="diverging") as info:
            fit(ModelSpec("l1-riklr", lam=lam, lam1=1e-4), benchmark_data(seed, 120))
        trace = info.value.trace
        f, q = trace.f_values, iklogit.solver.ADCA_WINDOW
        assert trace.status == DIVERGED and any(trace.extrapolated)
        assert trace.num_iterations < SolverConfig().max_outer
        assert max(f[-q:]) <= 0
        assert all(max(f[max(0, k - q):k]) > 0 for k in range(1, len(f)))
        assert np.linalg.norm(trace.iterates[-1]) < DIVERGENCE_NORM


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
    def counted(obj):
        """``obj`` with its K products counted.

        ``products`` gets the row count of each product of a block of rows
        of K with a vector (``K @ v``, n rows, or ``K[W] @ v`` on a working
        set), and ``rows`` the row count of each product of a vector with
        the rows of K on a working set (``c @ K[W]``).  K- a = rho a is no
        product.
        """
        products, rows = [], []

        class CountingGram(np.ndarray):
            def __matmul__(self, other):
                products.append(self.shape[0])
                return np.matmul(self.view(np.ndarray), other)

            def __rmatmul__(self, other):
                rows.append(self.shape[0])
                return np.matmul(other, self.view(np.ndarray))

        counted = dataclasses.replace(obj.decomp, gram=obj.decomp.gram.view(CountingGram))
        obj = DcObjective(counted, obj.y_signed, lam=obj.lam, lam1=obj.lam1)
        return obj, products, rows

    def counted_objective(self, rng):
        """An indefinite TL1 objective whose K products are counted."""
        obj = tl1_objective(rng, n=100, d=3, lam=0.1, lam1=0.01)
        assert obj.decomp.indefinite
        return self.counted(obj)

    def check_budget(self, rng, min_ratio):
        obj, products, rows = self.counted_objective(rng)
        _, trace = pla_fit(obj, SolverConfig())
        assert trace.status == CONVERGED
        inner, outer = sum(trace.inner_iterations), trace.num_iterations
        assert inner > min_ratio * outer
        # One product with K per inner iteration (the loss gradient at the
        # momentum point), plus stop tests, restarts and a few per fit.
        # Taking the candidate's loss gradient every iteration, or its K c
        # as a full product, costs about 2 or 3 per inner iteration.
        assert len(products) <= 1.5 * inner + 2 * outer + 2
        # A working set holds fewer than half of the n rows.
        assert all(p == obj.n or p < obj.n / 2 for p in products)
        # On a working set smaller than n, a candidate's K c is a product
        # with the set's rows of K.
        assert 0 < len(rows) <= 1.3 * inner + outer
        assert max(rows) < obj.n / 2

    def test_products_per_inner_iteration(self, rng, monkeypatch):
        # Fixed inner tolerance: long inner solves, few outer steps (1,007
        # inner iterations over 110 outer steps).
        monkeypatch.setattr(iklogit.solver, "INNER_RTOL", 0.0)
        self.check_budget(rng, min_ratio=9)

    def test_products_per_inner_iteration_default(self, rng, monkeypatch):
        # The same budget at the default step-relative tolerance, whose
        # inner solves are shorter (548 inner iterations over 110 steps).
        self.check_budget(rng, min_ratio=4.5)

    def test_sparse_fit_makes_few_full_products(self):
        # rbf-serve's problem at n = 400: supports of about 10 rows.  The
        # inner iterations take their products on working sets of at most
        # a few dozen rows; a full product (n rows) certifies each solve
        # over all n.  Without working sets it is about 1.06 per inner
        # iteration.
        data = benchmark_data(0, 400)
        gram = gram_matrix(KernelSpec.rbf(1.0), data)
        obj = DcObjective.from_labels(decompose_gram(gram, 1e-6, psd=True), data.labels,
                                      lam=1.0, lam1=0.01)
        obj, products, rows = self.counted(obj)
        _, trace = pla_fit(obj, SolverConfig())
        assert trace.status == CONVERGED
        inner, outer = sum(trace.inner_iterations), trace.num_iterations
        assert inner > 10 * outer
        full = [p for p in products if p == obj.n]
        on_sets = [p for p in products if p != obj.n]
        assert len(full) <= 0.25 * inner
        assert len(full) <= 2 * outer + 2
        assert len(on_sets) >= inner
        assert max(on_sets) < obj.n / 10
        assert max(rows) < obj.n / 10

    def test_working_set_iterations_gather_no_rows(self, rng, monkeypatch):
        # Every solve of this TL1 fit runs on fewer than half of the n.
        # Rows of K are gathered only to build a working set, one gather,
        # and K[W,W] once more for a set that computes its
        # step bound; a set equal to the one the last solve ended on takes
        # its rows and gathers none.  The iterations on the set read the
        # rows it holds.
        gathers, builds = [], []

        class Gathering(np.ndarray):
            def __getitem__(self, key):
                if self.ndim == 2:
                    gathers.append(self.shape)
                return super().__getitem__(key)

        # lam = 0.2: at lam = 0.1 the shift split's solves average 4.5
        # iterations per set, too few for the check below.
        obj = tl1_objective(rng, n=100, d=3, lam=0.2, lam1=0.02)
        assert obj.decomp.indefinite
        decomp = dataclasses.replace(obj.decomp, gram=obj.decomp.gram.view(Gathering))
        obj = DcObjective(decomp, obj.y_signed, lam=obj.lam, lam1=obj.lam1)
        init = iklogit.solver._WorkingSet.__init__
        bound = iklogit.solver._set_lipschitz_bound
        bounds = []

        def counting_bound(*args):
            bounds.append(args[1])
            return bound(*args)

        def recording(self, obj, index, step, inv_gamma, last):
            before = len(gathers), len(bounds)
            init(self, obj, index, step, inv_gamma, last)
            if last is not None and self.gram is last.gram:
                kind = "rows reused"
            elif len(bounds) > before[1]:
                kind = "bound computed"
            else:
                kind = "bound reused"
            builds.append((self.index, kind, len(gathers) - before[0]))

        monkeypatch.setattr(iklogit.solver, "_set_lipschitz_bound", counting_bound)
        monkeypatch.setattr(iklogit.solver._WorkingSet, "__init__", recording)
        _, trace = pla_fit(obj, SolverConfig())
        assert trace.status == CONVERGED
        assert len(builds) > 10 and all(index is not None for index, _, _ in builds)
        assert sum(trace.inner_iterations) > 5 * len(builds)
        per_kind = {"rows reused": 0, "bound reused": 1, "bound computed": 2}
        assert all(count == per_kind[kind] for _, kind, count in builds)
        assert {kind for _, kind, _ in builds} == set(per_kind)
        assert len(gathers) == sum(count for _, _, count in builds)

    @staticmethod
    def count_inside_solves(products, rows, monkeypatch):
        """The products that inner_solve makes, and its number of calls."""
        inside = {"products": 0, "rows": 0, "solves": 0}

        def counting_inner_solve(*args, **kwargs):
            before = len(products), len(rows)
            result = inner_solve(*args, **kwargs)
            inside["products"] += len(products) - before[0]
            inside["rows"] += len(rows) - before[1]
            inside["solves"] += 1
            return result

        monkeypatch.setattr(iklogit.solver, "inner_solve", counting_inner_solve)
        return inside

    def test_outer_loop_adds_no_products(self, rng, monkeypatch):
        # K a, K- a and the loss gradient of each new iterate come back from
        # the inner solve; outside it, only the starting point's loss
        # gradient is computed (K a and K- a are 0 at alpha = 0).  The
        # plain loop: extrapolation adds one per kept anchor (TestAdca).
        obj, products, rows = self.counted_objective(rng)
        inside = self.count_inside_solves(products, rows, monkeypatch)
        monkeypatch.setattr(iklogit.solver, "EXTRAPOLATE", False)
        _, trace = pla_fit(obj, SolverConfig())
        assert trace.status == CONVERGED
        assert inside["solves"] == trace.num_iterations > 10
        assert len(products) - inside["products"] == 1
        assert len(rows) == inside["rows"]


def plain_fit(obj, monkeypatch):
    """pla_fit in the paper's plain loop, with no extrapolated step."""
    with monkeypatch.context() as patch:
        patch.setattr(iklogit.solver, "EXTRAPOLATE", False)
        return pla_fit(obj, SolverConfig())


class TestAdca:
    """Extrapolated outer steps (accelerated DCA), the default."""

    @staticmethod
    def check_window(trace):
        """f_{k+1} <= max(f_{k-4}, ..., f_k) at every step."""
        f, q = trace.f_values, iklogit.solver.ADCA_WINDOW
        for k in range(trace.num_iterations):
            assert f[k + 1] <= max(f[max(0, k + 1 - q):k + 1]), k

    def test_battery_keeps_the_window_and_ends_critical(self):
        # Acceptance 5's battery, extrapolated: f_{k+1} is at most the
        # largest of the last 5 values at every step, not at most f_k, and
        # each run ends at residual <= 10 epsilon_outer.  Its one split
        # with a negative eigenvalue (mostly-psd) extrapolates.
        cfg = SolverConfig()
        extrapolated = 0
        for name, obj in descent_battery():
            _, trace = pla_fit(obj, cfg)
            assert trace.status == CONVERGED, name
            self.check_window(trace)
            assert trace.stationarity_residuals[-1] <= 10.0 * cfg.epsilon_outer, name
            extrapolated += sum(trace.extrapolated)
        assert extrapolated > 0

    @pytest.mark.parametrize("seed, n", [(0, 120), (5, 200)])
    def test_benchmark_fits_keep_the_window(self, seed, n):
        # TL1 fits of the benchmark's problem extrapolate at most steps.
        data = benchmark_data(seed, n)
        model = fit(ModelSpec("l1-riklr", lam=0.1, lam1=0.01), data)
        trace = model.trace
        assert trace.status == CONVERGED
        assert 2 * sum(trace.extrapolated) > trace.num_iterations
        self.check_window(trace)
        assert trace.stationarity_residuals[-1] <= 10 * SolverConfig().epsilon_outer

    @staticmethod
    def check_plain(obj, monkeypatch):
        """The default fit of obj takes the plain loop's steps, bitwise."""
        alpha, trace = pla_fit(obj, SolverConfig())
        ref_alpha, ref = plain_fit(obj, monkeypatch)
        assert trace.num_iterations == ref.num_iterations > 10
        assert not any(trace.extrapolated)
        assert trace.inner_iterations == ref.inner_iterations
        assert all(np.array_equal(a, b) for a, b in zip(trace.iterates, ref.iterates))
        assert np.array_equal(alpha, ref_alpha)

    @pytest.mark.parametrize("lam1", [0.0, 0.01])
    def test_psd_gram_takes_the_plain_steps(self, lam1, monkeypatch):
        # A declared-PSD split is not marked indefinite.
        data = benchmark_data(0, 120)
        gram = gram_matrix(KernelSpec.rbf(1.0), data)
        obj = DcObjective.from_labels(decompose_gram(gram, 1e-6, psd=True), data.labels,
                                      lam=0.01, lam1=lam1)
        self.check_plain(obj, monkeypatch)

    def test_rounding_level_negative_part_takes_the_plain_steps(self, monkeypatch):
        # sigma = 100 makes K nearly all ones, and eigvalsh reports 41
        # eigenvalues of at least -1.0e-14 (TestPsdByKernel in
        # tests/test_model.py), far inside n eps ||K||_2 = 8.9e-12: they are
        # rounding, not an indefinite Gram.  The split keeps rho = tau, is not
        # marked indefinite, and the steps stay plain.
        data = benchmark_data(0, 200)
        decomp = decompose_gram(gram_matrix(KernelSpec.rbf(100.0), data), 1e-6)
        assert not decomp.indefinite and decomp.shift == 1e-6
        obj = DcObjective.from_labels(decomp, data.labels, 0.1, 0.01)
        self.check_plain(obj, monkeypatch)

    def test_extrapolates_exactly_on_splits_marked_indefinite(self, monkeypatch):
        # pla_fit reads the split's own field.  The RBF splits are built
        # after a TL1 split is freed, each in a fresh object that may take
        # its address: a mark kept by id() would make one of them extrapolate.
        data = benchmark_data(0, 120)
        tl1 = fit(ModelSpec("l1-riklr", lam=0.1, lam1=0.01), data)
        assert any(tl1.trace.extrapolated)
        freed = decompose_gram(gram_matrix(tl1.kernel, data), 1e-6)
        assert freed.indefinite
        freed_id = id(freed)
        del freed
        gram = gram_matrix(KernelSpec.rbf(100.0), data)
        ids = []
        for _ in range(3):
            for psd in (True, False):
                decomp = decompose_gram(gram, 1e-6, psd=psd)
                ids.append(id(decomp))
                assert not decomp.indefinite and decomp.shift == 1e-6
                obj = DcObjective.from_labels(decomp, data.labels, 0.1, 0.01)
                self.check_plain(obj, monkeypatch)
                del decomp, obj
        assert freed_id in ids

    def test_one_full_product_per_accepted_extrapolation(self, rng, monkeypatch):
        # An extrapolated anchor's K z and K- z combine the carried
        # products, so its f costs none; an accepted one costs its loss
        # gradient, one full product, and a rejected one nothing.
        obj, products, rows = TestProductBudget().counted_objective(rng)
        inside = TestProductBudget.count_inside_solves(products, rows, monkeypatch)
        evaluations = [0]
        value = iklogit.solver.f_value

        def counting_f_value(*args):
            evaluations[0] += 1
            return value(*args)

        monkeypatch.setattr(iklogit.solver, "f_value", counting_f_value)
        _, trace = pla_fit(obj, SolverConfig())
        assert trace.status == CONVERGED
        accepted = sum(trace.extrapolated)
        # f at the start, at each iterate and at each extrapolated anchor.
        rejected = evaluations[0] - 1 - trace.num_iterations - accepted
        assert accepted > 0 and rejected > 0
        assert len(products) - inside["products"] == 1 + accepted
        assert len(rows) == inside["rows"]

    def test_plain_baseline_is_unchanged(self, monkeypatch):
        # The benchmark's n = 500 TL1 fit in the plain loop takes its 464
        # outer and 3,236 inner iterations, and ends at its f bitwise
        # (numpy 2.4 with OpenBLAS 0.3.31 on x86-64; another BLAS kernel
        # can move the last bits).  Extrapolated, it takes under a third of
        # the outer steps and ends lower.
        data = benchmark_data(0, 500)
        spec = ModelSpec("l1-riklr", lam=0.1, lam1=0.01)
        adca = fit(spec, data).trace
        monkeypatch.setattr(iklogit.solver, "EXTRAPOLATE", False)
        pla = fit(spec, data).trace
        assert pla.status == adca.status == CONVERGED
        assert pla.num_iterations == 464
        assert sum(pla.inner_iterations) == 3236
        assert pla.f_values[-1] == 0.669541956250504
        assert not any(pla.extrapolated)
        assert 3 * adca.num_iterations < pla.num_iterations
        assert adca.f_values[-1] < pla.f_values[-1]


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
