"""Acceptance battery: ten numbered end-to-end criteria.

Each test records a one-line summary through ``record_property``; the
terminal-summary hook in conftest prints "ACCEPTANCE n: PASS/FAIL/SKIP"
lines for the whole battery at the end of the run.  Tolerances here are
contractual; do not loosen them to make a run pass.

Criteria 8 and 9 (and the dataset legs of 1, 5, 6, and 10) need the UCI
benchmark files; runs without them skip those parts with a reason (see
scripts/fetch_uci.py).
"""

import warnings

import numpy as np
import pytest

import iklogit.solver

from iklogit import (
    DcObjective,
    KernelSpec,
    ModelSpec,
    SolverConfig,
    decompose_gram,
    fit,
    gram_matrix,
    pla_fit,
    rate_monitor,
)
from iklogit.experiment import (
    DEFAULT_GRID,
    ExperimentSpec,
    half_split,
    ingest_csv,
    run_experiment,
)
from iklogit.solver import CONVERGED, RATE_OK
from iklogit.spectral import sym_eigendecompose

from conftest import (
    UCI_FILES,
    bfactor,
    dataset_path,
    eigen_bfactor,
    eigen_kminus,
    eigen_kplus,
    f_at,
    g_value,
    grad_h_at,
    h_value,
    kminus,
    kplus,
    logistic_loss,
    random_dataset,
    separated_dataset,
    smooth_grad_g,
    solve_subproblem,
    write_csv,
)
from reference_solvers import (
    ref_inner_objective,
    ref_inner_prox_gradient,
    ref_klr_solve,
    ref_l1_klr_solve,
    central_difference_gradient,
)

TAU = 1e-6


def tl1_objective_seeded(seed, n, d, lam, lam1):
    r = np.random.default_rng(seed)
    data = random_dataset(r, n, d)
    gram = gram_matrix(KernelSpec.tl1().resolve(d), data)
    return DcObjective.from_labels(decompose_gram(gram, TAU), data.labels, lam, lam1)


def rbf_objective_seeded(seed, n, d, lam, lam1, sigma=1.0):
    r = np.random.default_rng(seed)
    data = random_dataset(r, n, d)
    gram = gram_matrix(KernelSpec.rbf(sigma), data)
    return DcObjective.from_labels(decompose_gram(gram, TAU), data.labels, lam, lam1)


def mostly_psd_objective_seeded(seed, n, lam, lam1):
    r = np.random.default_rng(seed)
    low_rank = r.normal(size=(n, 8))
    bump = r.normal(size=(n, n))
    gram = low_rank @ low_rank.T / 8 + 0.15 * (bump + bump.T) / 2
    y_signed = r.choice([-1.0, 1.0], size=n)
    return DcObjective(decompose_gram(gram, TAU), y_signed, lam=lam, lam1=lam1)


def present_uci_datasets():
    """(name, Dataset) for each user-supplied benchmark file that exists."""
    out = []
    for name in UCI_FILES:
        path = dataset_path(name)
        if path is not None:
            out.append((name, ingest_csv(str(path))))
    return out


def check_decomposition(gram):
    # The tau identities presuppose a mixed spectrum (the benchmark TL1
    # Grams all have one); confirm the premise before the checks.
    raw_eigs = np.linalg.eigvalsh(gram)
    assert raw_eigs[0] < 0 < raw_eigs[-1]
    k_norm = max(1.0, np.linalg.norm(gram))
    # The paper's eigen split, rebuilt from eigh and tau.  Independent
    # eigensolves confirm both shifted parts sit at tau.
    kp, km, b = eigen_kplus(gram, TAU), eigen_kminus(gram, TAU), eigen_bfactor(gram, TAU)
    assert np.linalg.norm((kp - km) - gram) <= 1e-8 * k_norm
    assert abs(np.linalg.eigvalsh(kp)[0] - TAU) <= 1e-12
    assert abs(np.linalg.eigvalsh(km)[0] - TAU) <= 1e-12
    assert np.linalg.norm(b.T @ b - kp) <= 1e-8 * max(1.0, np.linalg.norm(kp))
    # The shift split the fit uses: K- = rho I with rho = tau - mu_n >= tau,
    # so K+ = K + rho I sits at tau.
    decomp = decompose_gram(gram, TAU)
    kp, km, b = kplus(decomp), kminus(decomp), bfactor(decomp)
    assert decomp.indefinite and decomp.shift >= TAU
    assert abs(decomp.shift - (TAU - raw_eigs[0])) <= 1e-12
    assert np.linalg.norm((kp - km) - gram) <= 1e-8 * k_norm
    assert abs(np.linalg.eigvalsh(kp)[0] - TAU) <= 1e-12
    assert np.linalg.norm(b.T @ b - kp) <= 1e-8 * max(1.0, np.linalg.norm(kp))


def mixed_spectrum_matrix(r, n, kind):
    """Symmetric matrix with both eigenvalue signs and a controlled mix."""
    basis, _ = np.linalg.qr(r.normal(size=(n, n)))
    scale = float(r.uniform(0.1, 5.0))
    if kind == 0:
        eigvals = r.uniform(-1.0, 1.0, size=n)
    elif kind == 1:
        eigvals = r.uniform(0.05, 1.0, size=n)
        eigvals[-1] = -float(r.uniform(0.05, 1.0))
    elif kind == 2:
        eigvals = -r.uniform(0.05, 1.0, size=n)
        eigvals[0] = float(r.uniform(0.05, 1.0))
    else:
        # A large positive bulk with a tiny negative tail, the TL1 shape.
        eigvals = r.uniform(0.5, 1.0, size=n)
        eigvals[-1] = -float(r.uniform(0.001, 0.05))
    eigvals = eigvals * scale
    eigvals[0] = abs(eigvals[0])
    eigvals[-1] = -abs(eigvals[-1])
    return (basis * eigvals) @ basis.T


def test_criterion_01_decomposition_correctness(tmp_path, record_property):
    r = np.random.default_rng(101)
    for i in range(50):
        n = int(r.integers(2, 31))
        check_decomposition(mixed_spectrum_matrix(r, n, i % 4))

    ingested = []
    for seed, n, d in [(113, 30, 3), (114, 25, 2)]:
        data = random_dataset(np.random.default_rng(seed), n, d)
        path = write_csv(tmp_path / f"synthetic{seed}.csv", data.features, data.labels)
        ingested.append((f"synthetic{seed}", ingest_csv(str(path))))
    ingested.extend(present_uci_datasets())
    for name, data in ingested:
        gram = gram_matrix(KernelSpec.tl1().resolve(data.d), data)
        check_decomposition(gram)

    record_property(
        "acceptance_detail",
        f"50 random symmetric matrices and {len(ingested)} ingested TL1 Grams "
        f"({', '.join(name for name, _ in ingested)})",
    )


def test_criterion_02_dc_identity(record_property):
    instances = [
        tl1_objective_seeded(201, 15, 3, 0.5, 0.05),
        tl1_objective_seeded(202, 12, 4, 1.0, 0.0),
        rbf_objective_seeded(203, 10, 3, 0.3, 0.02),
        mostly_psd_objective_seeded(204, 12, 0.5, 0.1),
    ]
    r = np.random.default_rng(205)
    worst = 0.0
    for obj in instances:
        for _ in range(100):
            alpha = r.normal(size=obj.n) * float(r.uniform(0.1, 3.0))
            f = f_at(obj, alpha)
            gap = abs(f - (g_value(obj, alpha) - h_value(obj, alpha)))
            worst = max(worst, gap / (1.0 + abs(f)))
            assert gap <= 1e-10 * (1.0 + abs(f))
    record_property(
        "acceptance_detail",
        f"4 instances x 100 points, worst relative gap {worst:.2e} (tol 1e-10)",
    )


def test_criterion_03_gradient_checks(record_property):
    instances = [
        tl1_objective_seeded(301, 15, 3, 0.5, 0.05),
        mostly_psd_objective_seeded(302, 12, 0.7, 0.1),
        rbf_objective_seeded(303, 20, 3, 0.3, 0.0),
    ]
    r = np.random.default_rng(304)
    worst = 0.0
    for obj in instances:
        lam, kp = obj.lam, kplus(obj.decomp)

        def smooth_part(a, obj=obj, lam=lam, kplus=kp):
            return logistic_loss(obj, a) + 0.5 * lam * float(a @ (kplus @ a))

        def concave_part(a, obj=obj):
            return h_value(obj, a)

        for _ in range(20):
            point = r.normal(size=obj.n) * 0.5
            for fn, grad in [
                (smooth_part, smooth_grad_g(obj, point)),
                (concave_part, grad_h_at(obj, point)),
            ]:
                fd = central_difference_gradient(fn, point, step=1e-6)
                rel = np.linalg.norm(fd - grad) / max(1.0, np.linalg.norm(grad))
                worst = max(worst, rel)
                assert rel <= 1e-5
    record_property(
        "acceptance_detail",
        f"3 instances x 20 points, both gradients, worst relative error "
        f"{worst:.2e} (tol 1e-5)",
    )


def test_criterion_04_inner_solver_oracle(record_property):
    worst_gap, worst_residual = 0.0, 0.0
    for i in range(20):
        r = np.random.default_rng(800 + i)
        n = int(r.integers(4, 16))
        kind = i % 3
        if kind == 0:
            data = random_dataset(r, n, 3)
            gram = gram_matrix(KernelSpec.tl1().resolve(3), data)
        elif kind == 1:
            raw = r.normal(size=(n, n))
            gram = 0.5 * (raw + raw.T)
        else:
            data = random_dataset(r, n, 3)
            gram = gram_matrix(KernelSpec.rbf(1.0), data)
        decomp = decompose_gram(gram, TAU)
        y_signed = r.choice([-1.0, 1.0], size=n)
        lam = float(r.choice([0.1, 0.5, 1.0]))
        lam1 = float(r.choice([0.0, 0.01, 0.1]))
        obj = DcObjective(decomp, y_signed, lam=lam, lam1=lam1)
        gamma = float(r.choice([0.5, 1.0, 2.0]))
        omega = r.normal(size=n)
        anchor = r.normal(size=n) * 0.5
        cfg = SolverConfig(gamma=gamma, epsilon_inner=1e-8, max_inner=100_000)

        result = solve_subproblem(obj, omega, anchor, cfg)
        assert result.converged
        assert result.residual <= 1e-8
        reference = ref_inner_prox_gradient(
            gram, kplus(decomp), y_signed, lam, lam1, omega, anchor, gamma
        )
        args = (gram, kplus(decomp), y_signed, lam, lam1, omega, anchor, gamma)
        value_ours = ref_inner_objective(*args, result.alpha)
        value_ref = ref_inner_objective(*args, reference)
        gap = abs(value_ours - value_ref)
        assert gap <= 1e-6
        worst_gap = max(worst_gap, gap)
        worst_residual = max(worst_residual, result.residual)
    record_property(
        "acceptance_detail",
        f"20 subproblems, worst objective gap {worst_gap:.2e} (tol 1e-6), "
        f"worst residual {worst_residual:.2e} (tol 1e-8)",
    )


def descent_battery():
    """Converging solver runs standing in for benchmark executions."""
    runs = [
        ("tl1 dense", tl1_objective_seeded(501, 30, 4, 0.1, 0.0)),
        ("tl1 sparse", tl1_objective_seeded(502, 30, 4, 0.5, 0.05)),
        ("tl1 mild", tl1_objective_seeded(503, 24, 6, 1.0, 0.01)),
        ("mostly-psd", mostly_psd_objective_seeded(504, 12, 0.5, 0.05)),
        ("rbf dense", rbf_objective_seeded(505, 20, 3, 0.5, 0.0)),
        ("rbf sparse", rbf_objective_seeded(506, 18, 3, 0.3, 0.02)),
    ]
    for name, data in present_uci_datasets():
        gram = gram_matrix(KernelSpec.tl1().resolve(data.d), data)
        decomp = decompose_gram(gram, TAU)
        # Keep lambda * |mu_min| well under 1 so the run stays in the
        # basin a nonzero critical point lives in.
        mu_min = float(sym_eigendecompose(gram)[0][-1])
        lam = min(0.1, 0.1 / max(abs(mu_min), 1e-9))
        runs.append(
            (name, DcObjective.from_labels(decomp, data.labels, lam, 0.01))
        )
    return runs


def test_criterion_05_descent_and_terminal_residual(record_property, monkeypatch):
    # The descent inequality is a property of the plain loop's proximal
    # term; relinearized steps lower f by (lam rho / 2) ||step||^2 instead
    # (tests/test_solver.py, TestAdca).
    monkeypatch.setattr(iklogit.solver, "EXTRAPOLATE", False)
    cfg = SolverConfig()
    names = []
    for name, obj in descent_battery():
        alpha, trace = pla_fit(obj, cfg)
        assert trace.status == CONVERGED, name
        for k in range(trace.num_iterations):
            drop = trace.f_values[k] - trace.f_values[k + 1]
            required = trace.step_norms[k] ** 2 / (2.0 * cfg.gamma)
            assert drop >= required - 1e-12, (name, k)
        assert trace.stationarity_residuals[-1] <= 10.0 * cfg.epsilon_outer, name
        names.append(f"{name}({trace.num_iterations})")
    record_property(
        "acceptance_detail",
        "descent inequality at every step and terminal residual <= 10*epsilon "
        f"on {len(names)} runs: {', '.join(names)}",
    )


def test_criterion_06_qualitative_linear_rate(record_property):
    fertility = dataset_path("fertility")
    if fertility is not None:
        data = ingest_csv(str(fertility))
        train, _ = half_split(data, seed=0)
        model = fit(ModelSpec(variant="l1-riklr", lam=0.1, lam1=0.01), train)
        assert model.trace.status == CONVERGED
        estimate = rate_monitor(model.trace, model.alpha)
        assert estimate.status == RATE_OK
        assert estimate.m_hat < 1.0
        assert estimate.r_squared >= 0.9
        record_property(
            "acceptance_detail",
            f"fertility run: m_hat {estimate.m_hat:.3f} < 1, "
            f"R^2 {estimate.r_squared:.3f} >= 0.9 over {estimate.n_points} tail points",
        )
        return

    # No fertility file: prove the property on a synthetic stand-in, then
    # skip because the criterion names that dataset.
    obj = tl1_objective_seeded(615, 30, 5, 0.1, 0.0)
    alpha, trace = pla_fit(obj, SolverConfig())
    assert trace.status == CONVERGED
    estimate = rate_monitor(trace, alpha)
    assert estimate.status == RATE_OK
    assert estimate.m_hat < 1.0
    assert estimate.r_squared >= 0.9
    record_property(
        "acceptance_detail",
        f"fertility file absent; synthetic stand-in run gave m_hat "
        f"{estimate.m_hat:.3f} < 1 and R^2 {estimate.r_squared:.3f} >= 0.9",
    )
    pytest.skip(
        "fertility data not present; qualitative rate verified on a "
        "synthetic stand-in run (see scripts/fetch_uci.py)"
    )


def test_criterion_07_psd_reduction(record_property):
    statuses = []
    worst = 0.0
    for seed in (701, 702, 703, 704, 705):
        r = np.random.default_rng(seed)
        n = int(r.integers(12, 41))
        data = random_dataset(r, n, 3)
        sigma = float(r.uniform(0.8, 2.0))
        lam = float(r.choice([0.1, 0.3, 0.5, 1.0]))
        lam1 = float(r.choice([0.01, 0.02, 0.05]))
        gram = gram_matrix(KernelSpec.rbf(sigma), data)
        y_signed = 2.0 * data.labels - 1.0
        decomp = decompose_gram(gram, TAU)
        # Tight outer tolerance; the objective match matters, not the
        # status (flat RBF directions can crawl past the step rule).
        cfg = SolverConfig(epsilon_outer=1e-7, max_outer=2000)

        obj_smooth = DcObjective.from_labels(decomp, data.labels, lam, 0.0)
        alpha_smooth, trace_smooth = pla_fit(obj_smooth, cfg)
        _, ref_smooth = ref_klr_solve(gram, y_signed, lam)
        rel_smooth = abs(f_at(obj_smooth, alpha_smooth) - ref_smooth) / (
            1.0 + abs(ref_smooth)
        )
        assert rel_smooth <= 1e-4

        obj_l1 = DcObjective.from_labels(decomp, data.labels, lam, lam1)
        alpha_l1, trace_l1 = pla_fit(obj_l1, cfg)
        _, ref_l1 = ref_l1_klr_solve(gram, y_signed, lam, lam1)
        rel_l1 = abs(f_at(obj_l1, alpha_l1) - ref_l1) / (1.0 + abs(ref_l1))
        assert rel_l1 <= 1e-4

        worst = max(worst, rel_smooth, rel_l1)
        statuses.append(f"n={n}:{trace_smooth.status[:4]}/{trace_l1.status[:4]}")
    record_property(
        "acceptance_detail",
        f"5 datasets, both regularization modes, worst relative objective gap "
        f"{worst:.2e} (tol 1e-4); runs {', '.join(statuses)}",
    )


def protocol_spec(path, **kwargs):
    defaults = dict(
        path=str(path),
        variants=("l1-riklr",),
        grid=DEFAULT_GRID,
        repeats=10,
        cv_folds=5,
        base_seed=0,
    )
    defaults.update(kwargs)
    return ExperimentSpec(**defaults)


def test_criterion_08_accuracy_reproduction(record_property):
    targets = {"fertility": 0.882, "haberman": 0.736, "spect": 0.838}
    sparse_sets = {"fertility", "spect"}
    present = {
        name: path
        for name in targets
        if (path := dataset_path(name)) is not None
    }
    if not present:
        pytest.skip(
            "UCI files absent (fertility, haberman, spect); run "
            "scripts/fetch_uci.py to enable the accuracy reproduction check"
        )
    details = []
    for name, path in present.items():
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            rows = run_experiment(protocol_spec(path))
        row = rows[0]
        assert abs(row.mean_accuracy - targets[name]) <= 0.05, (
            f"{name}: mean accuracy {row.mean_accuracy:.3f} vs "
            f"paper-scale target {targets[name]} +/- 0.05"
        )
        if name in sparse_sets:
            train_half = (row.n + 1) // 2
            assert row.mean_selected <= 0.25 * train_half, (
                f"{name}: mean selected {row.mean_selected:.1f} above "
                f"25% of training size {train_half}"
            )
        details.append(
            f"{name}: {row.mean_accuracy:.3f} (target {targets[name]}), "
            f"selected {row.mean_selected:.1f}"
        )
    missing = sorted(set(targets) - set(present))
    if missing:
        details.append(f"missing files skipped: {', '.join(missing)}")
    record_property("acceptance_detail", "; ".join(details))


def test_criterion_09_spectrum_statistics(record_property):
    path = dataset_path("haberman")
    if path is None:
        pytest.skip(
            "haberman data not present; spectrum check needs the raw UCI "
            "file (see scripts/fetch_uci.py)"
        )
    data = ingest_csv(str(path))
    gram = gram_matrix(KernelSpec.tl1().resolve(data.d), data)
    eigvals, _ = sym_eigendecompose(gram)
    mu_min, mu_max = float(eigvals[-1]), float(eigvals[0])
    caveat = (
        "deviation may reflect ingestion preprocessing; the published "
        "statistics assume raw features"
    )
    assert abs(mu_min - (-0.204)) <= 0.01 * 0.204, (
        f"mu_min {mu_min:.4f} vs -0.204 +/- 1%: {caveat}"
    )
    assert abs(mu_max - 215.23) <= 0.01 * 215.23, (
        f"mu_max {mu_max:.2f} vs 215.23 +/- 1%: {caveat}"
    )
    record_property(
        "acceptance_detail",
        f"haberman TL1 spectrum mu_min {mu_min:.4f}, mu_max {mu_max:.2f} "
        "within 1% of the published values",
    )


def test_criterion_10_dense_model_sanity(tmp_path, record_property):
    data = separated_dataset(np.random.default_rng(1001), n=20)
    path = write_csv(tmp_path / "clusters.csv", data.features, data.labels)
    spec = protocol_spec(
        path, variants=("klr", "iklr"), grid=(0.1, 1.0), repeats=3, cv_folds=2
    )
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        rows = run_experiment(spec)
    details = []
    for row in rows:
        assert row.failed_repeats == []
        train_half = (row.n + 1) // 2
        assert all(count == train_half for count in row.selected), row.variant
        details.append(f"synthetic/{row.variant}: all runs {train_half}/{train_half}")

    haberman = dataset_path("haberman")
    if haberman is not None:
        spec = protocol_spec(
            haberman, variants=("klr", "iklr"), grid=(0.01, 1.0), repeats=2
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            rows = run_experiment(spec)
        for row in rows:
            assert all(count == 153 for count in row.selected), row.variant
            details.append(f"haberman/{row.variant}: all runs 153/153")
    else:
        details.append("haberman leg skipped (file absent)")
    record_property("acceptance_detail", "; ".join(details))
