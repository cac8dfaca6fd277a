"""Seeded randomized property suites for the constrained-minimization core.

Each property re-derives its check from the returned (x, multiplier) pair --
stored residuals are never trusted.  The ``corrupt`` flag deliberately
perturbs every solver output before checking, so a run with it must report
failures; it exists to prove the harness can actually detect a broken
solver.  The homogeneity properties compare fresh solves against the
unperturbed direct solutions, which the flag leaves alone.
"""

from dataclasses import dataclass, replace

import numpy as np

from .qp import (MultiplierConsistencyError, QpProblem, check_optimality,
                 estimate_infsup, gradient, objective, recover_multiplier,
                 residual_scale, solve_kkt_direct, solve_nullspace,
                 solve_schur)
from .solvers import kernel_basis
from .sparse import SparseOperator


@dataclass(frozen=True)
class PropertyResult:
    """One property's worst measured defect against its bound; a failure
    that leaves no defect to measure records ``worst = inf``."""

    name: str
    worst: float
    bound: float

    def __post_init__(self):
        object.__setattr__(self, "worst", float(self.worst))
        object.__setattr__(self, "bound", float(self.bound))

    @property
    def passed(self):
        return self.worst <= self.bound


def random_problem(rng):
    """Random SPD quadratic with a full-row-rank Gaussian constraint block."""
    n = int(rng.integers(4, 51))
    m = int(rng.integers(1, n))
    g = rng.standard_normal((n, n))
    a = g @ g.T + n * np.eye(n)
    a = 0.5 * (a + a.T)
    c = rng.standard_normal((m, n))
    b = rng.standard_normal(n)
    # half the instances exercise the inhomogeneous-constraint extension
    d = rng.standard_normal(m) if rng.random() < 0.5 else np.zeros(m)
    return QpProblem(SparseOperator(a), b, SparseOperator(c), d)


def _corrupted(solution, rng):
    bump = 1e-3 * rng.standard_normal(solution.x.shape[0])
    return replace(solution, x=solution.x + bump)


def run_property_suite(seed, corrupt=False):
    """Run every property on 20 random instances; returns a list of
    PropertyResult in fixed order."""
    rng = np.random.default_rng(seed)
    problems = [random_problem(rng) for _ in range(20)]
    solved, clean_direct = [], []
    for problem in problems:
        outs = [solve_kkt_direct(problem), solve_nullspace(problem),
                solve_schur(problem)]
        clean_direct.append(outs[0])
        if corrupt:
            outs = [_corrupted(s, rng) for s in outs]
        solved.append((problem, outs))

    results = []

    # minimizing over the subspace <=> the projected gradient vanishes
    worst = 0.0
    for problem, outs in solved:
        for s in outs:
            rep = check_optimality(problem, s.x, 1e-8)
            worst = max(worst, rep.projected_gradient_norm,
                        rep.feasibility_norm)
    results.append(PropertyResult("lemma_forward_projected_gradient",
                                  worst, 1e-8))

    # no feasible move away from the solver's point lowers the objective
    worst = -np.inf
    for problem, outs in solved:
        z = kernel_basis(problem.svd[2])
        x = outs[0].x
        scale = residual_scale(problem, x)
        j0 = objective(problem, x)
        steps = rng.standard_normal((z.shape[1], 50))
        for r in steps.T:
            drop = j0 - objective(problem, x + z @ r)
            worst = max(worst, drop / scale)
    results.append(PropertyResult("lemma_reverse_no_feasible_descent",
                                  worst, 1e-12))

    # the gradient at the minimizer is exactly C.T times the multiplier
    worst = 0.0
    for problem, outs in solved:
        for s in outs:
            r = gradient(problem, s.x) - problem.C.csr.T @ s.multiplier
            worst = max(worst,
                        np.linalg.norm(r) / residual_scale(problem, s.x))
    results.append(PropertyResult("multiplier_relation", worst, 1e-8))

    # recovery from x alone reproduces the solver's multiplier
    worst = 0.0
    for problem, outs in solved:
        try:
            lam = recover_multiplier(problem, outs[0].x, 1e-8)
        except MultiplierConsistencyError:
            worst = np.inf
            break
        denom = max(np.linalg.norm(outs[0].multiplier), 1.0)
        worst = max(worst,
                    np.linalg.norm(lam - outs[0].multiplier) / denom)
    results.append(PropertyResult("multiplier_uniqueness", worst, 1e-8))

    # J is quadratic: scaling (b, d) scales the solution pair exactly
    worst = 0.0
    for problem, s in zip(problems[:5], clean_direct):
        alpha = 2.0
        scaled = QpProblem(problem.A, alpha * problem.b, problem.C,
                           alpha * problem.d)
        s2 = solve_kkt_direct(scaled)
        worst = max(worst,
                    np.linalg.norm(s2.x - alpha * s.x)
                    / max(np.linalg.norm(s.x), 1e-300),
                    np.linalg.norm(s2.multiplier - alpha * s.multiplier)
                    / max(np.linalg.norm(s.multiplier), 1e-300))
    results.append(PropertyResult("homogeneity_scaling", worst, 1e-12))

    # shifting b by C.T mu moves the multiplier by -mu and leaves x alone
    worst = 0.0
    for problem, s in zip(problems[:5], clean_direct):
        mu = rng.standard_normal(problem.n_constraints)
        shifted = QpProblem(problem.A, problem.b + problem.C.csr.T @ mu,
                            problem.C, problem.d)
        s2 = solve_kkt_direct(shifted)
        worst = max(worst,
                    np.linalg.norm(s2.x - s.x)
                    / max(np.linalg.norm(s.x), 1.0),
                    np.linalg.norm(s2.multiplier - (s.multiplier - mu))
                    / max(np.linalg.norm(s.multiplier), 1.0))
    results.append(PropertyResult("homogeneity_constraint_shift",
                                  worst, 1e-10))

    # the inf-sup constant agrees between its two variational forms
    worst = 0.0
    for _ in range(5):
        n = int(rng.integers(6, 16))
        m = int(rng.integers(2, n - 1))
        g = rng.standard_normal((n, n))
        a = g @ g.T + n * np.eye(n)
        h = rng.standard_normal((m, m))
        mq = h @ h.T + m * np.eye(m)
        c = SparseOperator(rng.standard_normal((m, n)))
        problem = QpProblem(SparseOperator(0.5 * (a + a.T)), np.zeros(n), c,
                            np.zeros(m))
        mop = SparseOperator(0.5 * (mq + mq.T))
        e1 = estimate_infsup(problem, mop, "dual_form")
        e2 = estimate_infsup(problem, mop, "primal_form")
        worst = max(worst, abs(e1.beta - e2.beta))
    results.append(PropertyResult("infsup_two_form_equivalence", worst, 1e-8))

    return results
