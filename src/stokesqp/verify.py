"""Seeded randomized property suites for the constrained-minimization core.

Each property re-derives its check from the returned (x, multiplier) pair --
stored residuals are never trusted.  The ``corrupt`` flag deliberately
perturbs every solver output before checking, so a run with it must report
failures; it exists to prove the harness can actually detect a broken
solver.  The homogeneity properties compare fresh solves against the
unperturbed direct solutions, which the flag leaves alone; their problems
share the instance's factors (``QpProblem.with_rhs``).  Instances are
drawn, solved and checked one at a time, keeping only each property's
running worst defect.
"""

from dataclasses import dataclass, replace

import numpy as np

from .qp import (MultiplierConsistencyError, QpProblem, check_optimality,
                 estimate_infsup, gradient, objective, recover_multiplier,
                 residual_scale, solve_kkt_direct, solve_nullspace,
                 solve_schur)
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


def _spd(rng, n):
    """G G.T + n I for a Gaussian n x n G, symmetrized exactly."""
    g = rng.standard_normal((n, n))
    a = g @ g.T + n * np.eye(n)
    return SparseOperator(0.5 * (a + a.T))


def random_problem(rng):
    """Random SPD quadratic with a full-row-rank Gaussian constraint block."""
    n = int(rng.integers(4, 51))
    m = int(rng.integers(1, n))
    a = _spd(rng, n)
    c = rng.standard_normal((m, n))
    b = rng.standard_normal(n)
    # half the instances exercise the inhomogeneous-constraint extension
    d = rng.standard_normal(m) if rng.random() < 0.5 else np.zeros(m)
    return QpProblem(a, b, SparseOperator(c), d)


def _corrupted(solution, rng):
    bump = 1e-3 * rng.standard_normal(solution.x.shape[0])
    return replace(solution, x=solution.x + bump)


#: the bound of each property, in report order
_BOUNDS = {"lemma_forward_projected_gradient": 1e-8,
           "lemma_reverse_no_feasible_descent": 1e-12,
           "multiplier_relation": 1e-8,
           "multiplier_uniqueness": 1e-8,
           "homogeneity_scaling": 1e-12,
           "homogeneity_constraint_shift": 1e-10,
           "infsup_two_form_equivalence": 1e-8}


def run_property_suite(seed, corrupt=False):
    """Run every property on 20 random instances; returns a list of
    PropertyResult in fixed order.

    At most one instance is alive at a time (each is checked before the
    next is drawn): a QpProblem holds its factor of A, and SuperLU keeps
    tens of KB of workspace per factor.
    """
    rng = np.random.default_rng(seed)
    worst = dict.fromkeys(_BOUNDS, -np.inf)

    def record(name, defect):
        worst[name] = max(worst[name], defect)

    for i in range(20):
        problem = random_problem(rng)
        outs = [solve_kkt_direct(problem), solve_nullspace(problem),
                solve_schur(problem)]
        if i < 5:  # checked now, so that no instance outlives its turn
            clean = outs[0]
            # J is quadratic: scaling (b, d) scales the solution pair exactly
            s2 = solve_kkt_direct(problem.with_rhs(2.0 * problem.b,
                                                   2.0 * problem.d))
            record("homogeneity_scaling", max(
                np.linalg.norm(s2.x - 2.0 * clean.x)
                / max(np.linalg.norm(clean.x), 1e-300),
                np.linalg.norm(s2.multiplier - 2.0 * clean.multiplier)
                / max(np.linalg.norm(clean.multiplier), 1e-300)))
            # shifting b by C.T mu moves the multiplier by -mu, not x
            mu = rng.standard_normal(problem.n_constraints)
            s2 = solve_kkt_direct(problem.with_rhs(
                problem.b + problem.C.apply_transpose(mu), problem.d))
            record("homogeneity_constraint_shift", max(
                np.linalg.norm(s2.x - clean.x)
                / max(np.linalg.norm(clean.x), 1.0),
                np.linalg.norm(s2.multiplier - (clean.multiplier - mu))
                / max(np.linalg.norm(clean.multiplier), 1.0)))
        if corrupt:
            outs = [_corrupted(s, rng) for s in outs]
        for s in outs:
            # minimizing over the subspace <=> the projected gradient vanishes
            rep = check_optimality(problem, s.x, 1e-8)
            record("lemma_forward_projected_gradient",
                   max(rep.projected_gradient_norm, rep.feasibility_norm))
            # the gradient at the minimizer is exactly C.T times the multiplier
            r = (gradient(problem, s.x)
                 - problem.C.apply_transpose(s.multiplier))
            record("multiplier_relation",
                   np.linalg.norm(r) / residual_scale(problem, s.x))
        x, lam = outs[0].x, outs[0].multiplier
        # no feasible move away from the solver's point lowers the objective
        z = problem.kernel_basis
        scale, j0 = residual_scale(problem, x), objective(problem, x)
        for r in rng.standard_normal((z.shape[1], 50)).T:
            record("lemma_reverse_no_feasible_descent",
                   (j0 - objective(problem, x + z @ r)) / scale)
        # recovery from x alone reproduces the solver's multiplier
        try:
            drift = np.linalg.norm(recover_multiplier(problem, x, 1e-8) - lam)
        except MultiplierConsistencyError:
            drift = np.inf
        record("multiplier_uniqueness", drift / max(np.linalg.norm(lam), 1.0))

    # the inf-sup constant agrees between its two variational forms
    for _ in range(5):
        n = int(rng.integers(6, 16))
        m = int(rng.integers(2, n - 1))
        a, mq = _spd(rng, n), _spd(rng, m)  # draw order fixes the reports
        c = SparseOperator(rng.standard_normal((m, n)))
        problem = QpProblem(a, np.zeros(n), c, np.zeros(m))
        e1 = estimate_infsup(problem, mq, "dual_form")
        e2 = estimate_infsup(problem, mq, "primal_form")
        record("infsup_two_form_equivalence", abs(e1.beta - e2.beta))

    return [PropertyResult(name, worst[name], bound)
            for name, bound in _BOUNDS.items()]
