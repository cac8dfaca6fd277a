"""Solve one small equality-constrained quadratic three ways and watch the
multiplier do its job.

The minimizer x of J(v) = 0.5 v.T A v - b.T v subject to C v = d satisfies
the stationarity identity A x - b = C.T lam: the residual gradient is not
zero, it is exactly a combination of constraint rows, and lam holds the
coefficients.  Shifting b by C.T mu changes that combination but not the
minimizer itself.
"""

import numpy as np

from stokesqp import (QpProblem, SparseOperator, gradient, objective,
                      recover_multiplier, solve_kkt_direct, solve_nullspace,
                      solve_schur)

## The two-variable instance solvable by hand ##
problem = QpProblem(
    SparseOperator(np.eye(2)),
    np.array([1.0, 1.0]),
    SparseOperator([[1.0, 0.0]]),
    np.zeros(1))

print("hand instance: minimize 0.5|x|^2 - (1,1).x  subject to  x_0 = 0")
for tag, solve in (("direct", solve_kkt_direct),
                   ("nullspace", solve_nullspace),
                   ("schur", solve_schur)):
    sol = solve(problem, 1e-12)
    print(f"  {tag:10s} x = {sol.x}, lam = {sol.multiplier}, "
          f"J = {objective(problem, sol.x):.6f}")

## The stationarity identity, term by term ##
sol = solve_kkt_direct(problem, 1e-12)
grad = gradient(problem, sol.x)
print(f"\ngradient at the minimizer     : {grad}")
print(f"C.T lam                       : {problem.C.csr.T @ sol.multiplier}")
print(f"identity residual             : "
      f"{np.linalg.norm(grad - problem.C.csr.T @ sol.multiplier):.2e}")

## A bigger random instance: three solvers, one multiplier ##
rng = np.random.default_rng(7)
n, m = 24, 5
g = rng.standard_normal((n, n))
a = SparseOperator(g @ g.T + n * np.eye(n))
c = SparseOperator(rng.standard_normal((m, n)))
problem = QpProblem(a, rng.standard_normal(n), c, np.zeros(m))

print(f"\nrandom instance with {n} unknowns and {m} constraints")
reference = None
for tag, solve in (("direct", solve_kkt_direct),
                   ("nullspace", solve_nullspace),
                   ("schur", solve_schur)):
    sol = solve(problem, 1e-10)
    if reference is None:
        reference = sol.multiplier
    drift = np.linalg.norm(sol.multiplier - reference)
    print(f"  {tag:10s} |C x| = {np.linalg.norm(c.csr @ sol.x):.2e}, "
          f"multiplier drift vs direct = {drift:.2e}")

## The multiplier can also be recovered from x alone ##
sol = solve_kkt_direct(problem, 1e-10)
lam = recover_multiplier(problem, sol.x)
print(f"  least-squares recovery from x: drift = "
      f"{np.linalg.norm(lam - reference):.2e}")

## Forcing along the constraint rows moves lam, never x ##
mu = rng.standard_normal(m)
shifted = problem.with_rhs(problem.b + c.csr.T @ mu, problem.d)
sol2 = solve_kkt_direct(shifted, 1e-10)
print(f"\nafter adding C.T mu to the linear term:")
print(f"  |x' - x|         = {np.linalg.norm(sol2.x - sol.x):.2e}")
print(f"  |(lam - lam') - mu| = "
      f"{np.linalg.norm((sol.multiplier - sol2.multiplier) - mu):.2e}")
