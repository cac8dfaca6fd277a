"""Estimate the inf-sup constant of a constraint operator from both of its
equivalent eigenvalue formulations and confirm they agree.

beta measures how strongly the constraint rows C act on the primal space:
beta^2 is the smallest eigenvalue of the dual Schur pencil
(C A^-1 C.T, Mq), and equivalently of a primal pencil assembled from the
same blocks.  The estimate takes C and A as the blocks of a QpProblem,
which has already checked that C has full row rank; b and d play no part,
so they are zero here.  When the rows of C are orthonormal and both metrics
are the identity, C C.T = I makes the answer exactly one.
"""

import numpy as np

from stokesqp import QpProblem, SparseOperator, estimate_infsup

rng = np.random.default_rng(11)

## Random well-conditioned instance ##
n, m = 18, 6
g1 = rng.standard_normal((n, n))
g2 = rng.standard_normal((m, m))
a = SparseOperator.from_dense(g1 @ g1.T + n * np.eye(n), symmetric=True)
mq = SparseOperator.from_dense(g2 @ g2.T + m * np.eye(m), symmetric=True)
c = SparseOperator.from_dense(rng.standard_normal((m, n)))
problem = QpProblem(a, np.zeros(n), c, np.zeros(m))

dual = estimate_infsup(problem, mq, "dual_form")
primal = estimate_infsup(problem, mq, "primal_form")
print(f"random instance ({m} constraints on {n} unknowns)")
print(f"  beta from the dual Schur pencil  : {dual.beta:.15f}")
print(f"  beta from the primal pencil      : {primal.beta:.15f}")
print(f"  difference                       : "
      f"{abs(dual.beta - primal.beta):.2e}")

## The attaining constraint-space direction is a unit Mq-vector ##
q = dual.attaining_q
print(f"  attaining q: |q|_Mq = "
      f"{float(np.sqrt(q @ (mq.apply(q)))):.12f} (should be 1)")

## Projection special case: orthonormal rows, identity metrics ##
basis, _ = np.linalg.qr(rng.standard_normal((9, 4)))
projection = QpProblem(SparseOperator.identity(9), np.zeros(9),
                       SparseOperator.from_dense(basis.T), np.zeros(4))
for form in ("dual_form", "primal_form"):
    est = estimate_infsup(projection, SparseOperator.identity(4), form)
    print(f"projection case, {form:12s}: beta = {est.beta:.15f}")
