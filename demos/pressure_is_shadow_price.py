"""Show that the Stokes pressure is the shadow price of a mass source.

Let J*(d) = min { 0.5 u.T A u - b.T u : B u = d } be the least viscous
energy the flow reaches when cell volumes may gain or lose the mass d.  The
Lagrangian 0.5 u.T A u - b.T u - p.T (B u - d) gives dJ*/dd = p: the
multiplier of the divergence constraint, the pressure, is what the optimal
energy pays per unit of source.  Here the source is d = +-eps g with
g = e_k - 1/N_p, mass put into cell k and taken out evenly everywhere, so
that d stays in range(B), whose complement is the constant.  J* is quadratic
in d, so the central difference (J*(eps g) - J*(-eps g)) / (2 eps) equals
p.g = p_k - mean(p) up to rounding, and p has zero mean.

Every solve is the QP core's Schur route (``solve_schur``) on the Stokes
problem with d != 0 (``stokes_problem(...).with_rhs``): B and B.T as
stencils on the grid, each A-solve by fast diagonalization, no matrix
assembled or factored.
"""

import numpy as np

from stokesqp import build_grid, manufactured_case, solve_schur, stokes_problem

n = 16
grid = build_grid(n)
problem = stokes_problem(grid, manufactured_case("taylor_green"))


def solve(d):
    """Velocity and zero-mean pressure of the flow with mass source d."""
    saddle = solve_schur(problem.with_rhs(problem.b, d), 1e-12)
    return saddle.x, saddle.multiplier


def optimal_energy(d):
    u, _ = solve(d)
    return 0.5 * u @ problem.A.apply(u) - problem.b @ u


_, p = solve(np.zeros(grid.n_pressure))
eps = grid.h ** 2                    # the scale of B u: h times h-size fluxes
print(f"manufactured vortex flow on a {n} x {n} staggered grid; source "
      f"eps = {eps:g} in one cell, balanced evenly")
print(f"{'cell (i, j)':>12s} {'dJ*/d(eps)':>14s} {'p.g':>14s} "
      f"{'difference':>11s}")
for i, j in ((0, 0), (0, n // 2), (n // 4, n // 4), (n // 2, n - 1),
             (n - 1, n - 1)):
    g = np.full(grid.n_pressure, -1.0 / grid.n_pressure)
    g[i * n + j] += 1.0
    slope = (optimal_energy(eps * g) - optimal_energy(-eps * g)) / (2 * eps)
    price = p @ g
    print(f"{f'({i}, {j})':>12s} {slope:14.8f} {price:14.8f} "
          f"{abs(slope - price):11.2e}")
print("the pressure in each cell is the marginal energy of a unit source "
      "there")
