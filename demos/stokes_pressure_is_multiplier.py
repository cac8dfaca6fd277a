"""Show that the Stokes pressure is the Lagrange multiplier of the
divergence-free constraint, by computing it twice.

Route one solves the coupled velocity-pressure saddle system: it
eliminates the velocity and solves for the pressure by conjugate gradients
on the Schur complement B A^-1 B.T, each A-solve by fast diagonalization
(closed-form sine eigenbases of the grid stencils, no factorization).
Route two never mentions pressure while it solves: it minimizes the
viscous energy 0.5 u.T A u - f.T u over discretely divergence-free
velocity fields by projected CG, preconditioned by P A^-1 P + (I - P) with P
the projector onto Ker B (7 iterations at n = 16, 29 without it), and then
recovers the multiplier of the constraint B u = 0 as the least-squares
solution of B.T p = A u - f, i.e. from the normal equations
(B B.T) p = B (A u - f).  Up to the constant mode (fixed by zero-mean
normalization), the two pressures are the same object.
"""

import numpy as np

from stokesqp import (assemble_operators, build_grid, error_norms,
                      manufactured_case, solve_stokes_coupled,
                      solve_stokes_minimization, zero_mean_project)

n = 16
grid = build_grid(n)
case = manufactured_case("taylor_green")
print(f"manufactured vortex flow on a {n} x {n} staggered grid "
      f"(h = {grid.h})")

## Route one: velocity eliminated, CG on the pressure Schur complement ##
v1, p1, s1 = solve_stokes_coupled(grid, case, 1e-12)
print(f"coupled solve        : stationarity residual "
      f"{s1.residual_stationarity:.2e}, feasibility "
      f"{s1.residual_feasibility:.2e}, "
      f"{s1.inner_report.iterations} CG iterations")

## Route two: constrained energy minimization + multiplier recovery ##
v2, p2, s2 = solve_stokes_minimization(grid, case, 1e-12)
print(f"minimization solve   : stationarity residual "
      f"{s2.residual_stationarity:.2e}, feasibility "
      f"{s2.residual_feasibility:.2e}, "
      f"{s2.inner_report.iterations} preconditioned projected CG "
      "iterations")

## The two routes agree to solver precision ##
du = np.linalg.norm(v1.flat() - v2.flat()) / np.linalg.norm(v1.flat())
q1 = zero_mean_project(p1).flat()
q2 = zero_mean_project(p2).flat()
dp = np.linalg.norm(q1 - q2) / np.linalg.norm(q1)
print(f"velocity discrepancy : {du:.2e} (relative)")
print(f"pressure discrepancy : {dp:.2e} (relative, zero-mean)")

## Both velocities satisfy the constraint they were solved under ##
ops = assemble_operators(grid)
for tag, v in (("coupled", v1), ("minimization", v2)):
    div = np.linalg.norm(ops.B.apply(v.flat()))
    print(f"|B u| ({tag:12s}) : {div:.2e}")

## And both track the exact fields at second order ##
for tag, v, p in (("coupled", v1, p1), ("minimization", v2, p2)):
    err = error_norms(v, p, case, grid)
    print(f"errors ({tag:12s}) : l2_u = {err['l2_u']:.6e}, "
          f"l2_p = {err['l2_p']:.6e}")
