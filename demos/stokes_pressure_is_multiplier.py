"""Show that the Stokes pressure is the Lagrange multiplier of the
divergence-free constraint, by computing it twice.

The discrete Stokes problem is a QP (``stokes_problem``), and two routes of
the QP core solve it.  Route one (``solve_schur``) eliminates the velocity
and solves for the pressure by conjugate gradients on the Schur complement
B A^-1 B.T, each A-solve by fast diagonalization (closed-form sine
eigenbases of the grid stencils, no factorization).  Route two
(``solve_projected_cg``) never mentions pressure while it solves: it
minimizes the viscous energy 0.5 u.T A u - f.T u over discretely
divergence-free velocity fields by preconditioned projected CG (7
iterations at n = 16, 29 without the preconditioner), then recovers the
multiplier of B u = 0 as the least-squares solution of B.T p = A u - f.
The velocity is each SaddleSolution's ``x``, the pressure its
``multiplier``; both pressures are zero-mean, so the two are compared as
they come: they are the same object.  Last, the inf-sup constant beta
controls that multiplier: beta |p|_Mp <= |b|_A^-1.
"""

import numpy as np

from stokesqp import (build_grid, error_norms, estimate_infsup_stokes,
                      manufactured_case, solve_projected_cg, solve_schur,
                      stokes_problem)

n = 16
grid = build_grid(n)
case = manufactured_case("taylor_green")
problem = stokes_problem(grid, case)
print(f"manufactured vortex flow on a {n} x {n} staggered grid "
      f"(h = {grid.h})")

## Route one: velocity eliminated, CG on the pressure Schur complement ##
s1 = solve_schur(problem, 1e-12)
print(f"coupled solve        : stationarity residual "
      f"{s1.residual_stationarity:.2e}, feasibility "
      f"{s1.residual_feasibility:.2e}, "
      f"{s1.inner_report.iterations} CG iterations")

## Route two: constrained energy minimization + multiplier recovery ##
s2 = solve_projected_cg(problem, 1e-12)
print(f"minimization solve   : stationarity residual "
      f"{s2.residual_stationarity:.2e}, feasibility "
      f"{s2.residual_feasibility:.2e}, "
      f"{s2.inner_report.iterations} preconditioned projected CG "
      "iterations")

## The two routes agree to solver precision ##
du = np.linalg.norm(s1.x - s2.x) / np.linalg.norm(s1.x)
dp = (np.linalg.norm(s1.multiplier - s2.multiplier)
      / np.linalg.norm(s1.multiplier))
print(f"velocity discrepancy : {du:.2e} (relative)")
print(f"pressure discrepancy : {dp:.2e} (relative, zero-mean)")

## Both velocities satisfy the constraint they were solved under ##
for tag, s in (("coupled", s1), ("minimization", s2)):
    div = np.linalg.norm(problem.C.apply(s.x))
    print(f"|B u| ({tag:12s}) : {div:.2e}")

## And both track the exact fields at second order ##
for tag, s in (("coupled", s1), ("minimization", s2)):
    err = error_norms(s.x, s.multiplier, case, grid)
    print(f"errors ({tag:12s}) : l2_u = {err['l2_u']:.6e}, "
          f"l2_p = {err['l2_p']:.6e}")

## The inf-sup constant bounds the multiplier: the ratio is at most 1 ##
# |b|_A^-1 = sqrt(b.T A^-1 b), with A^-1 b by fast diagonalization
b, p = problem.b, s1.multiplier
ratio = (estimate_infsup_stokes(grid).beta * np.sqrt(grid.h ** 2 * (p @ p))
         / np.sqrt(b @ problem.a_solve(b)))
print(f"beta |p|_Mp / |b|_A^-1 : {ratio:.3f} (at most 1)")
