"""Refine the staggered grid and tabulate velocity/pressure errors and the
discrete inf-sup constant.

The velocity error should shrink at second order in h.  The inf-sup
constant beta(h) stays bounded away from zero but keeps creeping downward
over these resolutions, so its spread across grids is part of the story,
not a bug in the eigensolver.
"""

import numpy as np

from stokesqp import (build_grid, error_norms, estimate_infsup_stokes,
                      manufactured_case, solve_stokes_coupled,
                      stokes_problem)

case = manufactured_case("taylor_green")
levels = (4, 8, 16, 32)

print("case: taylor_green (vortex velocity, cosine-product pressure)")
print(f"{'n':>4s} {'h':>10s} {'l2_u':>12s} {'order':>7s} "
      f"{'l2_p':>12s} {'order':>7s} {'beta':>10s}")

previous = None
for n in levels:
    grid = build_grid(n)
    saddle = solve_stokes_coupled(stokes_problem(grid, case), 1e-12)
    err = error_norms(saddle.x, saddle.multiplier, case, grid)
    beta = estimate_infsup_stokes(grid).beta
    if previous is None:
        order_u = order_p = "-"
    else:
        order_u = f"{np.log2(previous['l2_u'] / err['l2_u']):7.3f}"
        order_p = f"{np.log2(previous['l2_p'] / err['l2_p']):7.3f}"
    print(f"{n:4d} {grid.h:10.6f} {err['l2_u']:12.6e} {order_u:>7s} "
          f"{err['l2_p']:12.6e} {order_p:>7s} {beta:10.6f}")
    previous = err

print("\nvelocity orders should sit near 2; beta stays positive but its")
print("max/min spread over these grids is still above 1.1")
