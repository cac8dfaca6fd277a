"""Regenerate reference.json, the stored outputs the checker compares with.

Usage (from the root of a source checkout):

    PYTHONPATH=src python3 bench/make_reference.py

The values come from the library's direct routes (the coupled bordered-KKT
solve and the dense inf-sup eigensolve), which also produce the n=24 rung
that the CLI's minimization route fails on.  Regenerate only when the
discretization itself changes, never to absorb a solver's error.
"""

import json

from stokesqp.stokes import (build_grid, error_norms, estimate_infsup_stokes,
                             manufactured_case, solve_stokes_coupled)

import check
import workloads


def _errors(n, tol):
    grid = build_grid(n)
    case = manufactured_case("taylor_green")
    velocity, pressure, _ = solve_stokes_coupled(grid, case, tol)
    return error_norms(velocity, pressure, case, grid)


def main():
    reference = {
        "stokes": {str(n): _errors(n, 1e-12) for n in workloads.STOKES_RUNGS},
        "converge": {str(n): _errors(n, 1e-10)
                     for n in workloads.CONVERGE_RUNGS},
        "infsup": {str(n): estimate_infsup_stokes(build_grid(n)).beta
                   for n in workloads.INFSUP_RUNGS},
    }
    check.REFERENCE.write_text(json.dumps(reference, indent=2, sort_keys=True)
                               + "\n")


if __name__ == "__main__":
    main()
