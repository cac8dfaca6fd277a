"""Command-line interface: solve problem directories, run Stokes studies,
and execute the randomized verification suites.

Exit codes form the machine contract:
  0  success (all gates and contracts met)
  1  verification property failure
  2  solver failure (non-convergence, singular system, broken recovery)
  3  malformed input or violated precondition
  4  study gate failure (convergence order or inf-sup variation out of band)

A default lives in one place: ``_FLAGS`` holds every flag's, and
``_SUBCOMMANDS`` each command's handler and the defaults it changes.
Commands raise on failure, and ``run`` alone maps the failure's class to
its code: ValueError or FileNotFoundError to 3, ``_SOLVER_ERRORS`` to 2.
``run`` also holds numpy's and scipy's OpenBLAS pools at one thread while a
command runs (``solvers.serial_blas``).

All output files are written by ``mmio`` and are byte-deterministic for fixed
inputs and seed: floats are written in shortest round-trip form, JSON keys
are sorted, and no timestamps or environment data are recorded.
"""

import argparse
import sys
from pathlib import Path

import numpy as np

from . import mmio
from .qp import (estimate_infsup, load_problem, save_solution,
                 solve_kkt_direct, solve_nullspace, solve_schur)
from .solvers import (DEFAULT_TOL, ConvergenceError, SingularSystemError,
                      serial_blas)
from .sparse import SparseOperator
from .stokes import (build_grid, error_norms, estimate_infsup_stokes,
                     manufactured_case, solve_stokes_coupled,
                     solve_stokes_minimization, stokes_problem,
                     write_fields_csv)
from .verify import run_property_suite

EXIT_OK = 0
EXIT_PROPERTY_FAILURE = 1
EXIT_SOLVER_FAILURE = 2
EXIT_BAD_INPUT = 3
EXIT_STUDY_GATE = 4

_SOLVERS = {
    "direct": solve_kkt_direct,
    "nullspace": solve_nullspace,
    "schur": solve_schur,
}

_SOLVER_ERRORS = (ConvergenceError, SingularSystemError)


def _err(message):
    print(f"error: {message}", file=sys.stderr)


def _output_dir(args):
    """--output, else the input directory, else the working one."""
    return args.output or vars(args).get("input_dir") or Path(".")


def _rel(diff, reference):
    return float(diff / reference) if reference > 0.0 else float(diff)


def cmd_qp_solve(args):
    if args.input_dir is None:
        raise ValueError("qp-solve requires --input")
    problem = load_problem(args.input_dir)
    solution = _SOLVERS[args.method](problem, args.tol)
    beta = None
    if args.infsup:
        beta = estimate_infsup(
            problem, SparseOperator.identity(problem.n_constraints)).beta
    save_solution(_output_dir(args), solution, beta)
    return EXIT_OK


def _solve_block(saddle, case, grid):
    return {
        "residual_stationarity": saddle.residual_stationarity,
        "residual_feasibility": saddle.residual_feasibility,
        "divergence_relative": _rel(saddle.residual_feasibility,
                                    float(np.linalg.norm(saddle.x))),
        "errors": error_norms(saddle.x, saddle.multiplier, case, grid),
    }


def cmd_stokes(args):
    case = manufactured_case(args.case_id)
    grid = build_grid(args.n)
    problem = stokes_problem(grid, case)
    s1 = solve_stokes_coupled(problem, args.tol)
    s2 = solve_stokes_minimization(problem, args.tol)
    out = _output_dir(args)
    write_fields_csv(out / "fields_coupled.csv", grid, s1.x, s1.multiplier)
    write_fields_csv(out / "fields_minimization.csv", grid, s2.x,
                     s2.multiplier)
    du = float(np.linalg.norm(s1.x - s2.x))
    dp = float(np.linalg.norm(s1.multiplier - s2.multiplier))
    report = {
        "case": case.case_id,
        "n": grid.n,
        "h": grid.h,
        "tol": args.tol,
        "coupled": _solve_block(s1, case, grid),
        "minimization": _solve_block(s2, case, grid),
        "discrepancy": {
            "velocity_relative": _rel(du, float(np.linalg.norm(s1.x))),
            "pressure_relative": _rel(
                dp, float(np.linalg.norm(s1.multiplier))),
        },
    }
    mmio.write_json(out / "stokes_report.json", report)
    return EXIT_OK


def _face_average(func, xs, ys, h):
    # 2x2 Gauss product rule over the h-by-h square around each point
    off = h / (2.0 * np.sqrt(3.0))
    acc = 0.0
    for sx in (-off, off):
        for sy in (-off, off):
            acc = acc + func(xs + sx, ys + sy)
    return 0.25 * acc


def _injected_fields(grid, case):
    """Cell-averaged exact fields as flat (velocity, pressure): they differ
    from point samples at O(h^2).

    Used as a harness self-test: the order pipeline must report the known
    order of this sampling discrepancy without any solver in the loop.
    """
    ux, uy = grid.u_coordinates()
    vx, vy = grid.v_coordinates()
    px, py = grid.p_coordinates()
    u = np.concatenate([_face_average(case.u_exact, ux, uy, grid.h).ravel(),
                        _face_average(case.v_exact, vx, vy, grid.h).ravel()])
    return u, _face_average(case.p_exact, px, py, grid.h).ravel()


def cmd_converge(args):
    if len(args.n_list) < 2:
        raise ValueError(
            "need at least two grid sizes to compute an observed order")
    if list(args.n_list) != sorted(set(args.n_list)):
        raise ValueError(
            f"grid sizes must be strictly ascending, got {args.n_list}")
    case = manufactured_case(args.case_id)
    rows = []
    for n in args.n_list:
        grid = build_grid(int(n))
        if args.inject_exact:
            u, p = _injected_fields(grid, case)
        else:
            saddle = solve_stokes_coupled(stokes_problem(grid, case), args.tol)
            u, p = saddle.x, saddle.multiplier
        rows.append((grid, error_norms(u, p, case, grid)))

    lines = ["n,h,l2_u,l2_p,linf_u,order_u,order_p"]

    def observed_order(prev_err, cur_err, ratio):
        # an exactly-reproduced field leaves no error to take an order from
        if prev_err <= 0.0 or cur_err <= 0.0:
            return None
        return float(np.log(prev_err / cur_err) / ratio)

    order_u = None
    for k, (grid, err) in enumerate(rows):
        if k == 0:
            ou = op = ""
        else:
            prev_grid, prev = rows[k - 1]
            ratio = np.log(grid.n / prev_grid.n)
            order_u = observed_order(prev["l2_u"], err["l2_u"], ratio)
            order_p = observed_order(prev["l2_p"], err["l2_p"], ratio)
            ou = "" if order_u is None else repr(order_u)
            op = "" if order_p is None else repr(order_p)
        lines.append(f"{grid.n},{grid.h!r},{err['l2_u']!r},{err['l2_p']!r},"
                     f"{err['linf_u']!r},{ou},{op}")
    mmio.write_text(_output_dir(args) / "convergence.csv",
                    "\n".join(lines) + "\n")
    if order_u is None or not 1.8 <= order_u <= 2.2:
        _err(f"observed velocity order {order_u} outside [1.8, 2.2]")
        return EXIT_STUDY_GATE
    return EXIT_OK


def cmd_infsup(args):
    if args.input_dir is not None:
        # constraint block of a problem directory, identity multiplier metric
        problem = load_problem(args.input_dir)
        mq = SparseOperator.identity(problem.n_constraints)
        dual = estimate_infsup(problem, mq, "dual_form")
        primal = estimate_infsup(problem, mq, "primal_form")
        mmio.write_json(_output_dir(args) / "infsup.json", {
            "beta_dual": dual.beta,
            "beta_primal": primal.beta,
            "form_difference": abs(dual.beta - primal.beta),
            "constraints": problem.n_constraints,
            "unknowns": problem.n_primal,
        })
        return EXIT_OK

    if not args.n_list:
        raise ValueError("need --n-list or --input for an inf-sup study")
    values = [estimate_infsup_stokes(build_grid(n)).beta for n in args.n_list]
    lines = ["n,h,beta"] + [f"{n},{1.0 / n!r},{b!r}"
                            for n, b in zip(args.n_list, values)]
    mmio.write_text(_output_dir(args) / "infsup.csv", "\n".join(lines) + "\n")
    spread = max(values) / min(values) if min(values) > 0.0 else np.inf
    if min(values) <= 0.0 or spread >= 1.1:
        _err(f"inf-sup gate failed: min beta {min(values)!r}, "
             f"max/min {spread!r} (requires min > 0 and max/min < 1.1)")
        return EXIT_STUDY_GATE
    return EXIT_OK


def cmd_verify(args):
    results = run_property_suite(args.seed, corrupt=args.corrupt)
    lines = []
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        lines.append(f"PROPERTY {r.name}: {status} "
                     f"(worst {r.worst!r}, bound {r.bound!r})")
    print("\n".join(lines))
    if args.output is not None:
        mmio.write_json(args.output / "verify_report.json", {
            "seed": args.seed,
            "corrupt": args.corrupt,
            "properties": [
                {"name": r.name, "passed": r.passed,
                 "worst": r.worst if np.isfinite(r.worst) else None,
                 "bound": r.bound}
                for r in results
            ],
            "all_passed": all(r.passed for r in results),
        })
    return EXIT_OK if all(r.passed for r in results) else EXIT_PROPERTY_FAILURE


def _parse_n_list(text):
    # int() refuses an empty item, so "8,,16" and "8,16," are usage errors
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {text!r}") from None


class _Parser(argparse.ArgumentParser):
    """Route argparse usage errors to the malformed-input exit code."""

    def error(self, message):
        self.print_usage(sys.stderr)
        _err(message)
        raise SystemExit(EXIT_BAD_INPUT)


#: every flag with its argparse settings and default (None where none is
#: given); each subcommand takes a subset
_FLAGS = {
    "--input": dict(type=Path, dest="input_dir",
                    help="problem directory (A.mtx, C.mtx, b.txt[, d.txt])"),
    "--output": dict(type=Path,
                     help="directory for reports and fields (default: the "
                          "input directory if given, else the working one)"),
    "--n": dict(type=int, help="cells per side"),
    "--n-list": dict(type=_parse_n_list, default=(),
                     help="comma-separated grid sizes, e.g. 8,16,32"),
    "--case": dict(dest="case_id", default="taylor_green",
                   choices=("taylor_green", "polynomial")),
    "--tol": dict(type=float, default=DEFAULT_TOL),
    "--method": dict(default="direct", choices=tuple(_SOLVERS)),
    "--seed": dict(type=int, default=0),
    "--infsup": dict(action="store_true",
                     help="also estimate the constraint inf-sup constant"),
    "--corrupt": dict(action="store_true",
                      help="perturb solver outputs; the suite must then fail"),
    "--inject-exact": dict(action="store_true", help="bypass the solver and "
                           "grade exact-field sampling"),
}

#: (handler, help, flags read, defaults that differ from _FLAGS') per
#: subcommand; any other flag is a usage error, and flags joined by "|"
#: exclude one another
_SUBCOMMANDS = {
    "qp-solve": (cmd_qp_solve,
                 "solve a problem directory and write the solution",
                 "--input --output --method --tol --infsup", {}),
    "stokes": (cmd_stokes,
               "run both Stokes formulations and report their agreement",
               "--n --case --tol --output", {"n": 16, "tol": 1e-12}),
    "converge": (cmd_converge,
                 "refinement study with observed convergence orders",
                 "--n-list --case --tol --inject-exact --output", {}),
    "infsup": (cmd_infsup,
               "inf-sup constants across grids or for a problem directory",
               "--n-list|--input --output", {}),
    "verify": (cmd_verify, "seeded randomized property suites",
               "--seed --corrupt --output", {}),
}


def build_parser():
    parser = _Parser(
        prog="stokesqp",
        description="Constrained quadratic minimization and staggered-grid "
                    "Stokes studies with Lagrange-multiplier verification.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (handler, help_text, flags, defaults) in _SUBCOMMANDS.items():
        # no abbreviations: a prefix such as --n must not reach --n-list
        p = sub.add_parser(name, help=help_text, allow_abbrev=False)
        for group in flags.split():
            names = group.split("|")
            target = p.add_mutually_exclusive_group() if len(names) > 1 else p
            for flag in names:
                target.add_argument(flag, **_FLAGS[flag])
        p.set_defaults(handler=handler, **defaults)
    return parser


def _check_ranges(opts):
    """The range checks argparse cannot express, on the flags parsed."""
    tol = opts.get("tol", DEFAULT_TOL)
    if not 0.0 < tol < np.inf:
        raise ValueError(f"tol must be positive and finite, got {tol}")
    n = opts.get("n")
    for size in opts.get("n_list", ()) + (() if n is None else (n,)):
        if size < 2:
            raise ValueError(f"grid size must be at least 2, got {size}")


def run(argv=None):
    args = build_parser().parse_args(argv)
    try:
        _check_ranges(vars(args))
        with serial_blas():
            return args.handler(args)
    except (ValueError, FileNotFoundError) as exc:
        # ValueError covers MatrixMarketError, RankDeficiencyError and
        # numpy.linalg.LinAlgError
        _err(str(exc))
        return EXIT_BAD_INPUT
    except _SOLVER_ERRORS as exc:
        _err(str(exc))
        return EXIT_SOLVER_FAILURE


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
