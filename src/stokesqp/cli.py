"""Command-line interface: solve problem directories, run Stokes studies,
and execute the randomized verification suites.

Exit codes form the machine contract:
  0  success (all gates and contracts met)
  1  verification property failure
  2  solver failure (non-convergence, singular system, broken recovery)
  3  malformed input or violated precondition
  4  study gate failure (convergence order or inf-sup variation out of band)

Commands raise on failure, and ``run`` alone maps the failure's class to
its code: ValueError or FileNotFoundError to 3, ``_SOLVER_ERRORS`` to 2.

All output files are byte-deterministic for fixed inputs and seed: floats are
written in shortest round-trip form, JSON keys are sorted, and no timestamps
or environment data are recorded.
"""

import argparse
import json
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .qp import (MultiplierConsistencyError, estimate_infsup, load_problem,
                 save_solution, solve_kkt_direct, solve_nullspace, solve_schur)
from .solvers import ConvergenceError, SingularSystemError
from .sparse import SparseOperator
from .stokes import (PressureField, VelocityField, build_grid, error_norms,
                     estimate_infsup_stokes, manufactured_case,
                     solve_stokes_coupled, solve_stokes_minimization,
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

_SOLVER_ERRORS = (ConvergenceError, SingularSystemError,
                  MultiplierConsistencyError)


@dataclass(frozen=True)
class RunConfig:
    """Validated bundle of everything a command needs."""

    command: str
    input_dir: Path | None = None
    output_dir: Path = Path(".")
    n: int | None = None
    n_list: tuple = ()
    case_id: str = "taylor_green"
    tol: float = 1e-10
    method: str = "direct"
    seed: int = 0
    infsup: bool = False
    corrupt: bool = False
    inject_exact: bool = False
    output_given: bool = True

    def __post_init__(self):
        if not 0.0 < self.tol < np.inf:
            raise ValueError(f"tol must be positive and finite, got {self.tol}")
        if self.n is not None and self.n < 2:
            raise ValueError(f"grid size must be at least 2, got {self.n}")
        for n in self.n_list:
            if n < 2:
                raise ValueError(f"grid size must be at least 2, got {n}")


def _err(message):
    print(f"error: {message}", file=sys.stderr)


def _write_json(path, payload):
    with open(path, "w", encoding="ascii") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")


def _rel(diff, reference):
    return float(diff / reference) if reference > 0.0 else float(diff)


def cmd_qp_solve(config):
    if config.input_dir is None:
        raise ValueError("qp-solve requires --input")
    problem = load_problem(config.input_dir)
    solution = _SOLVERS[config.method](problem, config.tol)
    beta = None
    if config.infsup:
        beta = estimate_infsup(
            problem, SparseOperator.identity(problem.n_constraints)).beta
    config.output_dir.mkdir(parents=True, exist_ok=True)
    save_solution(config.output_dir, solution, beta)
    return EXIT_OK


def _solve_block(velocity, pressure, saddle, case, grid):
    u = velocity.flat()
    return {
        "residual_stationarity": saddle.residual_stationarity,
        "residual_feasibility": saddle.residual_feasibility,
        "divergence_relative": _rel(saddle.residual_feasibility,
                                    float(np.linalg.norm(u))),
        "errors": error_norms(velocity, pressure, case, grid),
    }


def cmd_stokes(config):
    case = manufactured_case(config.case_id)
    grid = build_grid(config.n if config.n is not None else 16)
    v1, p1, s1 = solve_stokes_coupled(grid, case, config.tol)
    v2, p2, s2 = solve_stokes_minimization(grid, case, config.tol)
    config.output_dir.mkdir(parents=True, exist_ok=True)
    write_fields_csv(config.output_dir / "fields_coupled.csv", v1, p1)
    write_fields_csv(config.output_dir / "fields_minimization.csv", v2, p2)
    du = float(np.linalg.norm(v1.flat() - v2.flat()))
    dp = float(np.linalg.norm(p1.flat() - p2.flat()))
    report = {
        "case": case.case_id,
        "n": grid.n,
        "h": grid.h,
        "tol": config.tol,
        "coupled": _solve_block(v1, p1, s1, case, grid),
        "minimization": _solve_block(v2, p2, s2, case, grid),
        "discrepancy": {
            "velocity_relative": _rel(du, float(np.linalg.norm(v1.flat()))),
            "pressure_relative": _rel(dp, float(np.linalg.norm(p1.flat()))),
        },
    }
    _write_json(config.output_dir / "stokes_report.json", report)
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
    """Cell-averaged exact fields: differ from point samples at O(h^2).

    Used as a harness self-test: the order pipeline must report the known
    order of this sampling discrepancy without any solver in the loop.
    """
    ux, uy = grid.u_coordinates()
    vx, vy = grid.v_coordinates()
    px, py = grid.p_coordinates()
    velocity = VelocityField(grid,
                             _face_average(case.u_exact, ux, uy, grid.h),
                             _face_average(case.v_exact, vx, vy, grid.h))
    pressure = PressureField(grid,
                             _face_average(case.p_exact, px, py, grid.h))
    return velocity, pressure


def cmd_converge(config):
    if len(config.n_list) < 2:
        raise ValueError(
            "need at least two grid sizes to compute an observed order")
    if list(config.n_list) != sorted(set(config.n_list)):
        raise ValueError(
            f"grid sizes must be strictly ascending, got {config.n_list}")
    case = manufactured_case(config.case_id)
    rows = []
    for n in config.n_list:
        grid = build_grid(int(n))
        if config.inject_exact:
            velocity, pressure = _injected_fields(grid, case)
        else:
            velocity, pressure, _ = solve_stokes_coupled(
                grid, case, config.tol)
        rows.append((grid, error_norms(velocity, pressure, case, grid)))

    config.output_dir.mkdir(parents=True, exist_ok=True)
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
    with open(config.output_dir / "convergence.csv", "w",
              encoding="ascii", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
    if order_u is None or not 1.8 <= order_u <= 2.2:
        _err(f"observed velocity order {order_u} outside [1.8, 2.2]")
        return EXIT_STUDY_GATE
    return EXIT_OK


def cmd_infsup(config):
    if config.input_dir is not None:
        # constraint block of a problem directory, identity multiplier metric
        problem = load_problem(config.input_dir)
        mq = SparseOperator.identity(problem.n_constraints)
        dual = estimate_infsup(problem, mq, "dual_form")
        primal = estimate_infsup(problem, mq, "primal_form")
        config.output_dir.mkdir(parents=True, exist_ok=True)
        _write_json(config.output_dir / "infsup.json", {
            "beta_dual": dual.beta,
            "beta_primal": primal.beta,
            "form_difference": abs(dual.beta - primal.beta),
            "constraints": problem.n_constraints,
            "unknowns": problem.n_primal,
        })
        return EXIT_OK

    n_list = config.n_list or ((config.n,) if config.n else ())
    if not n_list:
        raise ValueError(
            "need --n-list (or --n, or --input) for an inf-sup study")
    values = [estimate_infsup_stokes(build_grid(n)).beta for n in n_list]
    config.output_dir.mkdir(parents=True, exist_ok=True)
    lines = ["n,h,beta"] + [f"{n},{1.0 / n!r},{b!r}"
                            for n, b in zip(n_list, values)]
    with open(config.output_dir / "infsup.csv", "w",
              encoding="ascii", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
    spread = max(values) / min(values) if min(values) > 0.0 else np.inf
    if min(values) <= 0.0 or spread >= 1.1:
        _err(f"inf-sup gate failed: min beta {min(values)!r}, "
             f"max/min {spread!r} (requires min > 0 and max/min < 1.1)")
        return EXIT_STUDY_GATE
    return EXIT_OK


def cmd_verify(config):
    results = run_property_suite(config.seed, corrupt=config.corrupt)
    lines = []
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        lines.append(f"PROPERTY {r.name}: {status} "
                     f"(worst {r.worst!r}, bound {r.bound!r})")
    print("\n".join(lines))
    if config.output_given:
        config.output_dir.mkdir(parents=True, exist_ok=True)
        _write_json(config.output_dir / "verify_report.json", {
            "seed": config.seed,
            "corrupt": config.corrupt,
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
    try:
        return tuple(int(part) for part in text.split(",") if part.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {text!r}") from None


class _Parser(argparse.ArgumentParser):
    """Route argparse usage errors to the malformed-input exit code."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_BAD_INPUT)


#: every flag with its argparse settings; each subcommand takes a subset,
#: and a flag left out keeps RunConfig's default
_FLAGS = {
    "--input": dict(type=Path, dest="input_dir",
                    help="problem directory (A.mtx, C.mtx, b.txt[, d.txt])"),
    "--output": dict(type=Path,
                     help="directory for reports and fields (default: the "
                          "input directory if given, else the working one)"),
    "--n": dict(type=int, help="cells per side"),
    "--n-list": dict(type=_parse_n_list,
                     help="comma-separated grid sizes, e.g. 8,16,32"),
    "--case": dict(dest="case_id", choices=("taylor_green", "polynomial")),
    "--tol": dict(type=float),
    "--method": dict(choices=tuple(_SOLVERS)),
    "--seed": dict(type=int),
    "--infsup": dict(action="store_true",
                     help="also estimate the constraint inf-sup constant"),
    "--corrupt": dict(action="store_true",
                      help="perturb solver outputs; the suite must then fail"),
    "--inject-exact": dict(action="store_true", help="bypass the solver and "
                           "grade exact-field sampling"),
}

#: subcommand defaults that differ from RunConfig's
_DEFAULTS = {"stokes": {"tol": 1e-12}}

#: (help, flags read) per subcommand; any other flag is a usage error, and
#: flags joined by "|" exclude one another
_SUBCOMMANDS = {
    "qp-solve": ("solve a problem directory and write the solution",
                 "--input --output --method --tol --infsup"),
    "stokes": ("run both Stokes formulations and report their agreement",
               "--n --case --tol --output"),
    "converge": ("refinement study with observed convergence orders",
                 "--n-list --case --tol --inject-exact --output"),
    "infsup": ("inf-sup constants across grids or for a problem directory",
               "--n-list|--n|--input --output"),
    "verify": ("seeded randomized property suites",
               "--seed --corrupt --output"),
}


def build_parser():
    parser = _Parser(
        prog="stokesqp",
        description="Constrained quadratic minimization and staggered-grid "
                    "Stokes studies with Lagrange-multiplier verification.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, flags) in _SUBCOMMANDS.items():
        p = sub.add_parser(name, help=help_text,
                           argument_default=argparse.SUPPRESS)
        for group in flags.split():
            names = group.split("|")
            target = p.add_mutually_exclusive_group() if len(names) > 1 else p
            for flag in names:
                target.add_argument(flag, **_FLAGS[flag])
        p.set_defaults(**_DEFAULTS.get(name, {}))
    return parser


def config_from_args(args):
    opts = dict(vars(args))          # the command and the flags it takes
    output = opts.pop("output", None)
    return RunConfig(output_dir=output or opts.get("input_dir") or Path("."),
                     output_given=output is not None, **opts)


_COMMANDS = {
    "qp-solve": cmd_qp_solve,
    "stokes": cmd_stokes,
    "converge": cmd_converge,
    "infsup": cmd_infsup,
    "verify": cmd_verify,
}


def run(argv=None):
    args = build_parser().parse_args(argv)
    try:
        config = config_from_args(args)
        return _COMMANDS[config.command](config)
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
