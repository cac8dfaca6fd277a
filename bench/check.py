"""Correctness checks of every operation's outputs, run outside the timing.

The checks re-derive what they can from the output files with numpy and
scipy alone (no stokesqp code), and compare the rest with the stored
reference values in ``reference.json``.  Tolerances follow the acceptance
criteria: 1e-8 for multiplier/stationarity identities and cross-formulation
agreement, 1e-10 for the relative divergence of a velocity field.
"""

import csv
import functools
import json
import math
from pathlib import Path

import numpy as np
import scipy.io
import scipy.linalg as sla

REFERENCE = Path(__file__).with_name("reference.json")

AGREE_TOL = 1e-8        # criteria 3 and 5
DIVERGENCE_TOL = 1e-10  # criterion 6
BETA_TOL = 1e-8         # criterion 4
# discrete L2 velocity errors are differences of O(1) fields, so a solve
# accurate to AGREE_TOL moves them by at most about that much
ERROR_NORM_TOL = 1e-8


def load_reference():
    return json.loads(REFERENCE.read_text())


@functools.lru_cache(maxsize=None)
def _read_problem(directory):
    """(A, b, C, d) of a problem directory; inputs never change in a run."""
    directory = Path(directory)
    a = scipy.io.mmread(directory / "A.mtx").toarray()
    c = scipy.io.mmread(directory / "C.mtx").toarray()
    b = np.loadtxt(directory / "b.txt", ndmin=1)
    d = np.loadtxt(directory / "d.txt", ndmin=1)
    return a, b, c, d


@functools.lru_cache(maxsize=None)
def reference_beta(problem_dir):
    """Inf-sup constant of C in the A-norm with identity multiplier metric,
    from a dense symmetric eigensolve of C A^-1 C.T."""
    a, _b, c, _d = _read_problem(problem_dir)
    s = c @ sla.cho_solve(sla.cho_factor(a), c.T)
    return math.sqrt(max(sla.eigvalsh(0.5 * (s + s.T))[0], 0.0))


def _close(value, expected, tol, what):
    if not abs(value - expected) <= tol * max(abs(expected), 1.0):
        return [f"{what} {value!r} differs from {expected!r} beyond {tol:g}"]
    return []


def _check_qp_solve(op, out):
    a, b, c, d = _read_problem(op["problem"])
    x = np.loadtxt(out / "x.txt", ndmin=1)
    lam = np.loadtxt(out / "lambda.txt", ndmin=1)
    report = json.loads((out / "report.json").read_text())
    problems = []
    if x.shape != b.shape or lam.shape != d.shape:
        return [f"solution shapes {x.shape}, {lam.shape} do not match the "
                f"problem {b.shape}, {d.shape}"]
    scale = np.linalg.norm(a) * np.linalg.norm(x) + np.linalg.norm(b)
    stat = np.linalg.norm(a @ x - b - c.T @ lam)
    feas = np.linalg.norm(c @ x - d)
    if not stat <= AGREE_TOL * scale:
        problems.append(f"stationarity {stat:.3e} > {AGREE_TOL:g} * {scale:.3e}")
    if not feas <= AGREE_TOL * scale:
        problems.append(f"feasibility {feas:.3e} > {AGREE_TOL:g} * {scale:.3e}")
    if report.get("method") != op["method"]:
        problems.append(f"report method {report.get('method')!r}")
    if "--infsup" in op["argv"]:
        problems += _close(report.get("infsup_beta", math.nan),
                           reference_beta(op["problem"]), BETA_TOL,
                           "infsup_beta")
    return problems


def _check_infsup_input(op, out):
    report = json.loads((out / "infsup.json").read_text())
    beta = reference_beta(op["problem"])
    return (_close(report["beta_dual"], beta, BETA_TOL, "beta_dual")
            + _close(report["beta_primal"], beta, BETA_TOL, "beta_primal"))


def _check_verify(op, out):
    report = json.loads((out / "verify_report.json").read_text())
    failed = [p["name"] for p in report["properties"] if not p["passed"]]
    problems = [f"property {name} failed" for name in failed]
    if report["all_passed"] is not True or report["seed"] != op["seed"]:
        problems.append(f"all_passed {report['all_passed']!r}, "
                        f"seed {report['seed']!r}")
    return problems


def _check_stokes(op, out, reference):
    n = op["n"]
    report = json.loads((out / "stokes_report.json").read_text())
    problems = []
    if report["n"] != n or report["case"] != "taylor_green":
        problems.append(f"report is for n={report['n']} {report['case']}")
    for key in ("velocity_relative", "pressure_relative"):
        value = report["discrepancy"][key]
        if not value <= AGREE_TOL:
            problems.append(f"discrepancy {key} {value:.3e} > {AGREE_TOL:g}")
    expected = reference["stokes"][str(n)]["l2_u"]
    for route in ("coupled", "minimization"):
        div = report[route]["divergence_relative"]
        if not div <= DIVERGENCE_TOL:
            problems.append(f"{route} divergence_relative {div:.3e}")
        l2_u = report[route]["errors"]["l2_u"]
        if not abs(l2_u - expected) <= ERROR_NORM_TOL:
            problems.append(f"{route} l2_u {l2_u!r}, reference {expected!r}")
    rows = 1 + 2 * n * (n - 1) + n * n
    for name in ("fields_coupled.csv", "fields_minimization.csv"):
        with open(out / name, encoding="ascii") as fh:
            count = sum(1 for _ in fh)
        if count != rows:
            problems.append(f"{name} has {count} lines, expected {rows}")
    return problems


def _read_csv(path):
    with open(path, encoding="ascii", newline="") as fh:
        return list(csv.DictReader(fh))


def _check_converge(op, out, reference):
    rows = _read_csv(out / "convergence.csv")
    if [int(r["n"]) for r in rows] != op["rungs"]:
        return [f"rungs {[r['n'] for r in rows]}, expected {op['rungs']}"]
    problems = []
    errs = [float(r["l2_u"]) for r in rows]
    for n, err in zip(op["rungs"], errs):
        expected = reference["converge"][str(n)]["l2_u"]
        if not abs(err - expected) <= ERROR_NORM_TOL:
            problems.append(f"n={n} l2_u {err!r}, reference {expected!r}")
    order = (math.log(errs[-2] / errs[-1])
             / math.log(op["rungs"][-1] / op["rungs"][-2]))
    if not 1.8 <= order <= 2.2:
        problems.append(f"final velocity order {order:.4f} outside [1.8, 2.2]")
    if abs(float(rows[-1]["order_u"]) - order) > 1e-8:
        problems.append(f"reported order_u {rows[-1]['order_u']} != {order!r}")
    return problems


def _check_infsup(op, out, reference):
    rows = _read_csv(out / "infsup.csv")
    if [int(r["n"]) for r in rows] != op["rungs"]:
        return [f"rungs {[r['n'] for r in rows]}, expected {op['rungs']}"]
    problems = []
    betas = [float(r["beta"]) for r in rows]
    for n, beta in zip(op["rungs"], betas):
        problems += _close(beta, reference["infsup"][str(n)], BETA_TOL,
                           f"n={n} beta")
    if not max(betas) / min(betas) >= 1.1:
        problems.append("spread below the gate, yet exit code 4 expected")
    return problems


def check_operation(op, code, reference):
    """Problems found in one operation's result; empty when it is correct.

    ``code`` is the exit code; with the expected code the outputs are read
    and checked, otherwise the code alone is the failure.
    """
    if code != op["expect"]:
        return [f"exit code {code!r}, expected {op['expect']}"]
    out = Path(op["argv"][op["argv"].index("--output") + 1])
    kind = op["check"]
    try:
        if kind == "qp-solve":
            return _check_qp_solve(op, out)
        if kind == "infsup-input":
            return _check_infsup_input(op, out)
        if kind == "verify":
            return _check_verify(op, out)
        if kind == "stokes":
            return _check_stokes(op, out, reference)
        if kind == "converge":
            return _check_converge(op, out, reference)
        if kind == "infsup":
            return _check_infsup(op, out, reference)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return [f"unreadable output: {type(exc).__name__}: {exc}"]
    raise ValueError(f"no check for {kind!r}")


def check_agreement(ops, problems):
    """qp-solve methods must agree on each instance's (x, lambda).

    Adds a problem to every non-direct operation that disagrees with the
    direct method on the same instance; ``problems`` maps op name to list.
    """
    direct = {op["problem"]: op for op in ops
              if op["check"] == "qp-solve" and op["method"] == "direct"
              and "--infsup" not in op["argv"] and not problems[op["name"]]}
    for op in ops:
        if (op["check"] != "qp-solve" or op["method"] == "direct"
                or problems[op["name"]] or op["problem"] not in direct):
            continue
        ref = direct[op["problem"]]
        ref_out = Path(ref["argv"][ref["argv"].index("--output") + 1])
        out = Path(op["argv"][op["argv"].index("--output") + 1])
        for name in ("x.txt", "lambda.txt"):
            mine = np.loadtxt(out / name, ndmin=1)
            theirs = np.loadtxt(ref_out / name, ndmin=1)
            gap = np.linalg.norm(mine - theirs)
            if not gap <= AGREE_TOL * max(np.linalg.norm(theirs), 1.0):
                problems[op["name"]].append(
                    f"{name} differs from the direct solve by {gap:.3e}")
