"""The output checker accepts correct results and flags tampered ones."""

import json

import numpy as np
import pytest

import check
import workloads
from stokesqp import cli


@pytest.fixture(scope="module")
def reference():
    return check.load_reference()


def _qp_ops(tmp_path):
    problem = tmp_path / "p"
    workloads.write_qp_instance(problem, np.random.default_rng(11), 40, 25,
                                homogeneous=False)
    ops = []
    for method in workloads.QP_METHODS:
        out = tmp_path / method
        ops.append({"name": method, "check": "qp-solve", "expect": 0,
                    "method": method, "problem": str(problem),
                    "argv": ["qp-solve", "--input", str(problem), "--method",
                             method, "--output", str(out)]})
    return ops


def _run_and_check(ops, reference):
    found = {op["name"]: check.check_operation(op, cli.run(op["argv"]),
                                               reference) for op in ops}
    check.check_agreement(ops, found)
    return found


def test_correct_qp_results_pass(tmp_path, reference):
    found = _run_and_check(_qp_ops(tmp_path), reference)
    assert found == {"direct": [], "nullspace": [], "schur": []}


def test_perturbed_multiplier_is_flagged(tmp_path, reference):
    ops = _qp_ops(tmp_path)
    _run_and_check(ops, reference)
    lam_path = tmp_path / "schur" / "lambda.txt"
    lam = np.loadtxt(lam_path, ndmin=1)
    lam[0] += 1e-3 * max(1.0, abs(lam[0]))
    lam_path.write_text("".join(f"{float(v)!r}\n" for v in lam))
    found = {op["name"]: check.check_operation(op, 0, reference)
             for op in ops}
    assert found["schur"] and any("stationarity" in p for p in found["schur"])
    check.check_agreement(ops, found)
    assert not found["direct"] and not found["nullspace"]


def test_disagreeing_method_is_flagged(tmp_path, reference):
    ops = _qp_ops(tmp_path)
    found = {op["name"]: [] for op in ops}
    _run_and_check(ops, reference)
    x_path = tmp_path / "nullspace" / "x.txt"
    x = np.loadtxt(x_path, ndmin=1)
    x_path.write_text("".join(f"{float(v)!r}\n" for v in x + 1e-5))
    check.check_agreement(ops, found)
    assert found["nullspace"] and not found["schur"]


def test_corrupt_verify_run_is_flagged(tmp_path, reference):
    out = tmp_path / "v"
    op = {"name": "verify", "check": "verify", "expect": 0, "seed": 4,
          "argv": ["verify", "--seed", "4", "--corrupt", "--output", str(out)]}
    code = cli.run(op["argv"])
    assert code == cli.EXIT_PROPERTY_FAILURE
    assert check.check_operation(op, code, reference)
    # the same report behind a success exit code is a wrong result
    assert check.check_operation(op, 0, reference)
    clean = dict(op, argv=["verify", "--seed", "4", "--output", str(out)])
    assert check.check_operation(clean, cli.run(clean["argv"]), reference) == []


def test_tampered_stokes_report_is_flagged(tmp_path, reference):
    out = tmp_path / "s"
    op = {"name": "stokes", "check": "stokes", "expect": 0, "n": 16,
          "argv": ["stokes", "--n", "16", "--output", str(out)]}
    assert check.check_operation(op, cli.run(op["argv"]), reference) == []
    path = out / "stokes_report.json"
    report = json.loads(path.read_text())
    report["discrepancy"]["pressure_relative"] = 1e-6
    path.write_text(json.dumps(report))
    assert check.check_operation(op, 0, reference)


def test_missing_output_is_a_failure_not_a_crash(tmp_path, reference):
    op = {"name": "infsup", "check": "infsup", "expect": 4, "rungs": [8, 16],
          "argv": ["infsup", "--output", str(tmp_path / "nothing")]}
    assert check.check_operation(op, 4, reference)


def test_reference_holds_the_documented_betas(reference):
    assert reference["infsup"]["8"] == pytest.approx(0.5565585975735114,
                                                     abs=1e-12)
    assert reference["infsup"]["48"] == pytest.approx(0.4819087158465683,
                                                      abs=1e-12)
