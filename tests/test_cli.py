"""Command-line interface: exit codes, report files, and determinism."""

import csv
from collections import Counter
import json
import re
import subprocess
import sys
import types

import numpy as np
import pytest
import scipy.sparse._sparsetools
import scipy.sparse.linalg

from stokesqp import QpProblem, SparseOperator, build_grid, solvers, stokes
from stokesqp.cli import (EXIT_BAD_INPUT, EXIT_OK, EXIT_PROPERTY_FAILURE,
                          EXIT_SOLVER_FAILURE, EXIT_STUDY_GATE, build_parser,
                          run)
from stokesqp.mmio import read_vector, write_matrix, write_vector
from stokesqp.solvers import (DEFAULT_TOL, ConvergenceError,
                              SingularSystemError)


def _write_hand_problem(directory):
    directory.mkdir(exist_ok=True)
    write_matrix(directory / "A.mtx",
                 SparseOperator(np.eye(2)))
    write_matrix(directory / "C.mtx",
                 SparseOperator([[1.0, 0.0]]))
    write_vector(directory / "b.txt", np.array([1.0, 1.0]))
    return directory


def _write_random_problem(directory, seed=60, n=14, m=4):
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((n, n))
    directory.mkdir(exist_ok=True)
    write_matrix(directory / "A.mtx",
                 SparseOperator(g @ g.T + n * np.eye(n)))
    write_matrix(directory / "C.mtx",
                 SparseOperator(rng.standard_normal((m, n))))
    write_vector(directory / "b.txt", rng.standard_normal(n))
    write_vector(directory / "d.txt", rng.standard_normal(m))
    return directory


# -- qp-solve --------------------------------------------------------------


def test_qp_solve_hand_instance(tmp_path):
    problem = _write_hand_problem(tmp_path / "prob")
    code = run(["qp-solve", "--input", str(problem), "--infsup"])
    assert code == EXIT_OK
    assert np.allclose(read_vector(problem / "x.txt"), [0.0, 1.0], atol=1e-12)
    assert np.allclose(read_vector(problem / "lambda.txt"), [-1.0], atol=1e-12)
    report = json.loads((problem / "report.json").read_text())
    assert report["method"] == "direct"
    assert report["infsup_beta"] == pytest.approx(1.0, abs=1e-10)
    assert report["residual_stationarity"] <= 1e-10


def test_qp_solve_methods_agree(tmp_path):
    problem = _write_random_problem(tmp_path / "prob")
    xs, lams = [], []
    for method in ("direct", "nullspace", "schur"):
        out = tmp_path / method
        code = run(["qp-solve", "--input", str(problem),
                    "--output", str(out), "--method", method])
        assert code == EXIT_OK
        xs.append(read_vector(out / "x.txt"))
        lams.append(read_vector(out / "lambda.txt"))
        assert json.loads((out / "report.json").read_text())["method"] == method
    for k in (1, 2):
        assert np.linalg.norm(xs[k] - xs[0]) <= 1e-7 * np.linalg.norm(xs[0])
        assert np.linalg.norm(lams[k] - lams[0]) <= \
            1e-7 * max(np.linalg.norm(lams[0]), 1.0)


@pytest.mark.parametrize("method", ["direct", "nullspace", "schur"])
def test_qp_solve_a_not_definite_on_kernel_is_solver_failure(tmp_path, capsys,
                                                             method):
    # A = diag(1, ..., 1, 0) is singular on Ker C = span(e2, ..., eN); the
    # message names the failed hypothesis at every size, also past N = 2000
    for n in (3, 2001):
        problem = tmp_path / f"prob{n}"
        problem.mkdir()
        write_matrix(problem / "A.mtx",
                     SparseOperator(np.diag(np.r_[np.ones(n - 1), 0.0])))
        write_matrix(problem / "C.mtx",
                     SparseOperator(np.eye(1, n)))
        write_vector(problem / "b.txt", np.ones(n))
        code = run(["qp-solve", "--input", str(problem), "--method", method])
        assert code == EXIT_SOLVER_FAILURE
        assert "not positive definite" in capsys.readouterr().err


def test_qp_solve_missing_constraint_file(tmp_path):
    problem = _write_hand_problem(tmp_path / "prob")
    (problem / "C.mtx").unlink()
    code = run(["qp-solve", "--input", str(problem)])
    assert code == EXIT_BAD_INPUT


def test_qp_solve_malformed_matrix_names_line(tmp_path, capsys):
    problem = _write_hand_problem(tmp_path / "prob")
    (problem / "A.mtx").write_text(
        "%%MatrixMarket matrix coordinate real symmetric\n2 2 1\n1 1 oops\n")
    code = run(["qp-solve", "--input", str(problem)])
    assert code == EXIT_BAD_INPUT
    assert ":3:" in capsys.readouterr().err


def test_qp_solve_non_ascii_matrix_names_file_and_line(tmp_path, capsys):
    problem = _write_hand_problem(tmp_path / "prob")
    (problem / "A.mtx").write_bytes(
        b"%%MatrixMarket matrix coordinate real symmetric\n2 2 1\n"
        b"1 1 1.\xc3\xa90\n")
    code = run(["qp-solve", "--input", str(problem)])
    assert code == EXIT_BAD_INPUT
    assert "A.mtx:3: non-ASCII byte 0xc3" in capsys.readouterr().err


def test_qp_solve_rejects_nonsymmetric_general_matrix(tmp_path, capsys):
    problem = _write_hand_problem(tmp_path / "prob")
    (problem / "A.mtx").write_text(
        "%%MatrixMarket matrix coordinate real general\n2 2 3\n"
        "1 1 1.0\n2 2 1.0\n1 2 0.5\n")
    code = run(["qp-solve", "--input", str(problem)])
    assert code == EXIT_BAD_INPUT
    assert "A.mtx is not symmetric" in capsys.readouterr().err


def test_qp_solve_requires_input(capsys):
    assert run(["qp-solve"]) == EXIT_BAD_INPUT


def test_invalid_tolerance_rejected(tmp_path):
    problem = _write_hand_problem(tmp_path / "prob")
    assert run(["qp-solve", "--input", str(problem),
                "--tol", "0"]) == EXIT_BAD_INPUT
    assert run(["qp-solve", "--input", str(problem),
                "--tol=-1e-8"]) == EXIT_BAD_INPUT
    # an infinite tol would pass every contract and leave Infinity in JSON
    assert run(["qp-solve", "--input", str(problem),
                "--tol", "inf"]) == EXIT_BAD_INPUT
    assert run(["stokes", "--n", "4", "--tol", "inf",
                "--output", str(tmp_path / "stokes")]) == EXIT_BAD_INPUT


def test_usage_errors_map_to_bad_input_code(tmp_path):
    with pytest.raises(SystemExit) as excinfo:
        run(["qp-solve", "--no-such-flag"])
    assert excinfo.value.code == EXIT_BAD_INPUT


@pytest.mark.parametrize("argv", [
    ["qp-solve", "--input", ".", "--n", "8"],
    ["stokes", "--n", "8", "--input", "/nonexistent"],
    ["stokes", "--n", "8", "--method", "schur"],
    ["converge", "--n-list", "4,8", "--seed", "1"],
    # no abbreviation: --n is not a prefix of --n-list
    ["converge", "--n", "16,32"],
    ["infsup", "--n-list", "4", "--tol", "1e-8"],
    ["infsup", "--input", ".", "--n-list", "16,32"],
    ["infsup", "--n-list", "8,16", "--input", "."],
    ["infsup", "--n", "8"],
    ["verify", "--n", "64"],
    ["verify", "--tol", "5"],
], ids=lambda argv: f"{argv[0]}{argv[-2]}")
def test_foreign_flag_rejected(argv):
    # a flag the subcommand would ignore is a usage error, not a no-op
    with pytest.raises(SystemExit) as excinfo:
        run(argv)
    assert excinfo.value.code == EXIT_BAD_INPUT


def test_invalid_grid_size_rejected(tmp_path, capsys):
    assert run(["stokes", "--n", "1",
                "--output", str(tmp_path)]) == EXIT_BAD_INPUT
    # --n 0 is given, not absent: the check must not test truthiness
    assert run(["stokes", "--n", "0",
                "--output", str(tmp_path)]) == EXIT_BAD_INPUT
    assert "grid size must be at least 2, got 0" in capsys.readouterr().err


@pytest.mark.parametrize("command, expected", [
    ("stokes", {"n": 16, "tol": 1e-12, "case_id": "taylor_green"}),
    ("qp-solve", {"method": "direct", "tol": DEFAULT_TOL, "input_dir": None,
                  "output": None, "infsup": False}),
    ("converge", {"tol": DEFAULT_TOL, "n_list": (),
                  "case_id": "taylor_green", "inject_exact": False}),
    ("infsup", {"n_list": (), "input_dir": None}),
    ("verify", {"seed": 0, "corrupt": False, "output": None}),
], ids=lambda v: v if isinstance(v, str) else "defaults")
def test_parse_level_defaults(command, expected):
    # each default lives in the parser's tables, nowhere else
    args = vars(build_parser().parse_args([command]))
    assert {key: args[key] for key in expected} == expected


# -- stokes ----------------------------------------------------------------


def test_stokes_report_taylor_green(tmp_path):
    code = run(["stokes", "--n", "8", "--output", str(tmp_path)])
    assert code == EXIT_OK
    report = json.loads((tmp_path / "stokes_report.json").read_text())
    assert report["case"] == "taylor_green"
    assert report["n"] == 8
    assert report["discrepancy"]["velocity_relative"] <= 1e-8
    assert report["discrepancy"]["pressure_relative"] <= 1e-8
    for formulation in ("coupled", "minimization"):
        block = report[formulation]
        assert block["divergence_relative"] <= 1e-10
        assert np.isfinite(block["errors"]["l2_u"])
    for name in ("fields_coupled.csv", "fields_minimization.csv"):
        with open(tmp_path / name, newline="") as fh:
            rows = list(csv.reader(fh))
        grid = build_grid(8)
        assert len(rows) == 1 + grid.n_velocity + grid.n_pressure


def test_stokes_report_polynomial_n16(tmp_path):
    code = run(["stokes", "--case", "polynomial", "--n", "16",
                "--output", str(tmp_path)])
    assert code == EXIT_OK
    report = json.loads((tmp_path / "stokes_report.json").read_text())
    for formulation in ("coupled", "minimization"):
        block = report[formulation]
        assert block["residual_feasibility"] <= 1e-10
        for value in block["errors"].values():
            assert np.isfinite(value)


@pytest.mark.parametrize("n", [24, 28])
def test_stokes_certifies_at_problem_scale(tmp_path, n):
    # the projected gradient here exceeds 1e-12 in absolute terms; the
    # optimality certificate must judge it against the residual scale
    code = run(["stokes", "--n", str(n), "--output", str(tmp_path)])
    assert code == EXIT_OK
    report = json.loads((tmp_path / "stokes_report.json").read_text())
    assert report["discrepancy"]["velocity_relative"] <= 1e-8
    assert report["discrepancy"]["pressure_relative"] <= 1e-8


def test_stokes_commands_build_no_stokes_matrix(tmp_path, monkeypatch):
    # A, B and B.T are applied as stencils and A is solved by fast
    # diagonalization, so the Stokes commands construct no SparseOperator
    # and factor nothing
    calls = []
    original_init = SparseOperator.__init__
    original_splu = scipy.sparse.linalg.splu

    def counted_init(self, *args, **kwargs):
        calls.append("SparseOperator")
        original_init(self, *args, **kwargs)

    def counted_splu(*args, **kwargs):
        calls.append("splu")
        return original_splu(*args, **kwargs)

    monkeypatch.setattr(SparseOperator, "__init__", counted_init)
    monkeypatch.setattr(scipy.sparse.linalg, "splu", counted_splu)
    monkeypatch.setattr(stokes, "splu", counted_splu)
    for argv in (["stokes", "--n", "8"], ["converge", "--n-list", "4,8"],
                 ["infsup", "--n-list", "4,6"]):
        assert run(argv + ["--output", str(tmp_path)]) == EXIT_OK
    assert calls == []
    # the counters count: the QP side builds and factors its matrices
    assert run(["qp-solve", "--input",
                str(_write_hand_problem(tmp_path / "qp"))]) == EXIT_OK
    assert "SparseOperator" in calls and "splu" in calls


def test_stokes_commands_build_one_problem_per_grid(tmp_path, monkeypatch):
    # stokes solves one problem both ways: one load sample, and A's two
    # eigenbases built once for both routes; converge builds one per grid
    calls = []
    post_init = QpProblem.__post_init__

    def counted_post_init(self):
        calls.append(("problem", self.A.grid.n))
        post_init(self)

    def counted(name):
        original = getattr(stokes, name)

        def wrapper(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(QpProblem, "__post_init__", counted_post_init)
    for name in ("_sine_basis", "sample_forcing"):
        monkeypatch.setattr(stokes, name, counted(name))
    assert run(["stokes", "--n", "8", "--output", str(tmp_path)]) == EXIT_OK
    assert Counter(calls) == {("problem", 8): 1, "_sine_basis": 2,
                              "sample_forcing": 1}
    calls.clear()
    assert run(["converge", "--n-list", "4,8", "--output",
                str(tmp_path)]) == EXIT_OK
    assert [c for c in calls if c[0] == "problem"] == [("problem", 4),
                                                       ("problem", 8)]


def test_nan_pressure_is_a_solver_failure(tmp_path, monkeypatch, capsys):
    # the residual contract, not the stencils' input validation, judges a
    # NaN multiplier: exit 2, not 3
    monkeypatch.setattr(stokes.DivergenceOperator, "least_squares_multiplier",
                        lambda self, g: np.full(self.shape[0], np.nan))
    code = run(["stokes", "--n", "4", "--output", str(tmp_path)])
    assert code == EXIT_SOLVER_FAILURE
    assert "stationarity nan" in capsys.readouterr().err


def test_stokes_default_tol_reaches_n256(tmp_path):
    # at the default tol 1e-12 both routes meet the residual contract
    assert run(["stokes", "--n", "256", "--output", str(tmp_path)]) == EXIT_OK
    report = json.loads((tmp_path / "stokes_report.json").read_text())
    assert report["tol"] == 1e-12
    assert report["discrepancy"]["velocity_relative"] <= 1e-10
    assert report["discrepancy"]["pressure_relative"] <= 1e-10


def test_stokes_reports_are_deterministic(tmp_path):
    out1, out2 = tmp_path / "one", tmp_path / "two"
    assert run(["stokes", "--n", "4", "--output", str(out1)]) == EXIT_OK
    assert run(["stokes", "--n", "4", "--output", str(out2)]) == EXIT_OK
    for name in ("stokes_report.json", "fields_coupled.csv",
                 "fields_minimization.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_stokes_below_attainable_accuracy_is_solver_failure(tmp_path,
                                                            capsys):
    # a real CG failure, not an injected one: tol 1e-17 is below what
    # rounding lets the Schur residual reach, so CG stops on stagnation; at
    # n = 3 and tol 1e-300 a direction underflows first (p.p = 5e-324,
    # p.T S p = 0.0), which is no negative curvature
    out = tmp_path / "out"
    for n, tol, reason in (("16", "1e-17", "stagnation"),
                           ("3", "1e-300", "underflow")):
        code = run(["stokes", "--n", n, "--tol", tol, "--output", str(out)])
        assert code == EXIT_SOLVER_FAILURE
        assert re.search(rf"reason: {reason} after \d+ iterations",
                         capsys.readouterr().err)
        assert not out.exists()


# -- converge --------------------------------------------------------------


def test_converge_happy_path(tmp_path):
    code = run(["converge", "--n-list", "4,8", "--output", str(tmp_path)])
    assert code == EXIT_OK
    with open(tmp_path / "convergence.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["n", "h", "l2_u", "l2_p", "linf_u", "order_u",
                       "order_p"]
    assert rows[1][5] == ""  # no order at the coarsest level
    order_u = float(rows[2][5])
    assert 1.8 <= order_u <= 2.2


def test_converge_reaches_fine_grids(tmp_path):
    code = run(["converge", "--n-list", "128,256", "--output", str(tmp_path)])
    assert code == EXIT_OK


def test_converge_study_gate_fires(tmp_path, capsys):
    # n = 2, 3 is far from the asymptotic range: the velocity order comes
    # out near 4, the gate fails, and the table is still written
    code = run(["converge", "--n-list", "2,3", "--output", str(tmp_path)])
    assert code == EXIT_STUDY_GATE
    with open(tmp_path / "convergence.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert [r[:2] for r in rows[1:]] == [["2", "0.5"],
                                         ["3", "0.3333333333333333"]]
    assert rows[1][5:] == ["", ""]
    assert float(rows[2][5]) == pytest.approx(4.0589, abs=1e-4)
    assert float(rows[2][6]) == pytest.approx(2.1029, abs=1e-4)
    assert (f"error: observed velocity order {rows[2][5]} outside [1.8, 2.2]"
            in capsys.readouterr().err)


@pytest.mark.parametrize("command", ["converge", "infsup"])
@pytest.mark.parametrize("n_list", ["8,,16", "8,16,", ",8,16"])
def test_n_list_empty_item_is_usage_error(tmp_path, capsys, command, n_list):
    # an empty item is a typo, not a separator to skip
    with pytest.raises(SystemExit) as excinfo:
        run([command, "--n-list", n_list, "--output", str(tmp_path)])
    assert excinfo.value.code == EXIT_BAD_INPUT
    assert "expected comma-separated integers" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


def test_converge_single_level_rejected(tmp_path):
    assert run(["converge", "--n-list", "8",
                "--output", str(tmp_path)]) == EXIT_BAD_INPUT


def test_converge_unsorted_levels_rejected(tmp_path):
    assert run(["converge", "--n-list", "16,8",
                "--output", str(tmp_path)]) == EXIT_BAD_INPUT


def test_converge_exact_injection_self_test(tmp_path):
    code = run(["converge", "--n-list", "8,16", "--inject-exact",
                "--output", str(tmp_path)])
    assert code == EXIT_OK
    with open(tmp_path / "convergence.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert 1.8 <= float(rows[2][5]) <= 2.2
    assert 1.8 <= float(rows[2][6]) <= 2.2


def test_converge_exact_injection_linear_pressure(tmp_path):
    # the polynomial case's pressure is linear, so cell averaging reproduces
    # the point samples exactly and no pressure order can be observed
    code = run(["converge", "--n-list", "8,16", "--inject-exact",
                "--case", "polynomial", "--output", str(tmp_path)])
    assert code == EXIT_OK
    with open(tmp_path / "convergence.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert float(rows[2][2]) > 0.0  # velocity sampling error is real
    assert float(rows[1][3]) == 0.0  # pressure reproduced exactly
    assert rows[2][6] == ""
    assert 1.8 <= float(rows[2][5]) <= 2.2


# -- infsup ----------------------------------------------------------------


def test_infsup_close_grids_pass_gate(tmp_path):
    code = run(["infsup", "--n-list", "16,32", "--output", str(tmp_path)])
    assert code == EXIT_OK
    with open(tmp_path / "infsup.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["n", "h", "beta"]
    betas = [float(r[2]) for r in rows[1:]]
    assert all(b > 0 for b in betas)
    assert max(betas) / min(betas) < 1.1


def test_infsup_edge_grid_runs(tmp_path):
    code = run(["infsup", "--n-list", "2", "--output", str(tmp_path)])
    assert code == EXIT_OK
    with open(tmp_path / "infsup.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert float(rows[1][2]) == pytest.approx(np.sqrt(0.5), abs=1e-10)


def test_infsup_variation_gate_fires(tmp_path, capsys):
    # betas at 8/16/32 are individually positive but spread past the 10%
    # band, so the mesh-independence gate must report failure
    code = run(["infsup", "--n-list", "8,16,32", "--output", str(tmp_path)])
    assert code == EXIT_STUDY_GATE
    assert "max/min" in capsys.readouterr().err
    with open(tmp_path / "infsup.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 4
    assert all(float(r[2]) > 0 for r in rows[1:])


def test_infsup_reaches_fine_grids(tmp_path):
    # the Schur complement is never formed, so n=128 (N_p = 16384) is cheap
    code = run(["infsup", "--n-list", "64,128", "--output", str(tmp_path)])
    assert code == EXIT_OK
    with open(tmp_path / "infsup.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert [r[0] for r in rows[1:]] == ["64", "128"]
    assert float(rows[2][2]) == pytest.approx(0.465904, abs=1e-6)


def test_infsup_fine_grid_value(tmp_path):
    # every A-solve is by fast diagonalization, so n=256 is cheap
    assert run(["infsup", "--n-list", "256",
                "--output", str(tmp_path)]) == EXIT_OK
    with open(tmp_path / "infsup.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert float(rows[1][2]) == pytest.approx(0.4584300702, abs=1e-9)


def test_infsup_eigen_solve_failure_is_solver_failure(tmp_path, capsys,
                                                      monkeypatch):
    from scipy.sparse import linalg as spla

    def no_convergence(*args, **kwargs):
        raise spla.ArpackNoConvergence("ARPACK no convergence", [], [])

    monkeypatch.setattr(spla, "eigsh", no_convergence)
    code = run(["infsup", "--n-list", "8", "--output", str(tmp_path)])
    assert code == EXIT_SOLVER_FAILURE
    assert "Lanczos" in capsys.readouterr().err


def test_infsup_singular_a_is_solver_failure(tmp_path, capsys):
    # A = diag(0, 1, 1) is singular: SuperLU's own report reaches the user
    problem = tmp_path / "prob"
    problem.mkdir()
    write_matrix(problem / "A.mtx", SparseOperator(np.diag([0.0, 1.0, 1.0])))
    write_matrix(problem / "C.mtx", SparseOperator([[1.0, 0.0, 0.0]]))
    write_vector(problem / "b.txt", np.ones(3))
    code = run(["infsup", "--input", str(problem),
                "--output", str(tmp_path / "out")])
    assert code == EXIT_SOLVER_FAILURE
    assert "singular" in capsys.readouterr().err
    code = run(["qp-solve", "--input", str(problem), "--infsup",
                "--output", str(tmp_path / "qp")])
    assert code == EXIT_SOLVER_FAILURE


def test_infsup_requires_some_grid_or_input(tmp_path):
    assert run(["infsup", "--output", str(tmp_path)]) == EXIT_BAD_INPUT


def test_infsup_projection_case_problem_directory(tmp_path):
    rng = np.random.default_rng(61)
    q, _ = np.linalg.qr(rng.standard_normal((9, 4)))
    problem = tmp_path / "prob"
    problem.mkdir()
    write_matrix(problem / "A.mtx",
                 SparseOperator(np.eye(9)))
    write_matrix(problem / "C.mtx", SparseOperator(q.T))
    write_vector(problem / "b.txt", rng.standard_normal(9))
    code = run(["infsup", "--input", str(problem)])
    assert code == EXIT_OK
    report = json.loads((problem / "infsup.json").read_text())
    assert report["beta_dual"] == pytest.approx(1.0, abs=1e-12)
    assert report["beta_primal"] == pytest.approx(1.0, abs=1e-12)
    assert report["constraints"] == 4
    assert report["unknowns"] == 9


# -- verify ----------------------------------------------------------------


def test_verify_all_properties_pass(tmp_path, capsys):
    code = run(["verify", "--seed", "0", "--output", str(tmp_path)])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    lines = [l for l in out.splitlines() if l.startswith("PROPERTY ")]
    assert len(lines) == 7
    assert all(": PASS" in l for l in lines)
    report = json.loads((tmp_path / "verify_report.json").read_text())
    assert report["all_passed"] is True
    assert len(report["properties"]) == 7


def _reject_constant(name):
    raise ValueError(f"{name} is not valid JSON")


def test_verify_corruption_hook_fails(tmp_path, capsys):
    code = run(["verify", "--seed", "0", "--corrupt",
                "--output", str(tmp_path)])
    out = capsys.readouterr().out
    assert code == EXIT_PROPERTY_FAILURE
    assert ": FAIL" in out
    # strict JSON: a failed recovery's infinite worst is written as null
    report = json.loads((tmp_path / "verify_report.json").read_text(),
                        parse_constant=_reject_constant)
    assert report["all_passed"] is False
    assert report["corrupt"] is True


def test_verify_reports_are_byte_identical(tmp_path):
    out1, out2 = tmp_path / "one", tmp_path / "two"
    assert run(["verify", "--seed", "5", "--output", str(out1)]) == EXIT_OK
    assert run(["verify", "--seed", "5", "--output", str(out2)]) == EXIT_OK
    assert (out1 / "verify_report.json").read_bytes() == \
        (out2 / "verify_report.json").read_bytes()


# -- one exit-code map: the class of a failure decides its code -----------


def _write_unconstrained_problem(directory):
    directory.mkdir()
    write_matrix(directory / "A.mtx",
                 SparseOperator(2.0 * np.eye(3)))
    (directory / "C.mtx").write_text(
        "%%MatrixMarket matrix coordinate real general\n0 3 0\n")
    write_vector(directory / "b.txt", np.array([1.0, 2.0, 3.0]))
    return directory


def _write_indefinite_problem(directory, diagonal=(1.0, 1.0, -1e-3)):
    # with C = e3.T, A = diag(1, 1, -1e-3) is positive definite on
    # Ker C = span(e1, e2): the saddle system is solvable, but A is no norm,
    # so the inf-sup constant is undefined, and no route accepts it
    directory.mkdir()
    write_matrix(directory / "A.mtx",
                 SparseOperator(np.diag(diagonal)))
    write_matrix(directory / "C.mtx",
                 SparseOperator([[0.0, 0.0, 1.0]]))
    write_vector(directory / "b.txt", np.ones(3))
    return directory


@pytest.mark.parametrize("method", ["direct", "nullspace", "schur"])
def test_infsup_of_empty_constraint_set_is_bad_input(tmp_path, capsys,
                                                     method):
    problem = _write_unconstrained_problem(tmp_path / "prob")
    code = run(["qp-solve", "--input", str(problem), "--method", method,
                "--infsup", "--output", str(tmp_path / "infsup")])
    assert code == EXIT_BAD_INPUT
    assert "empty constraint set" in capsys.readouterr().err
    # the solve alone needs no constraints
    assert run(["qp-solve", "--input", str(problem), "--method", method,
                "--output", str(tmp_path / "plain")]) == EXIT_OK


def test_infsup_input_without_constraints_is_bad_input(tmp_path, capsys):
    problem = _write_unconstrained_problem(tmp_path / "prob")
    code = run(["infsup", "--input", str(problem),
                "--output", str(tmp_path / "out")])
    assert code == EXIT_BAD_INPUT
    assert "empty constraint set" in capsys.readouterr().err


def test_empty_constraint_set_exits_without_traceback(tmp_path):
    problem = _write_unconstrained_problem(tmp_path / "prob")
    proc = subprocess.run(
        [sys.executable, "-m", "stokesqp.cli", "qp-solve",
         "--input", str(problem), "--infsup"],
        capture_output=True, text=True)
    assert proc.returncode == EXIT_BAD_INPUT
    assert "Traceback" not in proc.stderr
    assert "error: inf-sup constant of an empty constraint set" in proc.stderr


@pytest.mark.parametrize("method", ["direct", "nullspace"])
def test_qp_solve_infsup_with_indefinite_a_is_solver_failure(tmp_path,
                                                             capsys, method):
    # the plain solve, which these routes could complete, fails as well:
    # the direct route cannot tell this A from the saddle case below
    problem = _write_indefinite_problem(tmp_path / "prob")
    for extra in ([], ["--infsup"]):
        out = tmp_path / f"out{len(extra)}"
        code = run(["qp-solve", "--input", str(problem), "--method", method,
                    "--output", str(out), *extra])
        assert code == EXIT_SOLVER_FAILURE
        assert "A is not positive definite" in capsys.readouterr().err
        assert not (out / "report.json").exists()


def test_qp_solve_schur_with_indefinite_a_is_solver_failure(tmp_path, capsys):
    # rejected before CG on S = C A^-1 C.T = -1000 can start
    problem = _write_indefinite_problem(tmp_path / "prob")
    for extra in ([], ["--infsup"]):
        assert run(["qp-solve", "--input", str(problem), "--method", "schur",
                    "--output", str(tmp_path / "out"), *extra]) == \
            EXIT_SOLVER_FAILURE
        assert "A is not positive definite" in capsys.readouterr().err


@pytest.mark.parametrize("method", ["direct", "nullspace", "schur"])
def test_saddle_point_of_indefinite_a_is_solver_failure(tmp_path, capsys,
                                                        method):
    # A = diag(1, -1e-3, 1) with C = e3.T is indefinite on Ker C: the KKT
    # system is nonsingular, and its solution x = (1, -1000, 0) is a saddle
    # point of the energy, not a minimizer; no route may certify it
    problem = _write_indefinite_problem(tmp_path / "prob", (1.0, -1e-3, 1.0))
    for extra in ([], ["--infsup"]):
        out = tmp_path / f"out{len(extra)}"
        code = run(["qp-solve", "--input", str(problem), "--method", method,
                    "--output", str(out), *extra])
        assert code == EXIT_SOLVER_FAILURE
        assert ("error: A is not positive definite: L D L.T pivot -1.000e-03"
                in capsys.readouterr().err)
        assert not (out / "x.txt").exists()
    assert run(["infsup", "--input", str(problem),
                "--output", str(tmp_path / "infsup")]) == EXIT_SOLVER_FAILURE
    assert "A is not positive definite" in capsys.readouterr().err


def test_infsup_input_with_indefinite_a_is_solver_failure(tmp_path, capsys):
    # a failed hypothesis on A is a solver failure (2), not bad input (3)
    problem = _write_indefinite_problem(tmp_path / "prob")
    code = run(["infsup", "--input", str(problem),
                "--output", str(tmp_path / "out")])
    assert code == EXIT_SOLVER_FAILURE
    assert "A is not positive definite" in capsys.readouterr().err


def test_every_solver_error_is_solver_failure(tmp_path, capsys, monkeypatch):
    import stokesqp.cli as cli

    def singular(grid):
        raise SingularSystemError("injected singular system")

    def no_convergence(seed, corrupt=False):
        raise ConvergenceError("injected non-convergence")

    monkeypatch.setattr(cli, "estimate_infsup_stokes", singular)
    monkeypatch.setattr(cli, "run_property_suite", no_convergence)
    assert run(["infsup", "--n-list", "8",
                "--output", str(tmp_path)]) == EXIT_SOLVER_FAILURE
    assert "error: injected singular system" in capsys.readouterr().err
    assert run(["verify", "--seed", "0"]) == EXIT_SOLVER_FAILURE
    assert "error: injected non-convergence" in capsys.readouterr().err


# -- numpy's and scipy's OpenBLAS pools run on one thread in a command ----


def _outputs_by_pool_size(tmp_path, capsys, pool, argv):
    """Captured streams and written files of ``argv`` run with ``pool``
    preset to 2 threads, then to 1."""
    outputs = []
    for threads in (2, 1):
        pool.preset(threads)
        out = tmp_path / f"out{threads}"
        assert run(argv + ["--output", str(out)]) == EXIT_OK
        outputs.append((capsys.readouterr(), {
            p.name: p.read_bytes() for p in sorted(out.iterdir())}))
    return outputs


def test_outputs_do_not_depend_on_scipy_pool_size(tmp_path, capsys,
                                                  openblas_pools):
    # the null-space route's SVD and QR gave other last bits with scipy's
    # pool at 2 threads than at 1 while commands left the pool as found
    problem = _write_random_problem(tmp_path / "prob", seed=1, n=200, m=50)
    outputs = _outputs_by_pool_size(
        tmp_path, capsys, openblas_pools("scipy"),
        ["qp-solve", "--input", str(problem), "--method", "nullspace"])
    assert sorted(outputs[0][1]) == ["lambda.txt", "report.json", "x.txt"]
    assert outputs[0] == outputs[1]


def test_outputs_do_not_depend_on_numpy_pool_size(tmp_path, capsys,
                                                  openblas_pools):
    # numpy's threaded products gave other last bits from n = 72 on while
    # commands left its pool as found (fields_minimization.csv and
    # stokes_report.json differed at n = 96)
    outputs = _outputs_by_pool_size(
        tmp_path, capsys, openblas_pools("numpy"), ["stokes", "--n", "96"])
    assert sorted(outputs[0][1]) == ["fields_coupled.csv",
                                     "fields_minimization.csv",
                                     "stokes_report.json"]
    assert outputs[0] == outputs[1]


def _pools_seen_in_commands(monkeypatch, *pools):
    """The pools' thread counts as each later ``qp-solve`` loads its input."""
    import stokesqp.cli as cli

    seen = []
    load_problem = cli.load_problem

    def spy(directory):
        seen.append(tuple(pool.get() for pool in pools))
        return load_problem(directory)

    monkeypatch.setattr(cli, "load_problem", spy)
    return seen


@pytest.mark.parametrize("previous", [2, 1])
@pytest.mark.parametrize("name", ["numpy", "scipy"])
def test_pool_is_serial_inside_a_command_and_restored(
        tmp_path, monkeypatch, openblas_pools, name, previous):
    pool = openblas_pools(name)
    pool.preset(previous)
    seen = _pools_seen_in_commands(monkeypatch, pool)
    problem = _write_hand_problem(tmp_path / "prob")
    assert run(["qp-solve", "--input", str(problem)]) == EXIT_OK
    assert pool.get() == previous
    # an input error leaves through the exception path
    assert run(["qp-solve", "--input", str(tmp_path / "missing")]) == \
        EXIT_BAD_INPUT
    assert pool.get() == previous
    assert seen == [(1,), (1,)]


def test_scipy_pool_left_alone_without_its_symbols(tmp_path, monkeypatch,
                                                   openblas_pools):
    # scipy's sparse tools link no BLAS and stand in for a library without
    # the thread-count symbols (MKL, Accelerate, a system BLAS): scipy's
    # pool stays as found, and numpy's is still serialized
    numpy_pool, scipy_pool = openblas_pools("numpy"), openblas_pools("scipy")
    numpy_pool.preset(2)
    scipy_pool.preset(2)
    seen = _pools_seen_in_commands(monkeypatch, numpy_pool, scipy_pool)
    stand_in = scipy.sparse._sparsetools.__file__
    monkeypatch.setattr(solvers, "cython_blas",
                        types.SimpleNamespace(__file__=stand_in))
    assert solvers._openblas_threads(stand_in) is None
    problem = _write_hand_problem(tmp_path / "prob")
    assert run(["qp-solve", "--input", str(problem)]) == EXIT_OK
    assert seen == [(1, 2)]
    assert (numpy_pool.get(), scipy_pool.get()) == (2, 2)


def test_shared_pool_ends_at_its_preset_count(tmp_path, monkeypatch,
                                              openblas_pools):
    # both resolvers pointed at numpy's library, as where scipy shares
    # numpy's BLAS: the pool is serialized once and restored last
    pool = openblas_pools("numpy")
    pool.preset(2)
    seen = _pools_seen_in_commands(monkeypatch, pool)
    monkeypatch.setattr(solvers, "cython_blas", types.SimpleNamespace(
        __file__=np.linalg._umath_linalg.__file__))
    problem = _write_hand_problem(tmp_path / "prob")
    assert run(["qp-solve", "--input", str(problem)]) == EXIT_OK
    assert pool.get() == 2
    assert run(["qp-solve", "--input", str(tmp_path / "missing")]) == \
        EXIT_BAD_INPUT
    assert pool.get() == 2
    assert seen == [(1,), (1,)]


def test_cli_import_resolves_no_blas_symbols():
    # the resolver looks the thread-count functions up on first use
    proc = subprocess.run(
        [sys.executable, "-c",
         "import stokesqp.cli, stokesqp.solvers as s; "
         "print(s._openblas_threads.cache_info().misses)"],
        capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "0"


# -- output format: every file goes through mmio's writers ---------------


def test_every_written_file_is_ascii_lf_and_canonical_json(tmp_path):
    problem = _write_random_problem(tmp_path / "prob")
    out = tmp_path / "out"
    for argv in (["qp-solve", "--input", str(problem), "--infsup",
                  "--output", str(out / "qp")],
                 ["stokes", "--n", "4", "--output", str(out / "stokes")],
                 ["converge", "--n-list", "4,8", "--output",
                  str(out / "converge")],
                 ["infsup", "--n-list", "4", "--output",
                  str(out / "infsup")],
                 ["infsup", "--input", str(problem), "--output",
                  str(out / "infsup_input")],
                 ["verify", "--seed", "0", "--output", str(out / "verify")]):
        assert run(argv) == EXIT_OK, argv
    files = sorted(p for p in out.rglob("*") if p.is_file())
    assert sorted(p.name for p in files) == sorted([
        "x.txt", "lambda.txt", "report.json", "fields_coupled.csv",
        "fields_minimization.csv", "stokes_report.json", "convergence.csv",
        "infsup.csv", "infsup.json", "verify_report.json"])
    for path in files:
        text = path.read_bytes().decode("ascii")
        assert text.endswith("\n") and "\r" not in text, path.name
        if path.suffix == ".json":
            assert text == json.dumps(json.loads(text), indent=2,
                                      sort_keys=True) + "\n", path.name


# -- entry point -----------------------------------------------------------


def test_console_script_is_wired():
    proc = subprocess.run(
        [sys.executable, "-m", "stokesqp.cli", "verify", "--seed", "1"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert "PROPERTY" in proc.stdout


def test_cli_import_does_not_load_scipy_fft():
    # scipy.fft costs about 0.1 s to import; nothing in the package needs it
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, stokesqp.cli; print('scipy.fft' in sys.modules)"],
        capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "False"
