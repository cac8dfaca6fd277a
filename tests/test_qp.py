"""Equality-constrained quadratic programs: the four solve routes,
optimality certification, multiplier recovery, and inf-sup estimation."""

import json
import tracemalloc
import types

import numpy as np
import pytest
import scipy.linalg as sla
from scipy.sparse import linalg as spla

from stokesqp import (ConvergenceError, MultiplierConsistencyError, QpProblem,
                      RankDeficiencyError, SingularSystemError,
                      SparseOperator, assemble_kkt, assemble_operators,
                      build_grid,
                      check_optimality, estimate_infsup, gradient,
                      load_problem, objective, recover_multiplier,
                      residual_scale, save_solution, solve_kkt_direct,
                      solve_nullspace, solve_projected_cg, solve_schur)
from stokesqp.mmio import read_vector
from stokesqp.qp import checked_solution
from stokesqp.solvers import orthonormal_nullspace_basis
from stokesqp.verify import random_problem

ALL_SOLVERS = (solve_kkt_direct, solve_nullspace, solve_schur,
               solve_projected_cg)


def _problem(a, b, c, d=None):
    a = np.asarray(a, dtype=float)
    c = np.atleast_2d(np.asarray(c, dtype=float))
    if d is None:
        d = np.zeros(c.shape[0])
    return QpProblem(SparseOperator(a),
                     np.asarray(b, dtype=float),
                     SparseOperator(c),
                     np.asarray(d, dtype=float))


def _hand_instance():
    return _problem(np.eye(2), [1.0, 1.0], [[1.0, 0.0]])


def _random_instance(rng, n=None, m=None, inhomogeneous=False):
    if n is None:
        n = int(rng.integers(4, 51))
    if m is None:
        m = int(rng.integers(1, n))
    g = rng.standard_normal((n, n))
    a = g @ g.T + n * np.eye(n)
    c = rng.standard_normal((m, n))
    b = rng.standard_normal(n)
    d = rng.standard_normal(m) if inhomogeneous else np.zeros(m)
    return _problem(a, b, c, d)


def _unconstrained(a, b):
    n = np.asarray(a).shape[0]
    empty_c = SparseOperator.from_triples(0, n, [], [], [])
    return QpProblem(SparseOperator(a),
                     np.asarray(b, dtype=float), empty_c, np.zeros(0))


# -- gradient and objective ------------------------------------------------


def test_gradient_identity_quadratic():
    p = _unconstrained(np.eye(2), np.zeros(2))
    assert np.array_equal(gradient(p, [3.0, -1.0]), [3.0, -1.0])


def test_gradient_vanishes_at_unconstrained_stationary_point():
    rng = np.random.default_rng(1)
    g = rng.standard_normal((5, 5))
    a = g @ g.T + 5 * np.eye(5)
    b = rng.standard_normal(5)
    p = _unconstrained(a, b)
    x = np.linalg.solve(a, b)
    assert np.linalg.norm(gradient(p, x)) <= 1e-12 * np.linalg.norm(b)


def test_gradient_matches_central_differences():
    rng = np.random.default_rng(2)
    p = _random_instance(rng, n=12, m=3)
    x = rng.standard_normal(12)
    g = gradient(p, x)
    h = 1e-5
    for k in range(12):
        e = np.zeros(12)
        e[k] = h
        fd = (objective(p, x + e) - objective(p, x - e)) / (2 * h)
        assert abs(fd - g[k]) <= 1e-6


def test_objective_zero_at_origin():
    p = _hand_instance()
    assert objective(p, np.zeros(2)) == 0.0


def test_objective_identity_half_norm():
    p = _unconstrained(np.eye(2), np.zeros(2))
    assert objective(p, [3.0, 4.0]) == pytest.approx(12.5, abs=1e-14)


def test_objective_matches_naive_double_loop():
    rng = np.random.default_rng(3)
    p = _random_instance(rng, n=9, m=2)
    x = rng.standard_normal(9)
    a = p.A.toarray()
    naive = 0.0
    for i in range(9):
        for j in range(9):
            naive += 0.5 * x[i] * a[i, j] * x[j]
    naive -= float(p.b @ x)
    assert objective(p, x) == pytest.approx(naive, rel=1e-12)


# -- problem validation ----------------------------------------------------


def test_problem_rejects_asymmetric_a():
    a = np.array([[2.0, 1.0], [1.0, 3.0]])
    c = SparseOperator([[1.0, 0.0]])
    problem = QpProblem(SparseOperator(a), np.ones(2), c, np.zeros(1))
    assert problem.A.symmetric
    a[0, 1] = np.nextafter(1.0, 2.0)
    for bad in (a, np.ones((2, 3))):
        with pytest.raises(ValueError, match="A must be symmetric"):
            QpProblem(SparseOperator(bad), np.ones(2), c, np.zeros(1))


def test_problem_rejects_square_constraints():
    with pytest.raises(ValueError):
        _problem(np.eye(2), np.ones(2), np.eye(2))


def test_problem_rejects_rank_deficient_constraints():
    with pytest.raises(RankDeficiencyError):
        _problem(np.eye(3), np.ones(3), [[1.0, 2.0, 0.0], [2.0, 4.0, 0.0]])


def test_problem_rejects_indefinite_a():
    # a failed hypothesis on A is a solver failure, not malformed input
    with pytest.raises(SingularSystemError,
                       match="A is not positive definite: L D L.T pivot"):
        _problem(-np.eye(3), np.ones(3), [[1.0, 0.0, 0.0]])


def test_problem_rejects_a_whose_kkt_point_is_a_saddle():
    # A = diag(1, -1e-3, 1), C = e3.T: the KKT matrix is nonsingular and its
    # solution x = (1, -1000, 0) is feasible and stationary, yet the energy
    # falls along e2 in Ker C, so x is no minimizer
    a, c, b = np.diag([1.0, -1e-3, 1.0]), np.array([[0.0, 0.0, 1.0]]), np.ones(3)
    kkt = np.block([[a, c.T], [c, np.zeros((1, 1))]])
    x = np.linalg.solve(kkt, np.r_[b, 0.0])[:3]
    assert np.allclose(x, [1.0, -1000.0, 0.0])

    def energy(v):
        return 0.5 * v @ a @ v - b @ v

    assert energy(x + [0.0, 10.0, 0.0]) < energy(x)
    with pytest.raises(SingularSystemError,
                       match="A is not positive definite: L D L.T pivot"):
        _problem(a, b, c)


def test_problem_rejects_operators_without_factors():
    # dense arrays carry no factor; a mixed pair is proven on one side only
    viscous, div = assemble_operators(build_grid(3))
    a, c = SparseOperator(np.eye(12)), SparseOperator(np.ones((1, 12)))
    for A, C in ((np.eye(3), np.ones((1, 3))), (a, div), (viscous, c)):
        with pytest.raises(TypeError, match="SparseOperator"):
            QpProblem(A, np.zeros(A.shape[0]), C, np.zeros(C.shape[0]))


def test_problem_rejects_wrong_lengths():
    with pytest.raises(ValueError):
        _problem(np.eye(3), np.ones(2), [[1.0, 0.0, 0.0]])
    with pytest.raises(ValueError):
        _problem(np.eye(3), np.ones(3), [[1.0, 0.0, 0.0]], d=[1.0, 2.0])
    with pytest.raises(ValueError, match="C has 4 columns, expected 3"):
        _problem(np.eye(3), np.ones(3), [[1.0, 0.0, 0.0, 0.0]])


@pytest.mark.parametrize("rebuild", [False, True], ids=["init", "with_rhs"])
def test_problem_data_are_read_only_copies(rebuild):
    # routes sharing one problem cannot write into what another reads, and
    # the caller's arrays are neither frozen nor aliased
    b, d = np.ones(3), np.array([1.0])
    p = _problem(4.0 * np.eye(3), np.zeros(3), [[1.0, 2.0, 0.0]], d=[0.0])
    p = p.with_rhs(b, d) if rebuild else QpProblem(p.A, b, p.C, d)
    for data in (p.b, p.d):
        with pytest.raises(ValueError, match="read-only"):
            data[0] = 0.0
    assert b.flags.writeable and d.flags.writeable
    b[0] = d[0] = 7.0
    assert np.array_equal(p.b, np.ones(3)) and np.array_equal(p.d, [1.0])


def test_with_rhs_shares_the_factors_and_validates_the_data():
    p = _problem(4.0 * np.eye(3), np.ones(3), [[1.0, 2.0, 0.0]], d=[1.0])
    z, s = p.kernel_basis, p.schur
    assert not z.flags.writeable and not s.flags.writeable
    assert z.base is None               # the QR's N x N factor is not held
    q = p.with_rhs([1.0, 2.0, 3.0], [2.0])
    assert q.A is p.A and q.C is p.C
    assert q.constraint is p.constraint and q.a_solve is p.a_solve
    assert q.kernel_basis is z and q.schur is s
    assert np.array_equal(q.b, [1.0, 2.0, 3.0]) and np.array_equal(q.d, [2.0])
    assert np.array_equal(p.b, np.ones(3)) and np.array_equal(p.d, [1.0])
    fresh = QpProblem(p.A, q.b, p.C, q.d)
    assert np.array_equal(solve_kkt_direct(q).x, solve_kkt_direct(fresh).x)
    for b, d in ((np.ones(2), [0.0]), (np.ones(3), [0.0, 1.0]),
                 ([1.0, np.nan, 0.0], [0.0]), (np.ones(3), [np.inf])):
        with pytest.raises(ValueError):
            p.with_rhs(b, d)


# -- KKT assembly ----------------------------------------------------------


def test_kkt_hand_block_placement():
    kkt = assemble_kkt(_hand_instance())
    expected = np.array([[1.0, 0.0, 1.0],
                         [0.0, 1.0, 0.0],
                         [1.0, 0.0, 0.0]])
    assert np.array_equal(kkt.toarray(), expected)
    assert kkt.symmetric


def test_kkt_unconstrained_degenerates_to_a():
    p = _unconstrained(np.diag([2.0, 3.0]), np.zeros(2))
    kkt = assemble_kkt(p)
    assert np.array_equal(kkt.toarray(), np.diag([2.0, 3.0]))


def test_kkt_symmetric_pairing():
    rng = np.random.default_rng(8)
    p = _random_instance(rng, n=10, m=4)
    kkt = assemble_kkt(p)
    for _ in range(10):
        x = rng.standard_normal(14)
        y = rng.standard_normal(14)
        a = float(y @ kkt.apply(x))
        b = float(x @ kkt.apply(y))
        assert abs(a - b) <= 1e-13 * max(abs(a), 1.0)


def _kkt_cases():
    """(id, A, C) pairs in the layouts assemble_kkt meets."""
    from test_stokes import _kronecker_operators

    rng = np.random.default_rng(32)
    g = rng.standard_normal((180, 180))
    a = g @ g.T + 180 * np.eye(180)
    a_mac, b_mac = _kronecker_operators(8)
    c_zero_col = rng.standard_normal((5, 12))
    c_zero_col[:, 7] = 0.0
    c_empty_row = rng.standard_normal((4, 12))
    c_empty_row[2] = 0.0
    return [
        # a generated qp-core instance: dense, as read from its files
        ("qp-core-layout", 0.5 * (a + a.T), rng.standard_normal((135, 180))),
        ("mac-n8-one-pressure-pinned", a_mac, b_mac[1:]),
        ("one-constraint", np.diag(np.arange(1.0, 7.0)),
         rng.standard_normal((1, 6))),
        ("constraint-row-without-entries", np.eye(12), c_empty_row),
        ("zero-column-of-c", np.eye(12), c_zero_col),
    ]


@pytest.mark.parametrize("a, c", [case[1:] for case in _kkt_cases()],
                         ids=[case[0] for case in _kkt_cases()])
def test_kkt_matches_bmat_oracle(tmp_path, a, c):
    from scipy import sparse as sp

    from stokesqp.mmio import read_matrix, write_matrix
    # the operators as qp-solve reads them; only the four fields
    # assemble_kkt reads, so a rank-deficient C is a layout like any other
    write_matrix(tmp_path / "A.mtx", SparseOperator(a))
    write_matrix(tmp_path / "C.mtx", SparseOperator(c))
    A, C = read_matrix(tmp_path / "A.mtx"), read_matrix(tmp_path / "C.mtx")
    problem = types.SimpleNamespace(A=A, C=C, n_primal=A.ncols,
                                    n_constraints=C.nrows)
    kkt = assemble_kkt(problem)
    oracle = sp.bmat([[A.csr, C.csr.T], [C.csr, None]], format="csr")
    assert kkt.shape == oracle.shape and kkt.symmetric
    for attr in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(kkt.csr, attr), getattr(oracle, attr))
    assert kkt.csr.indices.dtype == kkt.csr.indptr.dtype == np.int32


# -- the three solvers -----------------------------------------------------


def test_hand_instance_all_solvers():
    p = _hand_instance()
    for solve in ALL_SOLVERS:
        sol = solve(p, 1e-12)
        assert np.allclose(sol.x, [0.0, 1.0], atol=1e-12)
        assert np.allclose(sol.multiplier, [-1.0], atol=1e-12)
        # stationarity identity exactly as written: A x - b = C.T lam
        lhs = p.A.apply(sol.x) - p.b
        rhs = p.C.toarray().T @ sol.multiplier
        assert np.allclose(lhs, rhs, atol=1e-12)
        assert np.allclose(lhs, [-1.0, 0.0], atol=1e-12)


def test_unconstrained_direct_reduces_to_linear_solve():
    rng = np.random.default_rng(9)
    g = rng.standard_normal((6, 6))
    a = g @ g.T + 6 * np.eye(6)
    b = rng.standard_normal(6)
    p = _unconstrained(a, b)
    for solve in ALL_SOLVERS:
        sol = solve(p, 1e-10)
        assert sol.multiplier.shape == (0,)
        assert np.allclose(sol.x, np.linalg.solve(a, b), atol=1e-9)
    assert solve_schur(p, 1e-10).inner_report.iterations == 0


def test_cross_method_agreement_n30_m8():
    rng = np.random.default_rng(30)
    p = _random_instance(rng, n=30, m=8)
    direct = solve_kkt_direct(p, 1e-10)
    null = solve_nullspace(p, 1e-10)
    schur = solve_schur(p, 1e-10)
    xn = np.linalg.norm(direct.x)
    ln = max(np.linalg.norm(direct.multiplier), 1.0)
    for other in (null, schur):
        assert np.linalg.norm(other.x - direct.x) <= 1e-8 * xn
        assert np.linalg.norm(other.multiplier - direct.multiplier) <= 1e-8 * ln


def test_inhomogeneous_constraints_supported():
    # d != 0 extends the homogeneous-subspace setting to an affine one
    rng = np.random.default_rng(31)
    p = _random_instance(rng, n=20, m=6, inhomogeneous=True)
    sols = [solve(p, 1e-10) for solve in ALL_SOLVERS]
    for sol in sols:
        assert np.linalg.norm(p.C.csr @ sol.x - p.d) <= 1e-9 * residual_scale(
            p, sol.x)
    for other in sols[1:]:
        assert np.allclose(other.x, sols[0].x, atol=1e-7)
        assert np.allclose(other.multiplier, sols[0].multiplier, atol=1e-7)


def test_residual_contract_all_solvers():
    rng = np.random.default_rng(32)
    for _ in range(5):
        p = _random_instance(rng)
        for solve in ALL_SOLVERS:
            sol = solve(p, 1e-10)
            bound = 1e-10 * residual_scale(p, sol.x)
            assert sol.residual_stationarity <= bound
            assert sol.residual_feasibility <= bound


@pytest.mark.parametrize("tol", [1e-10, np.nan])
def test_residual_contract_rejects_a_wrong_point(tol):
    # x = (5, 5, 5) with lam = 0 leaves stationarity 6.93 and feasibility
    # 10.0; a NaN tol makes the bound NaN, which must fail the contract too
    p = _problem(np.eye(3), np.ones(3), [[1.0, 1.0, 0.0]])
    with pytest.raises(ConvergenceError, match="feasibility 1.000e[+]01"):
        checked_solution(p, np.full(3, 5.0), np.zeros(1), "direct", tol)


def test_residual_contract_fails_a_nan_multiplier():
    # a NaN multiplier is a failed solve (exit 2), not malformed input: the
    # operators' input validation must not turn it into a ValueError, for
    # the assembled operators or the MAC stencils
    A, B = assemble_operators(build_grid(3))
    for p in (_problem(np.eye(3), np.ones(3), [[1.0, 1.0, 0.0]]),
              QpProblem(A, np.zeros(12), B, np.zeros(9))):
        lam = np.r_[np.nan, np.zeros(p.n_constraints - 1)]
        with pytest.raises(ConvergenceError, match="stationarity nan"):
            checked_solution(p, np.zeros(p.n_primal), lam, "schur", 1e-10)


def test_schur_orthonormal_rows_single_outer_iteration():
    rng = np.random.default_rng(33)
    q, _ = np.linalg.qr(rng.standard_normal((12, 4)))
    c = q.T  # 4 x 12 with orthonormal rows
    assert np.allclose(c @ c.T, np.eye(4), atol=1e-14)
    p = _problem(np.eye(12), rng.standard_normal(12), c)
    sol = solve_schur(p, 1e-10)
    assert sol.inner_report is not None
    assert sol.inner_report.iterations == 1
    direct = solve_kkt_direct(p, 1e-10)
    assert np.allclose(sol.x, direct.x, atol=1e-9)


# -- optimality certification ----------------------------------------------


def test_solver_output_is_certified_minimizer():
    rng = np.random.default_rng(34)
    p = _random_instance(rng, n=15, m=5)
    for solve in ALL_SOLVERS:
        report = check_optimality(p, solve(p, 1e-10).x, tol=1e-8)
        assert report.is_minimizer


def test_kernel_perturbation_breaks_optimality():
    rng = np.random.default_rng(35)
    p = _random_instance(rng, n=10, m=3)
    x = solve_kkt_direct(p, 1e-12).x
    z = orthonormal_nullspace_basis(p.C)
    direction = z @ rng.standard_normal(z.shape[1])
    direction /= np.linalg.norm(direction)
    report = check_optimality(p, x + 0.1 * direction, tol=1e-8)
    assert not report.is_minimizer
    expected = 0.1 * np.linalg.norm(z.T @ (p.A.csr @ direction))
    assert report.projected_gradient_norm == pytest.approx(expected, rel=1e-6)
    # still feasible: the step stayed inside the constraint set
    assert report.feasibility_norm <= 1e-10


def test_unconstrained_optimality_is_plain_gradient_norm():
    p = _unconstrained(np.eye(3), np.array([1.0, 0.0, 0.0]))
    x = np.array([0.0, 2.0, 0.0])
    report = check_optimality(p, x)
    assert report.projected_gradient_norm == pytest.approx(
        np.linalg.norm(p.A.apply(x) - p.b), abs=1e-15)


# -- multiplier recovery ---------------------------------------------------


def test_recover_multiplier_hand_instance():
    p = _hand_instance()
    lam = recover_multiplier(p, np.array([0.0, 1.0]))
    assert np.allclose(lam, [-1.0], atol=1e-12)


def test_recover_multiplier_rejects_infeasible_point():
    # the unconstrained minimizer has zero gradient but violates C x = d,
    # so the optimality precondition fails
    rng = np.random.default_rng(37)
    g = rng.standard_normal((6, 6))
    a = g @ g.T + 6 * np.eye(6)
    b = rng.standard_normal(6)
    c = rng.standard_normal((2, 6))
    d = np.array([10.0, -3.0])
    p = _problem(a, b, c, d)
    x_free = np.linalg.solve(a, b)
    assert np.linalg.norm(c @ x_free - d) > 1.0
    with pytest.raises(MultiplierConsistencyError):
        recover_multiplier(p, x_free)


def test_recover_multiplier_rejects_nonoptimal_feasible_point():
    rng = np.random.default_rng(38)
    p = _random_instance(rng, n=12, m=4)
    x = solve_kkt_direct(p, 1e-12).x
    z = orthonormal_nullspace_basis(p.C)
    bad = x + z @ rng.standard_normal(8)
    with pytest.raises(MultiplierConsistencyError):
        recover_multiplier(p, bad)


def test_recovered_multiplier_matches_direct_solver():
    rng = np.random.default_rng(39)
    for _ in range(5):
        p = _random_instance(rng)
        direct = solve_kkt_direct(p, 1e-10)
        lam = recover_multiplier(p, direct.x)
        scale = max(np.linalg.norm(direct.multiplier), 1.0)
        assert np.linalg.norm(lam - direct.multiplier) <= 1e-8 * scale


def test_nullspace_certifies_once(monkeypatch):
    # the residual contract alone certifies the null-space solution; below
    # attainable accuracy it, not the optimality gate, names the failure
    import stokesqp.qp as qp

    def no_gate(*args, **kwargs):
        raise AssertionError("check_optimality called")

    p = _random_instance(np.random.default_rng(40), inhomogeneous=True)
    monkeypatch.setattr(qp, "check_optimality", no_gate)
    solution = solve_nullspace(p, 1e-10)
    assert np.array_equal(solution.multiplier, p.constraint.
                          least_squares_multiplier(gradient(p, solution.x)))
    with pytest.raises(ConvergenceError, match="nullspace solve violated"):
        solve_nullspace(p, 1e-20)


# -- one factorization of C -----------------------------------------------


def _count_factorizations(monkeypatch):
    """Record every call of the dense factorizations scipy offers for C."""
    calls = []
    for name in ("svd", "svdvals", "qr"):
        def counted(*args, _original=getattr(sla, name), _name=name, **kw):
            calls.append(_name)
            return _original(*args, **kw)
        monkeypatch.setattr(sla, name, counted)
    return calls


def test_rank_test_svd_is_the_only_factorization_of_c(monkeypatch):
    p = _random_instance(np.random.default_rng(23), n=30, m=8,
                         inhomogeneous=True)
    x = solve_kkt_direct(p).x
    calls = _count_factorizations(monkeypatch)
    check_optimality(p, x)
    recover_multiplier(p, x)
    assert calls == []
    # the inf-sup estimate trusts the rank test QpProblem already passed
    for form in ("dual_form", "primal_form"):
        estimate_infsup(p, SparseOperator.identity(8), form)
    assert calls == []
    # the null-space route adds only its kernel basis, a QR of the SVD's
    # row factor, built once per problem
    solve_nullspace(p)
    assert calls == ["qr"]
    solve_nullspace(p)
    assert calls == ["qr"]


# -- one factorization of A -----------------------------------------------


def test_definiteness_factor_is_the_only_factorization_of_a(monkeypatch):
    sizes = []

    def counted(a, *args, _original=spla.splu, **kw):
        sizes.append(a.shape[0])
        return _original(a, *args, **kw)

    monkeypatch.setattr(spla, "splu", counted)
    p = _random_instance(np.random.default_rng(24), n=30, m=8,
                         inhomogeneous=True)
    assert sizes == [30]
    # the Schur route and both inf-sup forms reuse the definiteness factor
    solve_schur(p)
    for form in ("dual_form", "primal_form"):
        estimate_infsup(p, SparseOperator.identity(8), form)
    assert sizes == [30]
    # the direct route factors the KKT matrix, not A
    solve_kkt_direct(p)
    assert sizes == [30, 38]


def test_both_infsup_forms_share_one_block_a_solve():
    # S = C A^-1 C.T is one solve of the (N, M) block C.T, made once per
    # problem; the forms differ only in the pencil they build from it
    p = _random_instance(np.random.default_rng(25), n=30, m=8)
    blocks = []

    def counted(rhs, _original=p.a_solve):
        if np.ndim(rhs) == 2:
            blocks.append(np.shape(rhs))
        return _original(rhs)

    object.__setattr__(p, "a_solve", counted)
    for form in ("dual_form", "primal_form", "dual_form"):
        estimate_infsup(p, SparseOperator.identity(8), form)
    assert blocks == [(30, 8)]


def test_constraint_svd_memory_is_order_m_n():
    # N = 5000, M = 1: the economy SVD holds O(M N) numbers, where a full
    # N x N factor would take 200 MB
    n = 5000
    tracemalloc.start()
    try:
        p = QpProblem(SparseOperator.identity(n), np.ones(n),
                      SparseOperator(np.ones((1, n))), np.ones(1))
        solve_schur(p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20e6


# -- homogeneity -----------------------------------------------------------


def test_scaling_b_scales_solution_exactly():
    rng = np.random.default_rng(40)
    p = _random_instance(rng, n=16, m=5)
    alpha = 2.0
    scaled = QpProblem(p.A, alpha * p.b, p.C, alpha * p.d)
    s1 = solve_kkt_direct(p, 1e-10)
    s2 = solve_kkt_direct(scaled, 1e-10)
    assert np.linalg.norm(s2.x - alpha * s1.x) <= 1e-12 * np.linalg.norm(s1.x)
    assert np.linalg.norm(s2.multiplier - alpha * s1.multiplier) <= \
        1e-12 * max(np.linalg.norm(s1.multiplier), 1.0)


def test_row_space_shift_moves_multiplier_only():
    # with the stationarity convention A x - b = C.T lam, adding C.T mu to b
    # leaves x fixed and sends lam to lam - mu
    rng = np.random.default_rng(41)
    p = _random_instance(rng, n=16, m=5)
    mu = rng.standard_normal(5)
    shifted = QpProblem(p.A, p.b + p.C.csr.T @ mu, p.C, p.d)
    s1 = solve_kkt_direct(p, 1e-10)
    s2 = solve_kkt_direct(shifted, 1e-10)
    assert np.linalg.norm(s2.x - s1.x) <= 1e-10 * max(np.linalg.norm(s1.x), 1.0)
    assert np.linalg.norm((s1.multiplier - s2.multiplier) - mu) <= \
        1e-10 * max(np.linalg.norm(mu), 1.0)


# -- the multiplier as a sensitivity ---------------------------------------


@pytest.mark.parametrize("solve", ALL_SOLVERS,
                         ids=["direct", "nullspace", "schur", "projected_cg"])
def test_multiplier_is_the_sensitivity_of_the_optimal_value(solve):
    # J*(d) = min {J(x) : C x = d} has gradient lam: the multiplier is the
    # shadow price of the constraint.  J* is quadratic in d, so the central
    # difference is exact (to rounding) for any step.  Routes match direct.
    rng = np.random.default_rng(3)
    t = 1e-3
    for _ in range(20):
        p = random_problem(rng)
        e = rng.standard_normal(p.n_constraints)
        sol, ref = solve(p, 1e-12), solve_kkt_direct(p, 1e-12)
        for got, want in ((sol.x, ref.x), (sol.multiplier, ref.multiplier)):
            assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want)
        lam = sol.multiplier

        def optimal_value(d):
            q = p.with_rhs(p.b, d)
            return objective(q, solve_kkt_direct(q).x)

        slope = (optimal_value(p.d + t * e)
                 - optimal_value(p.d - t * e)) / (2 * t)
        assert abs(slope - lam @ e) <= \
            1e-9 * np.linalg.norm(lam) * np.linalg.norm(e)


# -- inf-sup estimation ----------------------------------------------------


def test_infsup_unit_row():
    est = estimate_infsup(_problem(np.eye(2), [0.0, 0.0], [[1.0, 0.0]]),
                          SparseOperator.identity(1))
    assert est.beta == pytest.approx(1.0, abs=1e-12)


def test_infsup_projection_case_both_forms():
    # orthonormal rows spanning a random subspace, identity metrics: the
    # constant is exactly one
    rng = np.random.default_rng(42)
    q, _ = np.linalg.qr(rng.standard_normal((9, 4)))
    problem = _problem(np.eye(9), np.zeros(9), q.T)
    for form in ("dual_form", "primal_form"):
        est = estimate_infsup(problem, SparseOperator.identity(4), form)
        assert abs(est.beta - 1.0) <= 1e-12


def test_infsup_two_forms_agree_and_match_dense_oracle():
    rng = np.random.default_rng(43)
    g1 = rng.standard_normal((12, 12))
    a = g1 @ g1.T + 12 * np.eye(12)
    g2 = rng.standard_normal((4, 4))
    mq = g2 @ g2.T + 4 * np.eye(4)
    c = rng.standard_normal((4, 12))

    problem = _problem(a, np.zeros(12), c)
    mq_op = SparseOperator(mq)
    dual = estimate_infsup(problem, mq_op, "dual_form")
    primal = estimate_infsup(problem, mq_op, "primal_form")
    assert abs(dual.beta - primal.beta) <= 1e-8

    s = c @ np.linalg.solve(a, c.T)
    oracle = np.sqrt(sla.eigh(s, mq, eigvals_only=True)[0])
    assert dual.beta == pytest.approx(oracle, abs=1e-9)
    # the attaining vector is Mq-normalized and attains the eigenvalue
    q = dual.attaining_q
    assert q @ (mq @ q) == pytest.approx(1.0, abs=1e-8)
    assert q @ (s @ q) == pytest.approx(dual.beta ** 2, abs=1e-8)


def test_infsup_rejects_unknown_form():
    with pytest.raises(ValueError):
        estimate_infsup(_hand_instance(), SparseOperator.identity(1),
                        "weird_form")


@pytest.mark.parametrize("form", ["dual_form", "primal_form"])
def test_infsup_indefinite_a_names_the_failed_hypothesis(form):
    # A = diag(1, 1, -1e-3) is positive definite on Ker C = span(e1, e2),
    # so the saddle problem is solvable, but A is no norm and beta is
    # undefined: S = C A^-1 C.T = -1000 must not come out as beta = 0.  No
    # such problem can be built, so neither form is ever reached
    with pytest.raises(SingularSystemError, match="A is not positive definite"):
        estimate_infsup(QpProblem(SparseOperator(np.diag([1.0, 1.0, -1e-3])),
                                  np.zeros(3),
                                  SparseOperator([[0.0, 0.0, 1.0]]),
                                  np.zeros(1)),
                        SparseOperator.identity(1), form)


# -- problem directory round trip ------------------------------------------


def test_problem_directory_round_trip(tmp_path):
    rng = np.random.default_rng(44)
    p = _random_instance(rng, n=10, m=3, inhomogeneous=True)
    from stokesqp.mmio import write_matrix, write_vector
    write_matrix(tmp_path / "A.mtx", p.A)
    write_matrix(tmp_path / "C.mtx", p.C)
    write_vector(tmp_path / "b.txt", p.b)
    write_vector(tmp_path / "d.txt", p.d)
    back = load_problem(tmp_path)
    assert np.array_equal(back.A.toarray(), p.A.toarray())
    assert np.array_equal(back.C.toarray(), p.C.toarray())
    assert np.array_equal(back.b, p.b)
    assert np.array_equal(back.d, p.d)


def test_missing_d_defaults_to_zero(tmp_path):
    p = _hand_instance()
    from stokesqp.mmio import write_matrix, write_vector
    write_matrix(tmp_path / "A.mtx", p.A)
    write_matrix(tmp_path / "C.mtx", p.C)
    write_vector(tmp_path / "b.txt", p.b)
    back = load_problem(tmp_path)
    assert np.array_equal(back.d, np.zeros(1))


def test_missing_matrix_file_is_named(tmp_path):
    with pytest.raises(FileNotFoundError) as excinfo:
        load_problem(tmp_path)
    assert "A.mtx" in str(excinfo.value)


def test_save_solution_report_round_trip(tmp_path):
    p = _hand_instance()
    sol = solve_kkt_direct(p, 1e-12)
    report = save_solution(tmp_path, sol, beta=1.0)
    assert np.allclose(read_vector(tmp_path / "x.txt"), [0.0, 1.0])
    assert np.allclose(read_vector(tmp_path / "lambda.txt"), [-1.0])
    on_disk = json.loads((tmp_path / "report.json").read_text())
    assert on_disk == report
    assert on_disk["method"] == "direct"
    assert on_disk["infsup_beta"] == 1.0
