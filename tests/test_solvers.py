"""Iterative and direct solver kernels against dense oracles."""

import re

import numpy as np
import pytest
import scipy.linalg as sla

from stokesqp import (ConvergenceError, RankDeficiencyError,
                      SingularSystemError, SparseOperator, conjugate_gradient,
                      orthonormal_nullspace_basis,
                      smallest_generalized_eigenpair,
                      symmetric_indefinite_solve)
from stokesqp import solvers
from stokesqp.solvers import (STAGNATION_WINDOW, assert_positive_definite,
                              factorized, lift_null_vector,
                              smallest_eigenpair_matrix_free)


def _random_spd(rng, n, shift=1.0):
    g = rng.standard_normal((n, n))
    return g.T @ g + shift * np.eye(n)


# -- conjugate gradient ----------------------------------------------------


def test_cg_identity():
    op = SparseOperator.identity(2)
    x, _ = conjugate_gradient(op.apply, [5.0, -2.0])
    assert np.allclose(x, [5.0, -2.0], atol=1e-12)


def test_cg_diagonal():
    op = SparseOperator(np.diag([1.0, 2.0]))
    x, _ = conjugate_gradient(op.apply, [1.0, 2.0])
    assert np.allclose(x, [1.0, 1.0], atol=1e-12)


def test_cg_random_spd_vs_dense_oracle():
    rng = np.random.default_rng(20)
    a = _random_spd(rng, 20)
    b = rng.standard_normal(20)
    op = SparseOperator(a)
    x, _ = conjugate_gradient(op.apply, b, tol=1e-13)
    oracle = np.linalg.solve(a, b)
    assert np.linalg.norm(x - oracle) <= 1e-10 * np.linalg.norm(oracle)


def test_cg_dimension_200():
    rng = np.random.default_rng(200)
    a = _random_spd(rng, 200)
    b = rng.standard_normal(200)
    x, _ = conjugate_gradient(lambda v: a @ v, b, tol=1e-12)
    oracle = np.linalg.solve(a, b)
    assert np.linalg.norm(x - oracle) <= 1e-9 * np.linalg.norm(oracle)


def test_cg_residual_contract_when_converged():
    rng = np.random.default_rng(3)
    a = _random_spd(rng, 30)
    b = rng.standard_normal(30)
    x, report = conjugate_gradient(lambda v: a @ v, b, tol=1e-10)
    assert np.linalg.norm(a @ x - b) <= 1e-10 * np.linalg.norm(b)
    assert report.residual_norm <= 1e-10 * np.linalg.norm(b)


def test_cg_iteration_exhaustion_reported():
    # the bound is 10 len(b) iterations, reached before the 100-iteration
    # stagnation window can close
    rng = np.random.default_rng(4)
    a = _random_spd(rng, 4)
    b = rng.standard_normal(4)
    with pytest.raises(ConvergenceError, match="max_iter after 40 iterations"):
        conjugate_gradient(lambda v: a @ v, b, tol=1e-30)


@pytest.mark.parametrize("tol", [np.nan, np.inf, 0.0, -1e-8])
def test_cg_rejects_a_tolerance_outside_zero_to_infinity(tol):
    # a NaN tol would fail every comparison and end CG on a bogus reason
    with pytest.raises(ValueError, match="tol must be positive and finite"):
        conjugate_gradient(lambda v: np.array([1.0, 2.0, 3.0]) * v,
                           np.ones(3), tol=tol)


def test_cg_reports_stagnation_below_attainable_accuracy():
    rng = np.random.default_rng(5)
    a = _random_spd(rng, 40)
    b = rng.standard_normal(40)
    with pytest.raises(ConvergenceError, match="stagnation") as info:
        conjugate_gradient(lambda v: a @ v, b, tol=1e-30)
    iterations = int(re.search(r"after (\d+) iterations",
                               str(info.value)).group(1))
    assert iterations < 10 * 40


@pytest.mark.parametrize("lam_min, power", [(1e-6, -0.25), (1e-5, -0.5)])
def test_cg_converges_while_the_residual_stays_above_b(lam_min, power):
    # the CG residual is not monotone: on these spectra it stays above ||b||
    # for more than STAGNATION_WINDOW steps (it first falls below ||b|| at
    # steps 164 and 125) and only then converges, so the window must not
    # open before the residual first falls below ||b||
    lam = np.linspace(lam_min, 1.0, 2000)
    b = lam ** power
    x, report = conjugate_gradient(lambda v: lam * v, b, tol=1e-10)
    assert report.iterations > STAGNATION_WINDOW
    assert np.linalg.norm(lam * x - b) <= 1e-10 * np.linalg.norm(b)


def test_cg_detects_indefiniteness():
    op = SparseOperator(np.diag([1.0, -1.0]))
    with pytest.raises(ConvergenceError, match="negative_curvature"):
        conjugate_gradient(op.apply, [1.0, 1.0])


def test_cg_accepts_callable_operator():
    rng = np.random.default_rng(6)
    a = _random_spd(rng, 10)
    b = rng.standard_normal(10)
    x, _ = conjugate_gradient(lambda v: a @ v, b, tol=1e-12)
    assert np.allclose(a @ x, b, atol=1e-10)


def test_pcg_with_the_exact_inverse_converges_in_one_iteration():
    rng = np.random.default_rng(7)
    a = _random_spd(rng, 30)
    b = rng.standard_normal(30)
    x, report = conjugate_gradient(lambda v: a @ v, b, tol=1e-10,
                                   precondition=lambda r: sla.solve(a, r))
    assert report.iterations == 1
    assert np.linalg.norm(a @ x - b) <= 1e-10 * np.linalg.norm(b)


def test_pcg_jacobi_on_a_badly_scaled_matrix_saves_iterations():
    # D G D with D spanning three decades (cond ~1e6): Jacobi undoes the
    # scaling
    rng = np.random.default_rng(8)
    d = np.logspace(0, 3, 60)
    a = d[:, None] * _random_spd(rng, 60, shift=60.0) * d
    b = rng.standard_normal(60)
    oracle = np.linalg.solve(a, b)
    diagonal = np.diag(a).copy()
    plain_x, plain = conjugate_gradient(lambda v: a @ v, b, tol=1e-13)
    x, jacobi = conjugate_gradient(lambda v: a @ v, b, tol=1e-13,
                                   precondition=lambda r: r / diagonal)
    assert np.linalg.norm(plain_x - oracle) <= 1e-10 * np.linalg.norm(oracle)
    assert np.linalg.norm(x - plain_x) <= 1e-10 * np.linalg.norm(plain_x)
    assert jacobi.iterations < plain.iterations


def test_pcg_identity_preconditioner_repeats_plain_cg_bitwise():
    # z is r itself, so r.T z is r.T r and every iterate is the same
    rng = np.random.default_rng(9)
    a = _random_spd(rng, 40, shift=1e-3)
    b = rng.standard_normal(40)
    x, report = conjugate_gradient(lambda v: a @ v, b, tol=1e-12)
    y, same = conjugate_gradient(lambda v: a @ v, b, tol=1e-12,
                                 precondition=lambda r: r)
    assert same == report
    assert np.array_equal(x, y)


def test_pcg_detects_an_indefinite_preconditioner():
    rng = np.random.default_rng(10)
    a = _random_spd(rng, 10)
    with pytest.raises(ConvergenceError,
                       match="indefinite_preconditioner after 0 iterations"):
        conjugate_gradient(lambda v: a @ v, rng.standard_normal(10),
                           precondition=lambda r: -r)


# -- symmetric indefinite direct solve -------------------------------------


def test_indefinite_swap_operator():
    op = SparseOperator([[0.0, 1.0], [1.0, 0.0]])
    x, _ = symmetric_indefinite_solve(op, [1.0, 2.0])
    assert np.allclose(x, [2.0, 1.0], atol=1e-14)


def test_indefinite_identity():
    op = SparseOperator.identity(4)
    b = np.array([3.0, -1.0, 0.5, 2.0])
    x, _ = symmetric_indefinite_solve(op, b)
    assert np.allclose(x, b, atol=1e-14)


def test_indefinite_random_vs_dense_oracle():
    rng = np.random.default_rng(10)
    g = rng.standard_normal((10, 10))
    a = g + g.T  # indefinite with high probability; check and proceed
    assert np.min(np.linalg.eigvalsh(a)) < 0 < np.max(np.linalg.eigvalsh(a))
    b = rng.standard_normal(10)
    op = SparseOperator(a)
    x, _ = symmetric_indefinite_solve(op, b)
    oracle = np.linalg.solve(a, b)
    assert np.linalg.norm(x - oracle) <= 1e-9 * np.linalg.norm(oracle)


def test_indefinite_backward_error_contract():
    rng = np.random.default_rng(12)
    g = rng.standard_normal((25, 25))
    a = g + g.T
    b = rng.standard_normal(25)
    op = SparseOperator(a)
    x, report = symmetric_indefinite_solve(op, b)
    bound = 1e-10 * (op.frobenius_norm() * np.linalg.norm(x)
                     + np.linalg.norm(b))
    assert report.residual_norm <= bound


def test_indefinite_singular_system_is_diagnosed():
    op = SparseOperator([[1.0, 1.0], [1.0, 1.0]])
    with pytest.raises(SingularSystemError) as excinfo:
        symmetric_indefinite_solve(op, [1.0, 0.0])
    assert "eigendirection" in str(excinfo.value) or "singular" in str(
        excinfo.value)


def test_factorized_singular_operator_names_eigendirection():
    op = SparseOperator([[1.0, 1.0], [1.0, 1.0]])
    with pytest.raises(SingularSystemError, match="eigendirection"):
        factorized(op)


def _symmetric_test_system():
    a = np.array([[4.0, 1.0, 0.0], [1.0, -3.0, 2.0], [0.0, 2.0, 5.0]])
    return SparseOperator(a), np.array([1.0, -2.0, 3.0]), np.linalg.inv(a)


def test_indefinite_solve_refines_a_slightly_wrong_solve(monkeypatch):
    # a factor off by a relative 1e-8 misses the 1e-10 backward-error bound
    # once; one refinement step with the same factor meets it
    op, b, inverse = _symmetric_test_system()
    monkeypatch.setattr(solvers, "factorized",
                        lambda _op: lambda r: (1.0 + 1e-8) * (inverse @ r))
    x, report = symmetric_indefinite_solve(op, b)
    assert report.iterations == 2
    assert report.residual_norm <= 1e-10 * (
        op.frobenius_norm() * np.linalg.norm(x) + np.linalg.norm(b))
    assert np.allclose(x, inverse @ b, rtol=1e-12)


@pytest.mark.parametrize("solve, message", [
    (lambda inverse, r: 1.5 * (inverse @ r),
     r"backward error .* exceeds bound"),
    (lambda inverse, r: np.full_like(r, np.nan), "non-finite solve result"),
], ids=["wrong-by-order-one", "nan"])
def test_indefinite_solve_rejects_a_wrong_factor(monkeypatch, solve,
                                                  message):
    op, b, inverse = _symmetric_test_system()
    monkeypatch.setattr(solvers, "factorized",
                        lambda _op: lambda r: solve(inverse, r))
    with pytest.raises(SingularSystemError, match=message):
        symmetric_indefinite_solve(op, b)


def test_indefinite_solve_requires_symmetric_operator():
    # the swap one entry off; the exact swap, built the same way, is solved
    # by test_indefinite_swap_operator
    with pytest.raises(ValueError, match="symmetric operator"):
        symmetric_indefinite_solve(
            SparseOperator([[0.0, 1.0], [1.5, 0.0]]), [1.0, 2.0])


# -- positive definiteness -------------------------------------------------


def test_positive_definite_agrees_with_eigenvalue_oracle():
    # sparse symmetric matrices shifted just above or just below their
    # smallest eigenvalue: the pivot signs must decide as eigvalsh does
    rng = np.random.default_rng(21)
    for trial in range(60):
        n = int(rng.integers(1, 30))
        g = rng.standard_normal((n, n)) * (rng.random((n, n)) < 0.3)
        a = g @ g.T
        w = np.linalg.eigvalsh(a)
        side = 1.0 if trial % 2 else -1.0
        a += (side * 1e-3 * max(1.0, w[-1]) - w[0]) * np.eye(n)
        definite = np.linalg.eigvalsh(a)[0] > 0.0
        assert definite == (trial % 2 == 1)
        if definite:
            assert_positive_definite(SparseOperator(a))
        else:
            with pytest.raises(SingularSystemError,
                               match="A is not positive definite"):
                assert_positive_definite(SparseOperator(a))


@pytest.mark.parametrize("matrix, message", [
    ([[1.0, 2.0], [2.0, 1.0]], "L D L.T pivot -3.000e+00"),
    ([[0.0, 1.0], [1.0, 0.0]], "a zero pivot forced a row interchange"),
    ([[1.0, 1.0], [1.0, 1.0]], "singular"),
    ([[0.0, 0.0], [0.0, 1.0]], "singular"),
], ids=["negative-pivot", "zero-diagonal", "singular", "zero-column"])
def test_positive_definite_names_how_it_failed(matrix, message):
    with pytest.raises(SingularSystemError,
                       match="A is not positive definite: .*"
                       + re.escape(message)):
        assert_positive_definite(SparseOperator(matrix))


# -- null-space bases ------------------------------------------------------


def test_nullspace_coordinate_hyperplane():
    c = SparseOperator([[1.0, 0.0]])
    z = orthonormal_nullspace_basis(c)
    assert z.shape == (2, 1)
    assert np.allclose(np.abs(z[:, 0]), [0.0, 1.0], atol=1e-14)


def test_nullspace_trivial_kernel():
    z = orthonormal_nullspace_basis(SparseOperator.identity(2))
    assert z.shape == (2, 0)


def test_nullspace_random_vs_svd_oracle():
    rng = np.random.default_rng(37)
    c_dense = rng.standard_normal((3, 7))
    c = SparseOperator(c_dense)
    z = orthonormal_nullspace_basis(c)
    assert z.shape == (7, 4)
    assert np.linalg.norm(c_dense @ z) <= 1e-12 * np.linalg.norm(c_dense)
    assert np.linalg.norm(z.T @ z - np.eye(4)) <= 1e-12
    # span check against the SVD kernel: projections must coincide
    _u, _s, vt = np.linalg.svd(c_dense)
    k = vt[3:].T
    assert np.linalg.norm(z @ z.T - k @ k.T) <= 1e-12


def test_nullspace_rank_deficient_rejected():
    c = SparseOperator([[1.0, 2.0, 0.0], [2.0, 4.0, 0.0]])
    with pytest.raises(RankDeficiencyError):
        orthonormal_nullspace_basis(c)


# -- smallest generalized eigenpair ----------------------------------------


def test_eigenpair_diagonal_spectrum():
    s = SparseOperator(np.diag([1.0, 4.0]))
    lam, q = smallest_generalized_eigenpair(s, SparseOperator.identity(2))
    assert abs(lam - 1.0) <= 1e-10
    assert abs(abs(q[0]) - 1.0) <= 1e-8
    assert abs(q[1]) <= 1e-8


def test_eigenpair_identical_operators():
    rng = np.random.default_rng(15)
    a = _random_spd(rng, 6)
    op = SparseOperator(a)
    lam, q = smallest_generalized_eigenpair(op, op)
    assert abs(lam - 1.0) <= 1e-10
    assert abs(q @ (a @ q) - 1.0) <= 1e-8


def test_eigenpair_random_vs_dense_oracle():
    rng = np.random.default_rng(155)
    s_half = rng.standard_normal((15, 15))
    s = s_half.T @ s_half
    m = _random_spd(rng, 15)
    lam, q = smallest_generalized_eigenpair(
        SparseOperator(s),
        SparseOperator(m))
    oracle = sla.eigh(s, m, eigvals_only=True)[0]
    assert abs(lam - oracle) <= 1e-8 * max(1.0, abs(oracle))
    # normalization and residual contract on the returned pair
    assert abs(q @ (m @ q) - 1.0) <= 1e-8
    assert np.linalg.norm(s @ q - lam * (m @ q)) <= 1e-8 * np.linalg.norm(q)


def test_eigenpair_residual_contract_random_pairs():
    rng = np.random.default_rng(77)
    for _ in range(10):
        n = int(rng.integers(3, 12))
        s_half = rng.standard_normal((n, n))
        s = s_half.T @ s_half
        m = _random_spd(rng, n)
        lam, q = smallest_generalized_eigenpair(s, m)
        assert np.linalg.norm(s @ q - lam * (m @ q)) <= 1e-8 * np.linalg.norm(q)
        oracle = sla.eigh(s, m, eigvals_only=True)[0]
        assert abs(lam - oracle) <= 1e-8 * max(1.0, abs(oracle))


def test_eigenpair_requires_definite_mass():
    s = SparseOperator.identity(3)
    m = SparseOperator(np.diag([1.0, 0.0, 1.0]))
    with pytest.raises(ValueError):
        smallest_generalized_eigenpair(s, m)


def test_eigenpair_singular_pencil_returns_constant_kernel():
    # S singular with constant kernel: the bottom pair is that kernel
    s_dense = np.array([[2.0, -1.0, -1.0],
                        [-1.0, 2.0, -1.0],
                        [-1.0, -1.0, 2.0]])
    s = SparseOperator(s_dense)
    m = SparseOperator.identity(3)

    lam0, q0 = smallest_generalized_eigenpair(s, m)
    assert abs(lam0) <= 1e-10
    assert np.allclose(np.abs(q0), np.abs(q0[0]), atol=1e-6)


def test_eigenpair_clustered_bottom_pair_resolved():
    # two close but distinct bottom eigenvalues: the iteration must return
    # the smaller one, not a nearby impostor with a small residual
    rng = np.random.default_rng(99)
    evals = np.array([0.309, 0.312, 0.312, 1.0, 2.0, 5.0])
    basis, _ = np.linalg.qr(rng.standard_normal((6, 6)))
    s = basis @ np.diag(evals) @ basis.T
    s = 0.5 * (s + s.T)
    lam, _q = smallest_generalized_eigenpair(
        SparseOperator(s),
        SparseOperator.identity(6))
    assert abs(lam - 0.309) <= 1e-9


def test_eigenpair_unreachable_tolerance_raises(monkeypatch):
    rng = np.random.default_rng(312)
    s = _random_spd(rng, 6)
    monkeypatch.setattr(solvers, "EIGEN_TOL", 1e-30)
    with pytest.raises(ConvergenceError):
        smallest_generalized_eigenpair(s, np.eye(6))


# -- null-vector lift and matrix-free eigenpair ---------------------------


def _singular_with_constant_kernel(rng, n):
    # symmetric PSD with S 1 = 0: a random SPD form restricted to zero-mean
    # vectors
    centre = np.eye(n) - np.ones((n, n)) / n
    return centre @ _random_spd(rng, n) @ centre


def test_lift_moves_only_the_null_vector():
    rng = np.random.default_rng(17)
    s = _singular_with_constant_kernel(rng, 7)
    lifted = lift_null_vector(lambda x: s @ x, np.ones(7))
    ones = np.ones(7)
    assert np.allclose(lifted(ones), 2.0 * s[0, 0] * ones, atol=1e-12)
    x = rng.standard_normal(7)
    x -= x.mean()
    assert np.allclose(lifted(x), s @ x, atol=1e-12)
    # the lifted constant sits above the bottom of the zero-mean spectrum
    assert 2.0 * s[0, 0] > np.sort(np.linalg.eigvalsh(s))[1]


def test_matrix_free_eigenpair_matches_dense_pencil():
    rng = np.random.default_rng(23)
    s = _random_spd(rng, 30)
    mass = rng.uniform(0.5, 2.0, 30)
    lam, q = smallest_eigenpair_matrix_free(lambda x: s @ x, mass)
    oracle = sla.eigh(s, np.diag(mass), eigvals_only=True)[0]
    assert abs(lam - oracle) <= 1e-10 * oracle
    assert q @ (mass * q) == pytest.approx(1.0, abs=1e-12)
    assert np.linalg.norm(s @ q - lam * mass * q) <= \
        1e-10 * np.linalg.norm(q)


def test_matrix_free_eigenpair_is_deterministic():
    rng = np.random.default_rng(29)
    s = _random_spd(rng, 40)
    first = smallest_eigenpair_matrix_free(lambda x: s @ x, np.ones(40))
    second = smallest_eigenpair_matrix_free(lambda x: s @ x, np.ones(40))
    assert first[0] == second[0]
    assert first[1].tobytes() == second[1].tobytes()


def test_matrix_free_eigenpair_unreachable_tolerance_raises(monkeypatch):
    rng = np.random.default_rng(312)
    s = _random_spd(rng, 6)
    monkeypatch.setattr(solvers, "EIGEN_TOL", 1e-30)
    with pytest.raises(ConvergenceError, match="residual"):
        smallest_eigenpair_matrix_free(lambda x: s @ x, np.ones(6))


def test_matrix_free_eigenpair_arpack_failure_is_convergence_error(
        monkeypatch):
    from scipy.sparse import linalg as spla

    def no_convergence(*args, **kwargs):
        raise spla.ArpackNoConvergence("no convergence", [], [])

    monkeypatch.setattr(spla, "eigsh", no_convergence)
    with pytest.raises(ConvergenceError, match="Lanczos"):
        smallest_eigenpair_matrix_free(lambda x: x, np.ones(6))
