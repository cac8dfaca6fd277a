"""Staggered-grid Stokes: assembly identities, manufactured cases, the two
solve formulations, and the discrete inf-sup constant."""

import csv
import dataclasses
from collections import Counter
import re
import tracemalloc

import numpy as np
import pytest
import scipy.linalg as sla
from scipy import sparse as sp
from scipy.sparse.linalg import splu

from stokesqp import (ConvergenceError, ManufacturedCase, QpProblem,
                      RankDeficiencyError, SparseOperator, assemble_operators,
                      build_grid,
                      divergence_free_projector, error_norms,
                      estimate_infsup_stokes, manufactured_case,
                      sample_forcing, smallest_generalized_eigenpair,
                      solve_kkt_direct, solve_projected_cg, solve_schur,
                      solve_stokes_coupled, solve_stokes_minimization,
                      stokes_problem, symmetric_indefinite_solve,
                      write_fields_csv)
from stokesqp import stokes
from stokesqp.solvers import conjugate_gradient, factorized
from stokesqp.stokes import _cosine_basis, _pressure_mass, _sine_basis

# frozen first-run baselines for the taylor_green coupled solve (regression
# guards; the convergence study re-derives their h^2 trend independently)
L2_U_BASELINE = {8: 0.032473673977459566, 16: 0.007930680314156249}

# frozen inf-sup constants against the dense-oracle values
BETA_BASELINE = {
    2: 0.7071067811865475,
    3: 0.6608333252904658,
    4: 0.6256479549413821,
}


def _zero_case():
    zero = np.zeros_like
    return ManufacturedCase("zero", lambda x, y: zero(x), lambda x, y: zero(x),
                            lambda x, y: zero(x), lambda x, y: zero(x),
                            lambda x, y: zero(x))


# -- grids and fields ------------------------------------------------------


def test_grid_unknown_counts():
    for n, nu, npress in ((2, 4, 4), (4, 24, 16), (32, 1984, 1024)):
        grid = build_grid(n)
        assert grid.n_velocity == nu
        assert grid.n_pressure == npress
        assert grid.h == 1.0 / n


def test_grid_validation():
    with pytest.raises(ValueError):
        build_grid(1)
    with pytest.raises(TypeError):
        build_grid(2.5)


def test_coordinates_hand_checked_n2():
    grid = build_grid(2)
    ux, uy = grid.u_coordinates()
    assert np.allclose(ux, [[0.5, 0.5]])
    assert np.allclose(uy, [[0.25, 0.75]])
    vx, vy = grid.v_coordinates()
    assert np.allclose(vx, [[0.25], [0.75]])
    assert np.allclose(vy, [[0.5], [0.5]])
    px, _py = grid.p_coordinates()
    assert np.allclose(px, [[0.25, 0.25], [0.75, 0.75]])


def test_split_velocity_views_the_flat_vector():
    grid = build_grid(3)
    vec = np.random.default_rng(50).standard_normal(grid.n_velocity)
    u_faces, v_faces = grid.split_velocity(vec)
    assert u_faces.shape == grid.u_shape
    assert v_faces.shape == grid.v_shape
    assert np.array_equal(np.concatenate([u_faces.ravel(), v_faces.ravel()]),
                          vec)


# -- operator assembly -----------------------------------------------------


def _second_difference(k, ghost):
    """1-D stencil tridiag(-1, 2, -1); with ghost=True the end rows use the
    reflected-value closure (diagonal 3; 4 when k = 1, one cell between two
    walls) for walls half a cell beyond."""
    main = np.full(k, 2.0)
    if ghost:
        main[0] += 1.0
        main[-1] += 1.0
    off = -np.ones(k - 1)
    return sp.diags([off, main, off], offsets=[-1, 0, 1], format="csr")


def _face_difference(n):
    # n x (n-1): cell i gets +(east face i) - (west face i-1)
    ones = np.ones(n - 1)
    return sp.diags([ones, -ones], offsets=[0, -1],
                    shape=(n, n - 1), format="csr")


def _kronecker_operators(n):
    """Oracle: A and B as Kronecker sums and products of the 1-D stencils,
    in canonical CSR without explicit zeros."""
    h, eye = 1.0 / n, sp.identity
    t_dir = _second_difference(n - 1, ghost=False)
    t_ghost = _second_difference(n, ghost=True)
    a_u = sp.kron(t_dir, eye(n)) + sp.kron(eye(n - 1), t_ghost)
    a_v = sp.kron(t_ghost, eye(n - 1)) + sp.kron(eye(n), t_dir)
    d = _face_difference(n)
    b = sp.hstack([h * sp.kron(d, eye(n)), h * sp.kron(eye(n), d)])
    out = []
    for m in (sp.block_diag([a_u, a_v]), b):
        m = sp.csr_array(m)
        m.sum_duplicates()
        m.eliminate_zeros()
        out.append(m)
    return out


def _oracle_operators(n):
    """The Kronecker-built A and B as SparseOperators, for every test that
    needs a matrix (its entries, a factorization, a QpProblem)."""
    return tuple(SparseOperator(m) for m in _kronecker_operators(n))


def _stencil_matrix(apply, ncols):
    """The dense matrix of a stencil action, one unit vector per column."""
    return np.column_stack([apply(e) for e in np.eye(ncols)])


def _vector_with_zeros(rng, size):
    # two thirds zeros, half of them -0.0: a sum begun at +0.0, as the CSR
    # product's is, ends at +0.0 where one begun at its first term, -0.0,
    # would stay -0.0
    x = rng.standard_normal(size)
    zero = rng.random(size) < 2 / 3
    x[zero] = np.where(rng.random(zero.sum()) < 0.5, -0.0, 0.0)
    return x


def _same_bits(actual, expected):
    return (np.array_equal(actual, expected)
            and np.array_equal(np.signbit(actual), np.signbit(expected)))


@pytest.mark.parametrize("n", [2, 3, 4, 5, 7, 8, 16, 33, 96])
def test_stencil_assembly_matches_kronecker_oracle(n):
    # every action equals the CSR product of the oracle bit for bit, signed
    # zeros included, so every output byte is that of the assembled matrices
    a, b = _kronecker_operators(n)
    grid = build_grid(n)
    A, B = assemble_operators(grid)
    rng = np.random.default_rng([n, 28])
    zeros = 0
    for _ in range(4):
        x = _vector_with_zeros(rng, grid.n_velocity)
        q = _vector_with_zeros(rng, grid.n_pressure)
        for actual, expected in ((A.apply(x), a @ x),
                                 (B.apply(x), b @ x),
                                 (B.apply_transpose(q), b.T @ q)):
            assert _same_bits(actual, expected)
            zeros += np.count_nonzero(expected == 0.0)
    assert zeros > 0
    assert A.frobenius_norm() == SparseOperator(a).frobenius_norm()


@pytest.mark.parametrize("n", range(2, 9))
def test_operators_store_no_explicit_zeros(n):
    # no entry is stored at all; the matrix the stencils define has no zero
    # coefficient, so its nonzero pattern is the oracle's stored pattern
    grid = build_grid(n)
    A, B = assemble_operators(grid)
    a, b = _kronecker_operators(n)
    for apply, oracle in ((A.apply, a), (B.apply, b),
                          (B.apply_transpose, b.T)):
        dense = _stencil_matrix(apply, oracle.shape[1])
        assert np.array_equal(dense != 0, oracle.toarray() != 0)
        assert np.count_nonzero(dense) == oracle.nnz


def test_assembly_uses_no_sparse_constructors(monkeypatch):
    # neither the operators nor either route builds a scipy sparse array
    def refuse(*args, **kwargs):
        raise AssertionError("sparse constructor called")

    for name in ("kron", "hstack", "block_diag", "diags", "identity",
                 "csr_array", "csc_array", "coo_array", "csr_matrix"):
        monkeypatch.setattr(sp, name, refuse)
    grid = build_grid(6)
    A, B = assemble_operators(grid)
    assert A.apply(np.ones(60)).shape == (60,)
    assert B.apply(np.ones(60)).shape == (36,)
    assert B.apply_transpose(np.ones(36)).shape == (60,)
    problem = stokes_problem(grid, manufactured_case("taylor_green"))
    solve_stokes_coupled(problem)
    solve_stokes_minimization(problem)


def test_viscous_operator_hand_assembled_n2():
    A, B = assemble_operators(build_grid(2))
    block = np.array([[5.0, -1.0], [-1.0, 5.0]])
    expected = sla.block_diag(block, block)
    assert np.array_equal(_stencil_matrix(A.apply, 4), expected)
    assert A.frobenius_norm() == np.sqrt(104.0)


def test_divergence_operator_hand_assembled_n2():
    A, B = assemble_operators(build_grid(2))
    # columns ordered u(0,0), u(0,1), v(0,0), v(1,0); rows are cells in
    # row-major (ix, iy) order
    expected = np.array([[0.5, 0.0, 0.5, 0.0],
                         [0.0, 0.5, -0.5, 0.0],
                         [-0.5, 0.0, 0.0, 0.5],
                         [0.0, -0.5, 0.0, -0.5]])
    assert np.array_equal(_stencil_matrix(B.apply, 4), expected)
    assert np.array_equal(_stencil_matrix(B.apply_transpose, 4),
                          expected.T)


@pytest.mark.parametrize("owner, method", [
    ("A", "apply"), ("B", "apply"), ("B", "apply_transpose")])
def test_stencils_validate_their_input(owner, method):
    # as SparseOperator.apply does: wrong length, not 1-D, non-finite
    grid = build_grid(4)
    operators = dict(zip("AB", assemble_operators(grid)))
    apply = getattr(operators[owner], method)
    size = grid.n_pressure if method == "apply_transpose" else \
        grid.n_velocity
    for bad in (np.ones(size - 1), np.ones((size, 1)),
                np.r_[np.nan, np.ones(size - 1)]):
        with pytest.raises(ValueError):
            apply(bad)


def test_divergence_of_unit_face_impulse():
    grid = build_grid(2)
    A, B = assemble_operators(grid)
    impulse = np.zeros(grid.n_velocity)
    impulse[0] = 1.0  # u-face between the two left cells... east of cell (0, *)
    div = B.apply(impulse)
    h = grid.h
    # +-(1/h) in the two cells sharing the face, under the h^2 cell weight
    assert np.array_equal(div, [h * h / h, 0.0, -h * h / h, 0.0])


def test_pressure_mass_is_h_squared_identity():
    grid = build_grid(5)
    assert np.array_equal(np.diag(_pressure_mass(grid)),
                          (grid.h ** 2) * np.eye(grid.n_pressure))


def test_constants_span_divergence_transpose_kernel():
    for n in (2, 3, 8):
        grid = build_grid(n)
        grad_of_const = assemble_operators(grid)[1].apply_transpose(
            np.ones(grid.n_pressure))
        assert np.array_equal(grad_of_const, np.zeros(grid.n_velocity))


def test_no_spurious_kernel_directions():
    for n in (2, 4, 8):
        grid = build_grid(n)
        div = _stencil_matrix(assemble_operators(grid)[1].apply,
                              grid.n_velocity)
        sv = np.linalg.svd(div.T, compute_uv=False)
        # exactly one vanishing singular value (the constant direction)
        assert sv[-1] <= 1e-14 * sv[0]
        assert sv[-2] > 1e-8 * sv[0]


def _q1_p0_operators(n):
    """The contrast pairing: bilinear velocities at the (n-1)^2 interior
    vertices (5-point Laplacian per component) and one pressure per cell, B
    the exact Q1-P0 cell divergence, h/2 times the differences across each
    cell's four vertices."""
    h, eye = 1.0 / n, sp.identity
    t = _second_difference(n - 1, ghost=False)
    lap = sp.kron(t, eye(n - 1)) + sp.kron(eye(n - 1), t)
    d = _face_difference(n)        # cell i: vertex i + 1 minus vertex i
    s = abs(d)                     # cell i: vertex i + 1 plus vertex i
    b = 0.5 * h * sp.hstack([sp.kron(s, d), sp.kron(d, s)])
    return (SparseOperator(sp.csr_array(sp.block_diag([lap, lap]))),
            SparseOperator(sp.csr_array(b)))


@pytest.mark.parametrize("pairing, deficit", [
    (_oracle_operators, 1),
    (_q1_p0_operators, 2),
], ids=["mac-constant", "q1p0-constant-and-checkerboard"])
@pytest.mark.parametrize("n", [4, 8])
def test_qp_core_names_the_rank_deficit_of_b(pairing, deficit, n):
    # the multiplier of div u = 0 is unique only up to Ker B.T: the constant
    # pressure on the MAC grid, and on Q1-P0 also the checkerboard
    a, b = pairing(n)
    with pytest.raises(RankDeficiencyError,
                       match=f"rank deficient: .*; rank deficit {deficit}$"):
        QpProblem(a, np.ones(a.nrows), b, np.zeros(b.nrows))


def test_divergence_gradient_adjoint_pairing():
    rng = np.random.default_rng(52)
    grid = build_grid(6)
    div = assemble_operators(grid)[1]
    for _ in range(100):
        v = rng.standard_normal(grid.n_velocity)
        q = rng.standard_normal(grid.n_pressure)
        forward = float(q @ div.apply(v))
        adjoint = float(div.apply_transpose(q) @ v)
        assert abs(forward - adjoint) <= 1e-14 * max(abs(forward), 1.0)


def test_viscous_operator_positive_definite():
    for n in (2, 3, 4):
        grid = build_grid(n)
        a = _stencil_matrix(assemble_operators(grid)[0].apply,
                            grid.n_velocity)
        assert np.array_equal(a, a.T)
        assert np.min(np.linalg.eigvalsh(a)) > 0.0


# -- forcing ---------------------------------------------------------------


def test_sample_forcing_zero():
    grid = build_grid(4)
    assert np.array_equal(sample_forcing(grid, _zero_case()),
                          np.zeros(grid.n_velocity))


def test_sample_forcing_constant():
    grid = build_grid(4)
    ones = np.ones_like
    case = ManufacturedCase("const", lambda x, y: ones(x),
                            lambda x, y: np.zeros_like(x),
                            lambda x, y: np.zeros_like(x),
                            lambda x, y: ones(x),
                            lambda x, y: np.zeros_like(x))
    b = sample_forcing(grid, case)
    nu = grid.n * (grid.n - 1)
    assert np.array_equal(b[:nu], np.full(nu, grid.h ** 2))
    assert np.array_equal(b[nu:], np.zeros(nu))


def _gauss_forcing(grid, case):
    """Independent 2x2 Gauss product-rule oracle for the face loads."""
    off = grid.h / (2.0 * np.sqrt(3.0))
    ux, uy = grid.u_coordinates()
    vx, vy = grid.v_coordinates()
    fu = np.zeros(grid.u_shape)
    fv = np.zeros(grid.v_shape)
    for sx in (-off, off):
        for sy in (-off, off):
            fu += case.f1(ux + sx, uy + sy)
            fv += case.f2(vx + sx, vy + sy)
    weight = 0.25 * grid.h ** 2
    return np.concatenate([(weight * fu).ravel(), (weight * fv).ravel()])


def test_sample_forcing_matches_quadrature_to_second_order():
    case = manufactured_case("taylor_green")
    diffs = {}
    for n in (8, 16):
        grid = build_grid(n)
        pointwise = sample_forcing(grid, case)
        quadrature = _gauss_forcing(grid, case)
        diffs[n] = (np.linalg.norm(pointwise - quadrature)
                    / np.linalg.norm(quadrature))
        assert diffs[n] <= 0.05
    ratio = diffs[8] / diffs[16]
    assert 3.0 <= ratio <= 5.0  # halved h, quartered mismatch


# -- manufactured cases ----------------------------------------------------


def _divergence_oracle(case_id):
    """Analytic partial derivatives, written independently of the module."""
    if case_id == "taylor_green":
        du_dx = lambda x, y: np.pi * np.sin(2 * np.pi * x) * np.sin(2 * np.pi * y)
        dv_dy = lambda x, y: -np.pi * np.sin(2 * np.pi * x) * np.sin(2 * np.pi * y)
    else:
        gp = lambda t: 2 * t * (1 - t) * (1 - 2 * t)
        du_dx = lambda x, y: gp(x) * gp(y)
        dv_dy = lambda x, y: -gp(x) * gp(y)
    return du_dx, dv_dy


@pytest.mark.parametrize("case_id", ["taylor_green", "polynomial"])
def test_exact_velocity_is_divergence_free(case_id):
    rng = np.random.default_rng(53)
    x = rng.uniform(0.0, 1.0, 1000)
    y = rng.uniform(0.0, 1.0, 1000)
    du_dx, dv_dy = _divergence_oracle(case_id)
    assert np.max(np.abs(du_dx(x, y) + dv_dy(x, y))) <= 1e-12


@pytest.mark.parametrize("case_id", ["taylor_green", "polynomial"])
def test_exact_velocity_vanishes_on_boundary(case_id):
    case = manufactured_case(case_id)
    rng = np.random.default_rng(54)
    t = rng.uniform(0.0, 1.0, 100)
    for xs, ys in ((np.zeros(100), t), (np.ones(100), t),
                   (t, np.zeros(100)), (t, np.ones(100))):
        assert np.max(np.abs(case.u_exact(xs, ys))) <= 1e-12
        assert np.max(np.abs(case.v_exact(xs, ys))) <= 1e-12


@pytest.mark.parametrize("case_id", ["taylor_green", "polynomial"])
def test_exact_pressure_has_zero_mean(case_id):
    case = manufactured_case(case_id)
    grid = build_grid(64)
    px, py = grid.p_coordinates()
    # midpoint sampling cancels exactly for both (antisymmetry about x = 1/2)
    assert abs(np.mean(case.p_exact(px, py))) <= 1e-13


@pytest.mark.parametrize("case_id", ["taylor_green", "polynomial"])
def test_forcing_matches_momentum_balance(case_id):
    # central differences of the exact fields reproduce the hand-coded
    # f = -laplace(u) + grad(p) to discretization accuracy
    case = manufactured_case(case_id)
    rng = np.random.default_rng(55)
    x = rng.uniform(0.2, 0.8, 200)
    y = rng.uniform(0.2, 0.8, 200)
    h = 1e-4

    def lap(f, xs, ys):
        return (f(xs + h, ys) + f(xs - h, ys) + f(xs, ys + h) + f(xs, ys - h)
                - 4.0 * f(xs, ys)) / h ** 2

    def dx(f, xs, ys):
        return (f(xs + h, ys) - f(xs - h, ys)) / (2 * h)

    def dy(f, xs, ys):
        return (f(xs, ys + h) - f(xs, ys - h)) / (2 * h)

    f1_fd = -lap(case.u_exact, x, y) + dx(case.p_exact, x, y)
    f2_fd = -lap(case.v_exact, x, y) + dy(case.p_exact, x, y)
    assert np.max(np.abs(f1_fd - case.f1(x, y))) <= 1e-5
    assert np.max(np.abs(f2_fd - case.f2(x, y))) <= 1e-5


def test_unknown_case_rejected():
    with pytest.raises(ValueError):
        manufactured_case("lid_driven")


# -- the two formulations --------------------------------------------------


def test_zero_forcing_gives_zero_fields():
    problem = stokes_problem(build_grid(4), _zero_case())
    for solve in (solve_stokes_coupled, solve_stokes_minimization):
        saddle = solve(problem, 1e-12)
        assert np.max(np.abs(saddle.x)) <= 1e-14
        assert np.max(np.abs(saddle.multiplier)) <= 1e-14
        assert saddle.residual_feasibility <= 1e-14


def test_coupled_solution_is_discretely_divergence_free():
    grid = build_grid(16)
    u = solve_stokes_coupled(
        stokes_problem(grid, manufactured_case("taylor_green")), 1e-12).x
    div = assemble_operators(grid)[1].apply(u)
    assert np.linalg.norm(div) <= 1e-10
    assert np.linalg.norm(div) <= 1e-10 * np.linalg.norm(u)


@pytest.mark.parametrize("case_id", ["taylor_green", "polynomial"])
def test_formulation_equivalence(case_id):
    grid = build_grid(8)
    problem = stokes_problem(grid, manufactured_case(case_id))
    s1 = solve_stokes_coupled(problem, 1e-12)
    s2 = solve_stokes_minimization(problem, 1e-12)
    assert np.linalg.norm(s1.x - s2.x) <= 1e-8 * np.linalg.norm(s1.x)
    assert np.linalg.norm(s1.multiplier - s2.multiplier) <= \
        1e-8 * np.linalg.norm(s1.multiplier)


def _bordered_kkt_solve(grid, case):
    """Oracle for the coupled route: one direct solve of the saddle system
    bordered by the cell-volume vector e, [[A, B.T, 0], [B, 0, e],
    [0, e.T, 0]], whose extra row pins the zero-mean pressure."""
    a, div = _kronecker_operators(grid.n)
    b = sample_forcing(grid, case)
    nu, npres = grid.n_velocity, grid.n_pressure
    e = sp.csr_matrix(np.full((npres, 1), grid.h * grid.h))
    kkt = sp.bmat([[a, div.T, None],
                   [div, None, e],
                   [None, e.T, None]], format="csr")
    sol, _ = symmetric_indefinite_solve(SparseOperator(kkt),
                                        np.concatenate([b, np.zeros(npres + 1)]))
    p = -sol[nu:nu + npres]          # multiplier sign: A u - b = B.T p
    return sol[:nu], p - p.mean()


@pytest.mark.parametrize("case_id", ["taylor_green", "polynomial"])
@pytest.mark.parametrize("n", [4, 8, 16])
def test_coupled_route_matches_bordered_kkt_oracle(n, case_id):
    grid = build_grid(n)
    case = manufactured_case(case_id)
    saddle = solve_stokes_coupled(stokes_problem(grid, case), 1e-12)
    u_ref, p_ref = _bordered_kkt_solve(grid, case)
    u, p = saddle.x, saddle.multiplier
    assert np.linalg.norm(u - u_ref) <= 1e-10 * np.linalg.norm(u_ref)
    assert np.linalg.norm(p - p_ref) <= 1e-10 * np.linalg.norm(p_ref)


@pytest.mark.parametrize("case_id", ["taylor_green", "polynomial"])
@pytest.mark.parametrize("n", [4, 8, 16])
def test_minimization_pressure_matches_dense_least_squares(n, case_id):
    # oracle: the dense least-squares multiplier of B.T p = A u - b
    grid = build_grid(n)
    case = manufactured_case(case_id)
    saddle = solve_stokes_minimization(stokes_problem(grid, case), 1e-12)
    a, div = _kronecker_operators(n)
    g = a @ saddle.x - sample_forcing(grid, case)
    p_ref = np.linalg.lstsq(div.toarray().T, g, rcond=None)[0]
    p_ref = p_ref - p_ref.mean()
    assert np.linalg.norm(saddle.multiplier - p_ref) <= \
        1e-10 * np.linalg.norm(p_ref)


def test_minimization_matches_coupled_route_on_a_fine_grid():
    # at n = 80 an unlifted projected CG (P A P, singular on range(B.T))
    # met negative curvature once rounding left Ker B
    problem = stokes_problem(build_grid(80), manufactured_case("polynomial"))
    s1 = solve_stokes_coupled(problem, 1e-12)
    s2 = solve_stokes_minimization(problem, 1e-12)
    assert np.linalg.norm(s2.x - s1.x) <= 1e-10 * np.linalg.norm(s1.x)
    assert np.linalg.norm(s2.multiplier - s1.multiplier) <= \
        1e-10 * np.linalg.norm(s1.multiplier)


def test_minimization_fails_fast_below_attainable_accuracy():
    # tol 1e-17 is below what rounding lets the residual reach: the one
    # true-residual confirmation fails near iteration 36, and CG must stop
    # on stagnation long before max_iter = 10 N = 4800
    grid = build_grid(16)
    with pytest.raises(ConvergenceError, match="stagnation") as info:
        solve_stokes_minimization(
            stokes_problem(grid, manufactured_case("taylor_green")), 1e-17)
    iterations = int(re.search(r"after (\d+) iterations",
                               str(info.value)).group(1))
    assert iterations < 480


def test_coupled_route_stagnates_below_attainable_accuracy():
    # the constant pressure mode is lifted in the Schur CG, so a tol below
    # attainable accuracy ends on stagnation, not on the zero-curvature
    # direction that rounding reaches outside range(B)
    grid = build_grid(16)
    with pytest.raises(ConvergenceError, match="stagnation"):
        solve_stokes_coupled(
            stokes_problem(grid, manufactured_case("taylor_green")), 1e-17)


@pytest.mark.parametrize("case_id", ["taylor_green", "polynomial"])
def test_coupled_iterations_do_not_grow_with_the_mesh(case_id):
    # inf-sup stability bounds the Schur complement's condition number on
    # zero-mean pressures by 1/beta^2 at every h
    case = manufactured_case(case_id)
    for n in (16, 32, 64):
        saddle = solve_stokes_coupled(stokes_problem(build_grid(n), case),
                                      1e-12)
        assert saddle.inner_report.iterations <= 20


@pytest.mark.parametrize("case_id", ["taylor_green", "polynomial"])
def test_minimization_iterations_grow_slowly(case_id):
    # the constraint preconditioner P A^-1 P + (I - P) is not spectrally
    # equivalent to (P A P)^-1 on Ker B, so the count still grows (7, 11,
    # 17 at n = 16, 32, 64), but far below the ~2n (29, 62, 125) of
    # projected CG without it
    case = manufactured_case(case_id)
    for n in (16, 32, 64):
        saddle = solve_stokes_minimization(
            stokes_problem(build_grid(n), case), 1e-12)
        assert saddle.inner_report.iterations <= 20


def test_returned_pressures_have_zero_mean():
    problem = stokes_problem(build_grid(8), manufactured_case("polynomial"))
    for solve in (solve_stokes_coupled, solve_stokes_minimization):
        p = solve(problem, 1e-12).multiplier
        assert abs(p.sum()) <= 1e-12 * max(np.linalg.norm(p), 1e-30)


def test_minimizer_beats_divergence_free_perturbations():
    grid = build_grid(8)
    case = manufactured_case("taylor_green")
    u = solve_stokes_minimization(stokes_problem(grid, case), 1e-12).x
    A, B = assemble_operators(grid)
    project = divergence_free_projector(B)
    b = sample_forcing(grid, case)

    def j(v):
        return 0.5 * float(v @ A.apply(v)) - float(b @ v)

    scale = A.frobenius_norm() * np.linalg.norm(u) + np.linalg.norm(b)
    rng = np.random.default_rng(56)
    j_u = j(u)
    for _ in range(100):
        w = project(rng.standard_normal(u.shape[0]))
        assert j_u <= j(u + w) + 1e-12 * scale


def test_divergence_free_projector_properties():
    grid = build_grid(6)
    A, B = assemble_operators(grid)
    project = divergence_free_projector(B)
    rng = np.random.default_rng(57)
    v = rng.standard_normal(grid.n_velocity)
    w = project(v)
    assert np.linalg.norm(B.apply(w)) <= 1e-12 * np.linalg.norm(v)
    assert np.linalg.norm(project(w) - w) <= 1e-12 * np.linalg.norm(w)


# -- fast diagonalization -------------------------------------------------


@pytest.mark.parametrize("k", range(1, 10))
def test_closed_form_bases_diagonalize_the_stencils(k):
    d = _face_difference(k)
    stencils = [(_sine_basis(k, False), _second_difference(k, False)),
                (_sine_basis(k, True), _second_difference(k, True)),
                (_cosine_basis(k), d @ d.T)]
    for (lam, q), stencil in stencils:
        assert np.abs(q @ np.diag(lam) @ q.T - stencil.toarray()).max() \
            <= 1e-13
        assert np.abs(q.T @ q - np.eye(k)).max() <= 1e-13
    assert _cosine_basis(k)[0][0] == 0.0        # the constant mode


@pytest.mark.parametrize("n", [2, 3, 4, 7, 16, 64])
def test_mac_velocity_solve_matches_sparse_lu(n):
    grid = build_grid(n)
    solve = assemble_operators(grid)[0].solve
    oracle = factorized(_oracle_operators(n)[0])
    r = np.random.default_rng(n).standard_normal(grid.n_velocity)
    x, ref = solve(r), oracle(r)
    assert x.shape == r.shape
    assert np.linalg.norm(x - ref) <= 1e-12 * np.linalg.norm(ref)


@pytest.mark.parametrize("n", [2, 3, 8, 33, 64])
def test_mac_pressure_solve_is_the_zero_mean_pseudo_inverse(n):
    grid = build_grid(n)
    b = _kronecker_operators(n)[1]
    q = b @ np.random.default_rng(n).standard_normal(grid.n_velocity)
    p = assemble_operators(grid)[1].normal_solve(q)
    assert np.linalg.norm(b @ (b.T @ p) - q) <= 1e-12 * np.linalg.norm(q)
    assert abs(p.mean()) <= 1e-14 * np.abs(p).max()


def _pinned_least_squares(div):
    # the sparse-LU multiplier the fast pseudo-inverse replaced: B without
    # its last row, the last pressure pinned at 0
    b = div.csr[:-1]
    lu = splu((b @ b.T).tocsc())
    return lambda r: np.append(lu.solve(b @ r), 0.0)


def _sparse_lu_routes(grid, case, tol):
    """Both routes as they ran on sparse LU (the coupled one: A^-1) and the
    assembled operators, as oracles: (u, p) each."""
    a, div = _oracle_operators(grid.n)
    problem = stokes_problem(grid, case)
    object.__setattr__(problem, "a_solve", factorized(a))
    coupled = solve_schur(problem, tol)
    b = problem.b
    w = _pinned_least_squares(div)

    def project(v):
        return v - div.apply_transpose(w(v))

    def lifted(v):
        pv = project(v)
        return project(a.apply(pv)) + (v - pv)

    u2, _ = conjugate_gradient(lifted, project(b), tol=tol)
    u2 = project(u2)
    p2 = w(a.apply(u2) - b)
    return (coupled.x, coupled.multiplier), (u2, p2 - p2.mean())


@pytest.mark.parametrize("case_id", ["taylor_green", "polynomial"])
@pytest.mark.parametrize("n", [2, 5, 16, 64])
def test_routes_match_their_sparse_lu_versions(n, case_id):
    grid = build_grid(n)
    case = manufactured_case(case_id)
    problem = stokes_problem(grid, case)
    fast = [solve(problem, 1e-12)
            for solve in (solve_stokes_coupled, solve_stokes_minimization)]
    for saddle, (u_ref, p_ref) in zip(fast,
                                      _sparse_lu_routes(grid, case, 1e-12)):
        assert np.linalg.norm(saddle.x - u_ref) <= \
            1e-12 * np.linalg.norm(u_ref)
        assert np.linalg.norm(saddle.multiplier - p_ref) <= \
            1e-12 * np.linalg.norm(p_ref)


def test_infsup_applies_no_viscous_stencil(monkeypatch):
    # the estimate needs A only through its fast solve, so not even A's
    # stencil is applied
    def no_viscous_stencil(self, x):
        raise AssertionError("viscous stencil applied")

    monkeypatch.setattr(stokes.ViscousOperator, "apply", no_viscous_stencil)
    # the n=8 value acceptance criterion 8 freezes
    assert estimate_infsup_stokes(build_grid(8)).beta == \
        pytest.approx(0.5565585975735114, abs=1e-9)


def test_each_route_builds_each_eigenbasis_once(monkeypatch):
    # the operators keep their bases: the minimization route's projector
    # and its pressure recovery share one cosine basis, (B B.T)^+ is built
    # only where it is used, and a second route on the same problem builds
    # no basis of A again
    built = Counter()

    def counted(name):
        basis = getattr(stokes, name)

        def wrapper(*args, **kwargs):
            built[name] += 1
            return basis(*args, **kwargs)
        return wrapper

    for name in ("_sine_basis", "_cosine_basis"):
        monkeypatch.setattr(stokes, name, counted(name))

    def bases_built(route, *args):
        built.clear()
        route(*args)
        return built["_sine_basis"], built["_cosine_basis"]

    grid, case = build_grid(8), manufactured_case("taylor_green")
    assert bases_built(solve_stokes_minimization,
                       stokes_problem(grid, case)) == (2, 1)
    problem = stokes_problem(grid, case)
    assert bases_built(solve_stokes_coupled, problem) == (2, 0)
    assert bases_built(solve_stokes_minimization, problem) == (0, 1)
    assert bases_built(estimate_infsup_stokes, grid) == (2, 0)


# -- error norms and convergence -------------------------------------------


def _exact_fields(grid, case):
    """The exact fields sampled at grid points, as flat (velocity,
    pressure)."""
    ux, uy = grid.u_coordinates()
    vx, vy = grid.v_coordinates()
    px, py = grid.p_coordinates()
    u = np.concatenate([case.u_exact(ux, uy).ravel(),
                        case.v_exact(vx, vy).ravel()])
    return u, np.asarray(case.p_exact(px, py), dtype=float).ravel()


def test_error_norms_vanish_on_exact_samples():
    grid = build_grid(8)
    case = manufactured_case("taylor_green")
    velocity, pressure = _exact_fields(grid, case)
    err = error_norms(velocity, pressure, case, grid)
    assert err["l2_u"] <= 1e-14
    assert err["l2_p"] <= 1e-14
    assert err["linf_u"] <= 1e-14


def test_error_norms_ignore_constant_pressure_shift():
    grid = build_grid(8)
    case = manufactured_case("taylor_green")
    velocity, pressure = _exact_fields(grid, case)
    shifted = pressure + 42.0
    base = error_norms(velocity, pressure, case, grid)
    moved = error_norms(velocity, shifted, case, grid)
    assert moved["l2_p"] == pytest.approx(base["l2_p"], abs=1e-12)


def test_taylor_green_baseline_errors():
    case = manufactured_case("taylor_green")
    for n, frozen in L2_U_BASELINE.items():
        grid = build_grid(n)
        saddle = solve_stokes_coupled(stokes_problem(grid, case), 1e-12)
        err = error_norms(saddle.x, saddle.multiplier, case, grid)
        assert err["l2_u"] == pytest.approx(frozen, rel=1e-8)


def test_velocity_error_drops_at_second_order():
    case = manufactured_case("taylor_green")
    errors = []
    for n in (4, 8):
        grid = build_grid(n)
        saddle = solve_stokes_coupled(stokes_problem(grid, case), 1e-12)
        errors.append(error_norms(saddle.x, saddle.multiplier, case,
                                  grid)["l2_u"])
    order = np.log2(errors[0] / errors[1])
    assert 1.7 <= order <= 2.3


# -- inf-sup ---------------------------------------------------------------


def test_infsup_matches_frozen_oracle_values():
    for n, frozen in BETA_BASELINE.items():
        est = estimate_infsup_stokes(build_grid(n))
        assert est.beta == pytest.approx(frozen, abs=1e-9)
        assert est.beta > 0.0


def test_infsup_n2_closed_form():
    # the 4-cell grid's constant is exactly sqrt(1/2)
    est = estimate_infsup_stokes(build_grid(2))
    assert est.beta == pytest.approx(np.sqrt(0.5), abs=1e-10)


def _assert_infsup_matches_dense_reduced_pencil(n):
    # independent oracle: dense eigh of (B A^-1 B.T, Mp) restricted to
    # zero-mean pressures by an explicit orthonormal basis
    grid = build_grid(n)
    a, b = (m.toarray() for m in _kronecker_operators(n))
    s = b @ np.linalg.solve(a, b.T)
    basis = sla.null_space(np.ones((1, grid.n_pressure)))
    lam = sla.eigh(basis.T @ s @ basis,
                   basis.T @ np.diag(_pressure_mass(grid)) @ basis,
                   eigvals_only=True)[0]
    est = estimate_infsup_stokes(grid)
    assert est.beta == pytest.approx(np.sqrt(lam), abs=1e-10)


def test_infsup_matches_dense_reduced_pencil():
    _assert_infsup_matches_dense_reduced_pencil(4)


@pytest.mark.parametrize("n", [8, 16, 32])
def test_infsup_matches_dense_reduced_pencil_on_criterion_grids(n):
    # the grids acceptance criterion 8 reads its betas from
    _assert_infsup_matches_dense_reduced_pencil(n)


def test_undeflated_pencil_has_constant_kernel():
    grid = build_grid(4)
    a, b = (m.toarray() for m in _kronecker_operators(4))
    s = SparseOperator(0.5 * (b @ np.linalg.solve(a, b.T)
                              + (b @ np.linalg.solve(a, b.T)).T))
    lam, q = smallest_generalized_eigenpair(s, np.diag(_pressure_mass(grid)))
    assert abs(lam) <= 1e-10
    direction = q / np.linalg.norm(q)
    ones = np.ones_like(direction) / np.sqrt(direction.size)
    assert abs(abs(direction @ ones) - 1.0) <= 1e-6


@pytest.mark.parametrize("n", [2, 4, 8, 16])
def test_infsup_attaining_vector_has_zero_mean(n):
    # n=2 has N_p = 4, the smallest pencil the constant-mode lift handles
    est = estimate_infsup_stokes(build_grid(n))
    assert abs(est.attaining_q.sum()) <= 1e-8


def test_infsup_attaining_vector_is_mass_normalized():
    grid = build_grid(16)
    est = estimate_infsup_stokes(grid)
    q = est.attaining_q
    assert q @ (_pressure_mass(grid) * q) == pytest.approx(1.0, abs=1e-12)
    assert abs(q.sum()) <= 1e-8 * np.linalg.norm(q)


def test_infsup_is_deterministic():
    # the Lanczos start vector is seeded: same grid, same bytes
    first = estimate_infsup_stokes(build_grid(24))
    second = estimate_infsup_stokes(build_grid(24))
    assert first.beta == second.beta
    assert first.attaining_q.tobytes() == second.attaining_q.tobytes()


def test_infsup_n64_matches_dense_value():
    # dense eigh of the lifted Schur complement gave 0.4763277341 at n=64
    est = estimate_infsup_stokes(build_grid(64))
    assert est.beta == pytest.approx(0.4763277341, abs=1e-9)


def test_infsup_falls_toward_its_limit_under_refinement():
    # observed, not proven: on these grids beta falls strictly (0.5566,
    # 0.5152, 0.4915, 0.4763, 0.4659) and stays above sqrt(1/2 - 1/pi)
    betas = [estimate_infsup_stokes(build_grid(n)).beta
             for n in (8, 16, 32, 64, 128)]
    assert all(fine < coarse for coarse, fine in zip(betas, betas[1:]))
    assert min(betas) > np.sqrt(0.5 - 1.0 / np.pi)


def _multiplier_ratio(grid, beta, b, p):
    """beta |p|_Mp / |b|_A^-1: at most one for the multiplier p of the
    forcing b, since beta |p|_Mp <= |B.T p|_A^-1 = |A u - b|_A^-1 and u is
    the A-projection of A^-1 b onto Ker B."""
    mass = _pressure_mass(grid)
    return beta * np.sqrt(p @ (mass * p)) / \
        np.sqrt(b @ assemble_operators(grid)[0].solve(b))


@pytest.mark.parametrize("case_id", ["taylor_green", "polynomial"])
@pytest.mark.parametrize("n", [8, 16, 32, 64])
def test_infsup_constant_bounds_the_multiplier(n, case_id):
    # the paper's claim: the inf-sup constant controls the pressure, the
    # multiplier of div u = 0 (ratios 0.061 -> 0.053 and 0.81 -> 0.70)
    grid = build_grid(n)
    case = manufactured_case(case_id)
    p = solve_stokes_coupled(stokes_problem(grid, case)).multiplier
    ratio = _multiplier_ratio(grid, estimate_infsup_stokes(grid).beta,
                              sample_forcing(grid, case), p)
    assert ratio <= 1.0 + 1e-10


@pytest.mark.parametrize("n", [8, 16, 32, 64])
def test_infsup_bound_is_attained_by_the_attaining_pressure(n):
    # b = B.T q for the attaining q: u = 0, p = -q, and |b|_A^-1 = beta
    grid = build_grid(n)
    est = estimate_infsup_stokes(grid)
    problem = stokes_problem(grid, _zero_case())
    b = problem.C.apply_transpose(est.attaining_q)
    p = solve_schur(problem.with_rhs(b, problem.d), 1e-12).multiplier
    ratio = _multiplier_ratio(grid, est.beta, b, p)
    assert ratio == pytest.approx(1.0, abs=1e-10)


def _divergence_source_solve(grid, b, g):
    """(u, p) minimizing the viscous energy with load b subject to B u = g,
    by the coupled route, checked against the minimization route."""
    problem = stokes_problem(grid, _zero_case()).with_rhs(b, g)
    coupled, minimized = (solve_schur(problem, 1e-12),
                          solve_projected_cg(problem, 1e-12))
    for saddle in (coupled, minimized):       # worst measured 3.9e-13
        assert np.linalg.norm(problem.C.apply(saddle.x) - g) <= \
            1e-12 * np.linalg.norm(g)
    assert np.linalg.norm(minimized.multiplier - coupled.multiplier) <= \
        1e-10 * np.linalg.norm(coupled.multiplier)   # worst 6.3e-13
    return coupled.x, coupled.multiplier


def _zero_mean_source(grid, rng):
    # h^2-scaled like B u: entries +-h times face differences of order h
    xi = rng.standard_normal(grid.n_pressure)
    return grid.h ** 2 * (xi - xi.mean())


@pytest.mark.parametrize("case_id", ["taylor_green", "polynomial", "rough"])
@pytest.mark.parametrize("n", [3, 8, 33])
def test_pressure_is_the_sensitivity_of_the_optimal_energy(n, case_id):
    # J*(g) = min {(1/2) u.T A u - b.T u : B u = g} has gradient p on
    # zero-mean g: the pressure is the shadow price of a mass source.  J*
    # is quadratic in g, so the central difference is exact up to rounding
    # (measured: at most 1.6e-14 of |p| |e|)
    grid = build_grid(n)
    case = (_gaussian_load_case(grid, 0) if case_id == "rough"
            else manufactured_case(case_id))
    b = sample_forcing(grid, case)
    rng = np.random.default_rng([n, 27])
    g, e = _zero_mean_source(grid, rng), _zero_mean_source(grid, rng)
    a = assemble_operators(grid)[0]

    def optimal_energy(d):
        u, _ = _divergence_source_solve(grid, b, d)
        return 0.5 * u @ a.apply(u) - b @ u

    _, p = _divergence_source_solve(grid, b, g)
    slope = (optimal_energy(g + e) - optimal_energy(g - e)) / 2
    assert abs(slope - p @ e) <= 1e-9 * np.linalg.norm(p) * np.linalg.norm(e)


def _brezzi_ratio(grid, beta, b, g, p):
    """|p|_Mp over the Brezzi bound |b|_A^-1 / beta + |g|_Mp^-1 / beta^2."""
    mass = _pressure_mass(grid)
    bound = (np.sqrt(b @ assemble_operators(grid)[0].solve(b)) / beta
             + np.sqrt(g @ (g / mass)) / beta ** 2)
    return np.sqrt(p @ (mass * p)) / bound


@pytest.mark.parametrize("n", [7, 8, 16, 32, 64])
def test_brezzi_bound_holds_on_seeded_loads_and_sources(n):
    # the stability estimate with a mass source: ratios 0.26 to 0.49
    grid = build_grid(n)
    beta = estimate_infsup_stokes(grid).beta
    for seed in range(3):
        rng = np.random.default_rng([n, seed])
        b = grid.h ** 2 * rng.standard_normal(grid.n_velocity)
        g = _zero_mean_source(grid, rng)
        _, p = _divergence_source_solve(grid, b, g)
        assert _brezzi_ratio(grid, beta, b, g, p) <= 1.0


@pytest.mark.parametrize("n", [7, 8, 16, 32])
def test_brezzi_bound_is_attained_by_the_attaining_source(n):
    # b = 0 and g = Mp q for the attaining q: S q = beta^2 Mp q gives
    # p = q / beta^2, so 1/beta^2 is the sharp power of the source term
    grid = build_grid(n)
    est = estimate_infsup_stokes(grid)
    b = np.zeros(grid.n_velocity)
    g = _pressure_mass(grid) * est.attaining_q
    _, p = _divergence_source_solve(grid, b, g)
    assert _brezzi_ratio(grid, est.beta, b, g, p) == \
        pytest.approx(1.0, abs=1e-10)


def _gaussian_load_case(grid, seed):
    """A case whose load is b = h^2 xi with xi seeded standard Gaussian:
    f1 and f2 return fixed arrays, so ``sample_forcing`` gives h^2 xi."""
    rng = np.random.default_rng([grid.n, seed])
    xi_u = rng.standard_normal(grid.u_shape)
    xi_v = rng.standard_normal(grid.v_shape)
    return dataclasses.replace(_zero_case(), case_id=f"gaussian_{seed}",
                               f1=lambda x, y: xi_u, f2=lambda x, y: xi_v)


def _pinned_qp_pressure(grid, b):
    # the generic QP core on B without its last row (that pressure pinned
    # at 0, so C has full row rank), made zero-mean
    a, div = _oracle_operators(grid.n)
    problem = QpProblem(a, b, SparseOperator(div.csr[:-1]),
                        np.zeros(grid.n_pressure - 1))
    p = np.append(solve_kkt_direct(problem, 1e-12).multiplier, 0.0)
    return p - p.mean()


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("n", [2, 3, 7, 16, 33])
def test_pressure_identity_under_rough_loads(n, seed):
    # smooth manufactured cases on even grids are not the only loads the
    # identity holds for: Gaussian loads on odd and tiny grids, two routes
    # (and, where its dense SVD is cheap, the QP core) agree on the pressure
    grid = build_grid(n)
    case = _gaussian_load_case(grid, seed)
    b = sample_forcing(grid, case)
    problem = stokes_problem(grid, case)
    coupled = solve_stokes_coupled(problem, 1e-12)
    minimized = solve_stokes_minimization(problem, 1e-12)
    p = coupled.multiplier
    witnesses = [minimized.multiplier]
    if n <= 16:
        witnesses.append(_pinned_qp_pressure(grid, b))
    for q in witnesses:
        assert np.linalg.norm(q - p) <= 1e-10 * np.linalg.norm(p)
    div = assemble_operators(grid)[1]
    for saddle in (coupled, minimized):
        assert np.linalg.norm(div.apply(saddle.x)) <= \
            1e-10 * np.linalg.norm(saddle.x)
    beta = estimate_infsup_stokes(grid).beta
    assert _multiplier_ratio(grid, beta, b, p) <= 1.0 + 1e-10


# -- field export ----------------------------------------------------------


def test_write_fields_csv_round_trip(tmp_path):
    grid = build_grid(3)
    case = manufactured_case("polynomial")
    velocity, pressure = _exact_fields(grid, case)
    path = tmp_path / "fields.csv"
    write_fields_csv(path, grid, velocity, pressure)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["kind", "i", "j", "x", "y", "value"]
    body = rows[1:]
    assert len(body) == grid.n_velocity + grid.n_pressure
    kinds = [r[0] for r in body]
    assert kinds.count("u") == grid.n * (grid.n - 1)
    assert kinds.count("v") == grid.n * (grid.n - 1)
    assert kinds.count("p") == grid.n_pressure
    # spot-check one u row against the stored array
    first_u = body[0]
    u_faces, _ = grid.split_velocity(velocity)
    assert float(first_u[5]) == u_faces[int(first_u[1]), int(first_u[2])]


def _reference_fields_csv(grid, u, p):
    """The per-row writer the streamed export replaced, kept as its byte
    oracle: one f-string per line, the whole file joined in memory."""
    u_faces, v_faces = grid.split_velocity(u)
    blocks = [
        ("u", u_faces, grid.u_coordinates()),
        ("v", v_faces, grid.v_coordinates()),
        ("p", np.reshape(p, grid.p_shape), grid.p_coordinates()),
    ]
    lines = ["kind,i,j,x,y,value\n"]
    for kind, values, (xs, ys) in blocks:
        x_text = [repr(x) for x in xs[:, 0].tolist()]
        y_text = [repr(y) for y in ys[0].tolist()]
        for i, row in enumerate(values.tolist()):
            lines.extend(f"{kind},{i},{j},{x_text[i]},{y},{v!r}\n"
                         for j, (y, v) in enumerate(zip(y_text, row)))
    return "".join(lines)


def _per_element_fields_csv(grid, u, p):
    """The export's specification, element by element: x, y and the value
    of line (kind, i, j) read at [i, j] of the coordinate and field arrays."""
    u_faces, v_faces = grid.split_velocity(u)
    expected = ["kind,i,j,x,y,value\n"]
    for kind, values, (xs, ys) in (
            ("u", u_faces, grid.u_coordinates()),
            ("v", v_faces, grid.v_coordinates()),
            ("p", np.reshape(p, grid.p_shape), grid.p_coordinates())):
        for i in range(values.shape[0]):
            for j in range(values.shape[1]):
                expected.append(f"{kind},{i},{j},{float(xs[i, j])!r},"
                                f"{float(ys[i, j])!r},"
                                f"{float(values[i, j])!r}\n")
    return "".join(expected)


def test_write_fields_csv_matches_row_by_row_formula(tmp_path):
    # solved fields, and seeded ones holding values whose repr is unusual;
    # the old writer and the per-element formula agree, and the file is
    # byte for byte what both say
    specials = [-0.0, 5e-324, 1e16, 1e-5, 123456789012345680.0]
    path = tmp_path / "fields.csv"
    for n in (2, 3, 5, 16):
        grid = build_grid(n)
        solved = solve_stokes_coupled(
            stokes_problem(grid, manufactured_case("taylor_green")))
        rng = np.random.default_rng([n, 58])
        seeded = rng.standard_normal(grid.n_velocity + grid.n_pressure)
        seeded[rng.choice(seeded.size, len(specials), replace=False)] = \
            specials
        for u, p in ((solved.x, solved.multiplier),
                     (seeded[:grid.n_velocity], seeded[grid.n_velocity:])):
            expected = _per_element_fields_csv(grid, u, p)
            assert _reference_fields_csv(grid, u, p) == expected
            write_fields_csv(path, grid, u, p)
            assert path.read_bytes() == expected.encode("ascii")


def test_write_fields_csv_failure_before_the_text_writes_nothing(
        tmp_path, monkeypatch):
    # fields are shaped and coordinates read before the file is opened
    grid = build_grid(4)
    u, p = np.zeros(grid.n_velocity), np.zeros(grid.n_pressure)
    with pytest.raises(ValueError):
        write_fields_csv(tmp_path / "short.csv", grid, u, p[:-1])
    assert not (tmp_path / "short.csv").exists()

    def broken(self):
        raise RuntimeError("no coordinates")

    monkeypatch.setattr(type(grid), "p_coordinates", broken)
    with pytest.raises(RuntimeError, match="no coordinates"):
        write_fields_csv(tmp_path / "late.csv", grid, u, p)
    assert not (tmp_path / "late.csv").exists()


def test_write_fields_csv_memory_does_not_grow_with_the_file(tmp_path):
    # streamed a grid row at a time, the n=128 export (2.3 MB) holds a few
    # rows of text and one block's coordinates, never the file
    grid = build_grid(128)
    rng = np.random.default_rng(27)
    u = rng.standard_normal(grid.n_velocity)
    p = rng.standard_normal(grid.n_pressure)
    path = tmp_path / "fields.csv"
    tracemalloc.start()
    try:
        write_fields_csv(path, grid, u, p)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < path.stat().st_size / 4
