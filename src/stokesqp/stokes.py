"""Stationary Stokes flow on a staggered (MAC) grid over the unit square.

Velocity components live on interior cell faces, pressure at cell centers;
homogeneous Dirichlet velocity on the whole boundary.  The viscous operator
A, the divergence B and its transpose are stencils applied to the 2-D face
and cell arrays (``ViscousOperator``, ``DivergenceOperator``); no Stokes
matrix is ever assembled, since every route needs them only as actions,
and each action equals the CSR product of its matrix bit for bit.  The
discrete problem is exactly an equality-constrained quadratic
minimization: the viscous energy is minimized over the kernel of the
discrete divergence, and the pressure is the Lagrange multiplier of that
constraint.  So it is one ``qp.QpProblem`` per grid (``stokes_problem``),
solved by two QP routes so that the identity is checked numerically on the
same problem: the coupled route is ``qp.solve_schur``, the minimization route
``qp.solve_projected_cg``.  Both return the QP core's SaddleSolution: the
flat velocity is its ``x`` and the zero-mean pressure its ``multiplier``.

The stencils carry their own proofs, the factors a QpProblem needs.  Both
blocks of A and B B.T are Kronecker sums of 1-D second differences, so
neither is ever factored: the closed-form sine and cosine eigenbases of the
1-D stencils diagonalize them (the fast diagonalization method of Lynch,
Rice & Thomas, 1964), and each A-solve (``A.solve``, the A-factor), and each
application of the pseudo-inverse (B B.T)^+ (``B.normal_solve``), is four
dense n x n products and one division, with the eigenbases built on first
use and kept.  B is the C-factor, built on (B B.T)^+: the constant
pressure, which spans Ker B.T, is its ``kernel``, and the pseudo-inverse
drops it.  ``MacGrid.split_velocity`` gives the 2-D face views of a flat
velocity; ``write_fields_csv`` streams both fields to CSV a row at a time.

Scaling convention: operators are "integrated", i.e. A represents the
bilinear form of the velocity gradients (stencil entries O(1)), B maps face
velocities to h-weighted cell fluxes (entries +-h), and loads carry a factor
h^2.  With these scalings the momentum equation reads  A u - B.T p = b  and
the multiplier of the constrained minimization is the pressure itself,
without any mesh-dependent rescaling.
"""

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
# unused here; kept bound because the benchmark tracer's tests check it
from scipy.sparse.linalg import splu  # noqa: F401

from . import mmio
from .qp import (InfSupEstimate, QpProblem, schur_complement,
                 solve_projected_cg, solve_schur)
# unused here; kept bound because the benchmark tracer's tests check them
from .qp import recover_multiplier  # noqa: F401
from .solvers import conjugate_gradient  # noqa: F401
from .solvers import DEFAULT_TOL, smallest_eigenpair_matrix_free
from .sparse import as_vector


@dataclass(frozen=True)
class MacGrid:
    """Uniform n-by-n staggered grid on the unit square, h = 1/n.

    Index maps (all C-order, [ix, iy]):
      u-faces: interior vertical faces, shape (n-1, n), at ((ix+1)h, (iy+1/2)h)
      v-faces: interior horizontal faces, shape (n, n-1), at ((ix+1/2)h, (iy+1)h)
      p-cells: centers, shape (n, n), at ((ix+1/2)h, (iy+1/2)h)
    Boundary faces are not stored; they are identically zero (no-slip).
    """

    n: int

    @property
    def h(self):
        return 1 / self.n

    @property
    def u_shape(self):
        return (self.n - 1, self.n)

    @property
    def v_shape(self):
        return (self.n, self.n - 1)

    @property
    def p_shape(self):
        return (self.n, self.n)

    @property
    def n_velocity(self):
        return 2 * self.n * (self.n - 1)

    @property
    def n_pressure(self):
        return self.n * self.n

    def split_velocity(self, vec):
        """Views of a flat velocity's u-faces and v-faces, as (n-1, n) and
        (n, n-1) arrays."""
        half = self.n * (self.n - 1)
        return (vec[:half].reshape(self.u_shape),
                vec[half:].reshape(self.v_shape))

    def u_coordinates(self):
        x = np.arange(1, self.n) * self.h
        y = (np.arange(self.n) + 0.5) * self.h
        return np.meshgrid(x, y, indexing="ij")

    def v_coordinates(self):
        x = (np.arange(self.n) + 0.5) * self.h
        y = np.arange(1, self.n) * self.h
        return np.meshgrid(x, y, indexing="ij")

    def p_coordinates(self):
        c = (np.arange(self.n) + 0.5) * self.h
        return np.meshgrid(c, c, indexing="ij")


def build_grid(n):
    if not isinstance(n, (int, np.integer)):
        raise TypeError(f"n must be an integer, got {type(n).__name__}")
    if n < 2:
        raise ValueError(f"need at least 2 cells per side, got n={n}")
    return MacGrid(int(n))


def _sine_basis(k, ghost):
    """Orthonormal eigenpairs (lam, Q) of the k x k tridiag(-1, 2, -1), with
    ghost=True its end rows closed by reflection (diagonal 3; 4 when k = 1).
    Dirichlet: Q[j, m] ~ sin((j+1)(m+1) pi / (k+1)).  Ghost-closed: Q[j, m] ~
    sin((m+1) pi (j+1/2) / k), the last column (the alternating mode) scaled
    by 1/sqrt(2).  lam = 2 - 2 cos(theta), written 4 sin^2(theta/2) to keep
    the small eigenvalues to full relative accuracy."""
    j = np.arange(k)[:, None]
    m = np.arange(1, k + 1)
    if ghost:
        theta = m * math.pi / k
        q = np.sqrt(2.0 / k) * np.sin(theta * (j + 0.5))
        q[:, -1] /= math.sqrt(2.0)
    else:
        theta = m * math.pi / (k + 1)
        q = np.sqrt(2.0 / (k + 1)) * np.sin(theta * (j + 1))
    return 4.0 * np.sin(0.5 * theta) ** 2, q


def _cosine_basis(n):
    """Orthonormal eigenpairs (lam, Q) of the Neumann second difference D D.T
    with D[i, i] = 1, D[i, i-1] = -1 (n x (n-1)): Q[j, m] ~ cos(m pi (j+1/2)
    / n), the first column (the constant, lam = 0) scaled by 1/sqrt(2)."""
    theta = np.arange(n) * math.pi / n
    q = np.sqrt(2.0 / n) * np.cos(theta * (np.arange(n)[:, None] + 0.5))
    q[:, 0] /= math.sqrt(2.0)
    return 4.0 * np.sin(0.5 * theta) ** 2, q


def _kron_sum_solve(y, qa, qb, inverse):
    # Y -> Qa ((Qa.T Y Qb) * inverse) Qb.T: T_a X + X T_b = Y with
    # T = Q diag(lam) Q.T and inverse = 1 / (lam_a + lam_b)
    return qa @ ((qa.T @ y @ qb) * inverse) @ qb.T


class ViscousOperator:
    """A, the viscous form: per velocity component the 5-point stencil on
    its face array (``MacGrid.split_velocity``), diagonal 4 plus 1 at each
    ghost-closed end.  Dirichlet rows drop the wall value where the wall
    passes through the faces (normal direction); the reflected ghost value
    closes the row where it lies half a cell away (tangential direction).
    Symmetric positive definite of size N_u; only the diagonals are stored,
    and the eigenbases of ``solve`` once it is first called.
    """

    def __init__(self, grid):
        self.grid = grid
        self.shape = (grid.n_velocity, grid.n_velocity)
        ends = np.full(grid.n, 4.0)
        ends[[0, -1]] += 1.0
        # u-faces are ghost-closed along y, v-faces along x
        self._centre = (ends, ends[:, None])

    def apply(self, x):
        """A x.  Each sum starts at +0.0 and is taken west, south, centre,
        north, east, the column order of the matrix row, so the result is
        the CSR product's bit for bit, signed zeros included."""
        x = as_vector(x, length=self.grid.n_velocity, name="x")
        y = np.zeros_like(x)
        for xs, ys, centre in zip(self.grid.split_velocity(x),
                                  self.grid.split_velocity(y), self._centre):
            ys[1:] -= xs[:-1]
            ys[:, 1:] -= xs[:, :-1]
            ys += centre * xs
            ys[:, :-1] -= xs[:, 1:]
            ys[:-1] -= xs[1:]
        return y

    def frobenius_norm(self):
        # per block: n - 1 lines of n faces, each with two ghost-closed
        # ends (25) and n - 2 diagonals of 16, and a -1 on each side of each
        # of the (n - 2) n + (n - 1)^2 neighbour pairs; an exact integer
        n = self.grid.n
        block = ((n - 1) * (16 * (n - 2) + 50)
                 + 2 * ((n - 2) * n + (n - 1) ** 2))
        return math.sqrt(2 * block)

    def solve(self, r):
        """A^-1 r by fast diagonalization.  The u-block is
        T_dir (x) I + I (x) T_ghost, so A_u X = T_dir X + X T_ghost on the
        (n-1, n) array X of u-faces, and the v-block is the same sum
        transposed; each block solve is four dense n x n products and one
        division: no factorization, O(n^3) per vector."""
        q_d, q_g, inverse = self._eigenbases
        ru, rv = self.grid.split_velocity(r)
        u = _kron_sum_solve(ru, q_d, q_g, inverse)
        v = _kron_sum_solve(rv, q_g, q_d, inverse.T)
        return np.concatenate([u.ravel(), v.ravel()])

    @cached_property
    def _eigenbases(self):
        n = self.grid.n
        lam_d, q_d = _sine_basis(n - 1, ghost=False)
        lam_g, q_g = _sine_basis(n, ghost=True)
        return q_d, q_g, 1.0 / (lam_d[:, None] + lam_g)


class DivergenceOperator:
    """B, the divergence: the divergence of cell (i, j) is its h-weighted
    net face flux, h (east u - west u + north v - south v), so q.T B v
    approximates the integral of q div v.  B is N_p x N_u with
    B.T 1 = 0 exactly (constants span Ker B.T); the discrete gradient is
    G = -B.T.  B is its own constraint factor (``qp.QpProblem``): the four
    members ``kernel``, ``min_norm_point``, ``least_squares_multiplier`` and
    ``kernel_component``.  Only the grid is stored, and the eigenbasis and
    the projector once first used.
    """

    def __init__(self, grid):
        self.grid = grid
        self.shape = (grid.n_pressure, grid.n_velocity)

    def apply(self, x):
        """B x on the (n, n) cell array, each sum started at +0.0 and taken
        west, east, south, north, the column order of the matrix row."""
        grid = self.grid
        u, v = grid.split_velocity(
            as_vector(x, length=grid.n_velocity, name="x"))
        hu, hv = grid.h * u, grid.h * v
        y = np.zeros(grid.p_shape)
        y[1:] -= hu
        y[:-1] += hu
        y[:, 1:] -= hv
        y[:, :-1] += hv
        return y.ravel()

    def apply_transpose(self, y):
        """B.T y, each face's sum started at +0.0 with the lower-numbered
        cell first, the order of the transposed CSR product."""
        grid = self.grid
        hq = grid.h * np.reshape(
            as_vector(y, length=grid.n_pressure, name="y"), grid.p_shape)
        g = np.zeros(grid.n_velocity)
        gu, gv = grid.split_velocity(g)
        gu += hq[:-1]
        gu -= hq[1:]
        gv += hq[:, :-1]
        gv -= hq[:, 1:]
        return g

    def normal_solve(self, q):
        """(B B.T)^+ q by fast diagonalization.  B B.T = h^2 (L (x) I +
        I (x) L) with L = D D.T the Neumann second difference; its one zero
        eigenvalue is the constant mode, which the pseudo-inverse drops, so
        for q in range(B) this is the zero-mean (minimum-norm) solution of
        B B.T p = q, with no pinned pressure and no factorization."""
        basis, inverse = self._normal_eigenbasis
        return _kron_sum_solve(np.reshape(q, self.grid.p_shape), basis, basis,
                               inverse).ravel()

    @cached_property
    def _normal_eigenbasis(self):
        lam, q = _cosine_basis(self.grid.n)
        denom = self.grid.h ** 2 * (lam[:, None] + lam)
        denom[0, 0] = np.inf             # the constant mode maps to 0
        return q, 1.0 / denom

    @property
    def kernel(self):
        """The constant pressure, which spans Ker B.T."""
        return np.ones(self.grid.n_pressure)

    def min_norm_point(self, d):
        """B.T (B B.T)^+ d, the minimum-norm solution of B u = d."""
        return self.apply_transpose(self.normal_solve(d))

    def least_squares_multiplier(self, g):
        """(B B.T)^+ B g, the zero-mean least-squares solution of B.T p = g."""
        return self.normal_solve(self.apply(g))

    @cached_property
    def kernel_component(self):
        """The projector onto Ker B (``divergence_free_projector``)."""
        return divergence_free_projector(self)


def _pressure_mass(grid):
    """Diagonal of Mp: h^2 per cell."""
    return np.full(grid.n_pressure, grid.h * grid.h)


def assemble_operators(grid):
    """The stencils (A, B) of ``grid``, built nowhere else in the package.

    Nothing is assembled: each operator holds the grid and, for A, its two
    diagonal arrays, O(n) memory, until its first solve keeps its O(n^2)
    eigenbases.  Every product equals the CSR product of the matrix the
    stencil defines, bit for bit.
    """
    return ViscousOperator(grid), DivergenceOperator(grid)


# -- manufactured solutions ------------------------------------------------


@dataclass(frozen=True)
class ManufacturedCase:
    """Closed-form velocity/pressure pair with hand-derived forcing.

    The velocity is divergence-free and vanishes on the boundary of the unit
    square; the pressure has zero mean; f = -laplace(u) + grad(p), worked
    out by hand and hard-coded (no symbolic machinery at runtime).
    """

    case_id: str
    u_exact: callable
    v_exact: callable
    p_exact: callable
    f1: callable
    f2: callable


def _taylor_green():
    pi = math.pi

    def u(x, y):
        return np.sin(pi * x) ** 2 * np.sin(2 * pi * y)

    def v(x, y):
        return -np.sin(2 * pi * x) * np.sin(pi * y) ** 2

    def p(x, y):
        return np.cos(pi * x) * np.cos(pi * y)

    def f1(x, y):
        return (-2 * pi ** 2 * np.cos(2 * pi * x) * np.sin(2 * pi * y)
                + 4 * pi ** 2 * np.sin(pi * x) ** 2 * np.sin(2 * pi * y)
                - pi * np.sin(pi * x) * np.cos(pi * y))

    def f2(x, y):
        return (-4 * pi ** 2 * np.sin(2 * pi * x) * np.sin(pi * y) ** 2
                + 2 * pi ** 2 * np.sin(2 * pi * x) * np.cos(2 * pi * y)
                - pi * np.cos(pi * x) * np.sin(pi * y))

    return ManufacturedCase("taylor_green", u, v, p, f1, f2)


def _polynomial():
    # stream-function psi = g(x) k(y) with g(t) = k(t) = t^2 (1-t)^2
    def g(t):
        return t * t * (1 - t) ** 2

    def dg(t):
        return 2 * t * (1 - t) * (1 - 2 * t)

    def d2g(t):
        return 2 - 12 * t + 12 * t * t

    def d3g(t):
        return 24 * t - 12

    def u(x, y):
        return g(x) * dg(y)

    def v(x, y):
        return -dg(x) * g(y)

    def p(x, y):
        return x - 0.5 + 0.0 * y

    def f1(x, y):
        return -(d2g(x) * dg(y) + g(x) * d3g(y)) + 1.0

    def f2(x, y):
        return d3g(x) * g(y) + dg(x) * d2g(y)

    return ManufacturedCase("polynomial", u, v, p, f1, f2)


_CASES = {"taylor_green": _taylor_green, "polynomial": _polynomial}


def manufactured_case(case_id):
    try:
        return _CASES[case_id]()
    except KeyError:
        raise ValueError(
            f"unknown case {case_id!r}; choose from {sorted(_CASES)}") from None


def sample_forcing(grid, case):
    """Lumped load vector: f at face centers times h^2 (cell volume)."""
    h2 = grid.h * grid.h
    ux, uy = grid.u_coordinates()
    vx, vy = grid.v_coordinates()
    bu = h2 * np.asarray(case.f1(ux, uy), dtype=float)
    bv = h2 * np.asarray(case.f2(vx, vy), dtype=float)
    return np.concatenate([bu.ravel(), bv.ravel()])


# -- solves ----------------------------------------------------------------


def divergence_free_projector(div):
    """Orthogonal projector onto Ker B of the DivergenceOperator ``div`` as
    a callable: v - B.T (B B.T)^+ B v, with the pseudo-inverse by fast
    diagonalization (``B.normal_solve``)."""
    def project(vec):
        return vec - div.apply_transpose(div.normal_solve(div.apply(vec)))

    return project


def stokes_problem(grid, case):
    """The discrete Stokes problem of ``case`` on ``grid`` as a QpProblem:
    minimize (1/2) u.T A u - b.T u subject to B u = 0, with the stencils as
    A and C and the lumped load (``sample_forcing``) as b.  Both routes below
    take it."""
    A, B = assemble_operators(grid)
    return QpProblem(A, sample_forcing(grid, case), B,
                     np.zeros(grid.n_pressure))


def solve_stokes_coupled(problem, tol=DEFAULT_TOL):
    """The coupled route, ``qp.solve_schur``: CG on the pressure Schur
    complement B A^-1 B.T.  Inf-sup stability bounds its condition number on
    zero-mean pressures by 1/beta^2, so the iteration count does not grow
    with the mesh."""
    return solve_schur(problem, tol)


def solve_stokes_minimization(problem, tol=DEFAULT_TOL):
    """The minimization route, ``qp.solve_projected_cg``: the viscous energy
    minimized over discretely divergence-free fields, then the pressure
    recovered as the constraint's Lagrange multiplier."""
    return solve_projected_cg(problem, tol)


def error_norms(u, p, case, grid):
    """Discrete L2 / max errors of a flat velocity u and pressure p against
    the exact fields at grid points.

    Pressure error is computed after subtracting the mean of both the
    numeric and the sampled exact field (comparison modulo constants).
    Returns {"l2_u", "l2_p", "linf_u"}.
    """
    h2 = grid.h * grid.h
    ux, uy = grid.u_coordinates()
    vx, vy = grid.v_coordinates()
    u_faces, v_faces = grid.split_velocity(u)
    du = u_faces - case.u_exact(ux, uy)
    dv = v_faces - case.v_exact(vx, vy)
    px, py = grid.p_coordinates()
    exact_p = np.asarray(case.p_exact(px, py), dtype=float).ravel()
    dp = (p - p.mean()) - (exact_p - exact_p.mean())
    return {
        "l2_u": float(np.sqrt(h2 * (np.sum(du * du) + np.sum(dv * dv)))),
        "l2_p": float(np.sqrt(h2 * np.sum(dp * dp))),
        "linf_u": float(max(np.max(np.abs(du)), np.max(np.abs(dv)))),
    }


def estimate_infsup_stokes(grid):
    """Discrete inf-sup constant beta(h) of the divergence operator.

    beta^2 is the smallest eigenvalue of (B A^-1 B.T, Mp) on zero-mean
    pressures.  The Schur complement is only applied: B and B.T as
    stencils, each A-solve by fast diagonalization (``A.solve``, which
    applies no stencil), and Lanczos
    (``smallest_eigenpair_matrix_free``) finds the bottom pair.  The
    constant mode, the kernel of B.T, is lifted above the bottom of the
    spectrum by a rank-one update, so the unrestricted solve returns beta and
    a zero-mean attaining vector.
    """
    # S 1 = 0 and Mp = h^2 I, so the lift c 1 1.T with c = 2 S_00 / N moves
    # only the constant mode, to 2 S_00 / h^2; e_0 - 1/N is zero-mean with
    # Rayleigh quotient S_00 / (h^2 (1 - 1/N)), so that is at least
    # 2 (1 - 1/N) beta^2 > beta^2
    A, B = assemble_operators(grid)
    schur = schur_complement(B, A.solve, B.kernel)
    lam, q = smallest_eigenpair_matrix_free(schur, _pressure_mass(grid))
    return InfSupEstimate(float(lam), q)


# -- export ----------------------------------------------------------------


def write_fields_csv(path, grid, u, p):
    """CSV rows (kind, i, j, x, y, value) of a flat velocity u and pressure p
    on ``grid``: u-faces, v-faces, then cells, each row-major.

    The file is streamed (``mmio.write_text``): the header, then one chunk
    per grid row of each block, made by one ``%`` on that block's row
    template.  The three templates and one row of text are held, never the
    file, and every value is written as its ``repr``.  The fields are shaped
    and the templates built before the file is opened, so a field of the
    wrong length, or a coordinate call that fails, raises and writes
    nothing; only an I/O error can leave the file cut short.
    """
    u_faces, v_faces = grid.split_velocity(u)
    blocks = [_row_template("u", grid.u_coordinates()) + (u_faces,),
              _row_template("v", grid.v_coordinates()) + (v_faces,),
              _row_template("p", grid.p_coordinates())
              + (np.reshape(p, grid.p_shape),)]
    mmio.write_text(path, _field_chunks(blocks))


def _row_template(kind, coordinates):
    """Every line of one grid row of a block, i and x left open and each
    value a ``%r``, with the x of each row; the meshgrid ``coordinates``
    vary in x with i only and in y with j only."""
    xs, ys = coordinates
    row = "".join(f"{kind},{{i}},{j},{{x}},{y!r},%r\n"
                  for j, y in enumerate(ys[0].tolist()))
    return row, xs[:, 0].tolist()


def _field_chunks(blocks):
    yield "kind,i,j,x,y,value\n"
    for row, xs, values in blocks:
        for i, x in enumerate(xs):
            yield (row.replace("{i}", str(i)).replace("{x}", repr(x))
                   % tuple(values[i].tolist()))
