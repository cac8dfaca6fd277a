"""Equality-constrained quadratic programming with multiplier recovery.

The problem is  min (1/2) x.T A x - b.T x  subject to  C x = d,  with A
symmetric positive definite and C of full row rank up to a known kernel of
C.T.  A ``QpProblem`` holds one factor of each operator: the A-factor
``a_solve`` (A^-1 as a callable) and the C-factor ``constraint``, whose
four members split the spaces of C: ``kernel`` (a vector spanning Ker C.T,
or None), ``min_norm_point(d)``, ``least_squares_multiplier(g)`` and
``kernel_component(g)`` (the orthogonal projection onto Ker C).  For two
``SparseOperator``s the factors are the proofs of the hypotheses, made when
the problem is built: A's L D L.T pivots, C's SVD (``SvdFactor``).
Operators that carry their own proofs, as the MAC stencils of ``stokes``
do, supply them: ``A.solve``, and C itself.

Four routes return the primal point with the multiplier satisfying
A x - b = C.T lam,  checked by one residual contract (``checked_solution``):
direct saddle factorization and null-space reduction, which build dense or
assembled blocks (``SparseOperator`` problems only), and CG on the Schur
complement C A^-1 C.T (``solve_schur``) and preconditioned projected CG over
Ker C (``solve_projected_cg``), which read only the factors and the actions
``apply``, ``apply_transpose`` and ``frobenius_norm``, and so solve the
Stokes problem too.  A failed solve raises where it is decided: CG's
non-convergence in ``conjugate_gradient``, a broken residual contract in
``checked_solution``.  The inf-sup constant governing multiplier uniqueness
is estimated for a ``SparseOperator`` problem, whose tests it trusts, from
either of its two equivalent variational forms (``estimate_infsup``).
"""

import copy
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

import numpy as np
import scipy.linalg as sla
from scipy import sparse as _sp

from . import mmio
from .sparse import SparseOperator, as_vector
from .solvers import (DEFAULT_TOL, ConvergenceError, SolverReport,
                      assert_full_row_rank, assert_positive_definite,
                      conjugate_gradient, kernel_basis,
                      lift_null_vector, smallest_generalized_eigenpair,
                      symmetric_indefinite_solve, SingularSystemError)


class MultiplierConsistencyError(RuntimeError):
    """The gradient at the given point is not in the row space of the
    constraints, i.e. the point is not a constrained minimizer."""


class SvdFactor:
    """The constraint factor of a full-row-rank C from its economy SVD
    (u, s, vh): the rows of vh span range(C.T), and Ker C.T = {0}."""

    kernel = None

    def __init__(self, svd):
        self.u, self.s, self.vh = svd

    def min_norm_point(self, d):
        """Minimum-norm solution vh.T diag(1/s) u.T d of C x = d."""
        return self.vh.T @ ((self.u.T @ d) / self.s)

    def least_squares_multiplier(self, g):
        """lam = u diag(1/s) vh g, least-squares solution of C.T lam = g."""
        return self.u @ ((self.vh @ g) / self.s)

    def kernel_component(self, g):
        """g - vh.T (vh g), the orthogonal projection of g onto Ker C."""
        return g - self.vh.T @ (self.vh @ g)


@dataclass(frozen=True)
class QpProblem:
    """The quadruple (A, b, C, d), with the A-factor and the C-factor.

    A : N x N, symmetric positive definite
    b : ndarray, length N (kept as a read-only copy, as d is, so routes
        that share a problem cannot write into each other's data)
    C : M x N, of rank M < N, or M - 1 < N if ``constraint.kernel`` is given
    d : ndarray, length M (d = 0 is the homogeneous-subspace case)
    a_solve : A^-1 as a callable (computed)
    constraint : the C-factor (computed; see the module docstring)

    A and C are two ``SparseOperator``s, A measured symmetric and both
    proven here (``assert_positive_definite`` gives ``a_solve``, and
    ``assert_full_row_rank`` the SVD of ``SvdFactor``), or two operators
    that carry their own proofs: ``A.solve`` and C itself.  Else TypeError.

    ``with_rhs`` gives the same (A, C) with new data (b, d), sharing all that
    is built from them instead of computing it again.
    """

    A: object
    b: np.ndarray
    C: object
    d: np.ndarray
    constraint: object = field(init=False, repr=False, compare=False)
    a_solve: object = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        A, C = self.A, self.C
        sparse = all(isinstance(op, SparseOperator) for op in (A, C))
        if not (sparse or hasattr(A, "solve") and hasattr(C, "kernel")):
            raise TypeError("A and C must be SparseOperator instances, or "
                            "carry their own factors (A.solve and C's)")
        if sparse and not A.symmetric:
            raise ValueError("A must be symmetric")
        (n, _), (m, ncols) = A.shape, C.shape
        if ncols != n:
            raise ValueError(f"C has {ncols} columns, expected {n}")
        if sparse and m >= n:           # stencils prove their own rank
            raise ValueError(f"need M < N, got M={m}, N={n}")
        self._set_rhs(self.b, self.d)
        object.__setattr__(self, "a_solve", assert_positive_definite(A)
                           if sparse else A.solve)
        object.__setattr__(self, "constraint", SvdFactor(
            assert_full_row_rank(C)) if sparse else C)

    def _set_rhs(self, b, d):
        for name, value, size in (("b", b, self.n_primal),
                                  ("d", d, self.n_constraints)):
            object.__setattr__(self, name, _read_only(
                as_vector(value, length=size, name=name).copy()))

    def with_rhs(self, b, d):
        """This problem with (b, d) in place of its own, validated as at
        construction, sharing A, C, both factors and whichever of
        ``kernel_basis`` and ``schur`` is built; nothing is factored again."""
        problem = copy.copy(self)
        problem._set_rhs(b, d)
        return problem

    @cached_property
    def kernel_basis(self):
        """Orthonormal basis of Ker C (``solvers.kernel_basis``), a copy
        that holds none of the QR's N x N factor; read-only.  Dense:
        ``SparseOperator`` problems only."""
        return _read_only(kernel_basis(self.constraint.vh).copy(order="K"))

    @cached_property
    def schur(self):
        """Dense S = C A^-1 C.T, one A-solve of the block C.T; read-only.
        Dense: ``SparseOperator`` problems only."""
        c = self.C.csr
        return _read_only(c @ self.a_solve(c.T @ np.eye(self.n_constraints)))

    @property
    def n_primal(self):
        return self.A.shape[0]

    @property
    def n_constraints(self):
        return self.C.shape[0]


def _read_only(array):
    array.flags.writeable = False
    return array


@dataclass(frozen=True)
class SaddleSolution:
    """Primal point, multiplier, and both residual norms from one solve.

    ``residual_stationarity`` is ||A x - b - C.T lam|| and
    ``residual_feasibility`` is ||C x - d||.  ``inner_report`` carries the
    underlying linear-solver diagnostics (iteration counts for reports).
    """

    x: np.ndarray
    multiplier: np.ndarray
    residual_stationarity: float
    residual_feasibility: float
    method_tag: str
    inner_report: SolverReport | None = None


@dataclass(frozen=True)
class OptimalityReport:
    projected_gradient_norm: float
    feasibility_norm: float
    is_minimizer: bool


@dataclass(frozen=True)
class InfSupEstimate:
    """Smallest eigenvalue of an inf-sup pencil with the multiplier-space
    vector attaining it; the inf-sup constant is ``beta``."""

    eigenvalue: float
    attaining_q: np.ndarray

    @property
    def beta(self):
        """sqrt(eigenvalue), with a rounding-negative eigenvalue read as 0."""
        return float(np.sqrt(max(self.eigenvalue, 0.0)))


def gradient(problem, x):
    """Return A x - b."""
    x = as_vector(x, length=problem.n_primal, name="x")
    return problem.A.apply(x) - problem.b


def objective(problem, x):
    """Return (1/2) x.T A x - b.T x."""
    x = as_vector(x, length=problem.n_primal, name="x")
    return 0.5 * float(x @ problem.A.apply(x)) - float(problem.b @ x)


def residual_scale(problem, x):
    """Normalization ||A||_F ||x|| + ||b|| for residual contracts."""
    A, b = problem.A, problem.b
    return A.frobenius_norm() * np.linalg.norm(x) + np.linalg.norm(b)


def assemble_kkt(problem):
    """The (N+M) x (N+M) symmetric block operator [[A, C.T], [C, 0]].

    The multiplier of this symmetric system is the negative of the reported
    one: solutions carry lam = -lam_sym so that A x - b = C.T lam holds with
    the stationarity sign convention.  With no constraints the operator is A
    itself.  The CSR arrays are placed straight from those of A, C.T and C,
    with int32 indices where they fit.
    """
    if problem.n_constraints == 0:
        return problem.A
    a, c = problem.A.csr, problem.C.csr
    ct = c.T.tocsr()
    size, nnz = problem.n_primal + problem.n_constraints, a.nnz + 2 * c.nnz
    index = _sp.get_index_dtype(maxval=max(size, nnz))
    # the rows of the top block are A's rows followed by C.T's, so A's entry
    # k in row r lands at k + ct.indptr[r] and C.T's at k + a.indptr[r + 1];
    # C's rows follow unchanged
    top = np.add(a.indptr, ct.indptr, dtype=index)
    indptr = np.concatenate([top, top[-1] + c.indptr[1:]], dtype=index)
    indices = np.empty(nnz, dtype=index)
    data = np.empty(nnz)
    for block, offsets, shift in ((a, ct.indptr[:-1], 0),
                                  (ct, a.indptr[1:], problem.n_primal)):
        at = np.repeat(offsets.astype(index), np.diff(block.indptr))
        at += np.arange(block.nnz, dtype=index)
        indices[at] = block.indices + shift
        data[at] = block.data
    indices[top[-1]:] = c.indices
    data[top[-1]:] = c.data
    return SparseOperator(_sp.csr_array((data, indices, indptr),
                                        shape=(size, size)))


def checked_solution(problem, x, multiplier, method_tag, tol,
                     inner_report=None):
    """Assemble a SaddleSolution for  A x - b = C.T lam,  C x = d  and
    enforce the residual contract: both residual norms at most
    ``tol * residual_scale``, else ConvergenceError (a NaN fails it).

    Reads A only through ``apply`` and ``frobenius_norm`` and C only through
    ``apply`` and ``apply_transpose``.  Those validate their input, so a
    non-finite multiplier is not passed on: its stationarity is NaN."""
    A, C, b = problem.A, problem.C, problem.b
    lam = np.asarray(multiplier, dtype=float)
    stat = (np.linalg.norm(A.apply(x) - b - C.apply_transpose(lam))
            if np.isfinite(lam).all() else np.nan)
    feas = np.linalg.norm(C.apply(x) - problem.d)
    bound = tol * residual_scale(problem, x)
    if not (stat <= bound and feas <= bound):
        raise ConvergenceError(
            f"{method_tag} solve violated the residual contract: "
            f"stationarity {stat:.3e}, feasibility {feas:.3e}, bound {bound:.3e}")
    return SaddleSolution(x, multiplier, float(stat), float(feas),
                          method_tag, inner_report)


#: A is proven positive definite (by QpProblem), so Z.T A Z fails Cholesky
#: only where rounding makes this hypothesis fail
_NOT_DEFINITE_ON_KERNEL = "A is not positive definite on Ker C"


def solve_kkt_direct(problem, tol=DEFAULT_TOL):
    """Solve the saddle system by one symmetric factorization of the
    assembled KKT matrix (``SparseOperator`` problems only)."""
    n, m = problem.n_primal, problem.n_constraints
    rhs = np.concatenate([problem.b, problem.d])
    sol, report = symmetric_indefinite_solve(assemble_kkt(problem), rhs)
    x = sol[:n]
    multiplier = -sol[n:n + m]
    return checked_solution(problem, x, multiplier, "direct", tol, report)


def solve_nullspace(problem, tol=DEFAULT_TOL):
    """Reduce to the constraint kernel, minimize there, then recover lam.

    A feasible point x0 (minimum norm) plus an orthonormal kernel basis Z
    turn the problem into the SPD system (Z.T A Z) y = Z.T (b - A x0); lam is
    fitted to the gradient there and certified once, by ``checked_solution``.
    Dense: ``SparseOperator`` problems only.
    """
    z = problem.kernel_basis
    x0 = problem.constraint.min_norm_point(problem.d)
    reduced = z.T @ (problem.A.csr @ z)
    rhs = z.T @ (problem.b - problem.A.apply(x0))
    try:
        y = sla.cho_solve(sla.cho_factor(reduced), rhs)
    except np.linalg.LinAlgError as exc:
        raise SingularSystemError(
            f"reduced system singular: {_NOT_DEFINITE_ON_KERNEL}") from exc
    x = x0 + z @ y
    multiplier = problem.constraint.least_squares_multiplier(
        gradient(problem, x))
    return checked_solution(problem, x, multiplier, "nullspace", tol)


def schur_complement(C, a_solve, kernel):
    """The Schur complement C A^-1 C.T as an operator, given the exact
    A-solve ``a_solve``.

    ``kernel``, a known null vector of C.T or None, is lifted off zero
    (``lift_null_vector``), so the operator is then positive definite: the
    one singular direction of a rank-deficient C cannot meet CG or the
    bottom of an eigen-solve.  C is read only through ``apply`` and
    ``apply_transpose``.
    """
    def apply(lam):
        return C.apply(a_solve(C.apply_transpose(lam)))

    if kernel is not None:
        apply = lift_null_vector(apply, kernel)
    return apply


def solve_schur(problem, tol=DEFAULT_TOL):
    """Eliminate x from  A x - b = C.T lam,  C x = d  and solve for lam by CG.

    With the exact A-solve ``problem.a_solve``, CG on  (C A^-1 C.T) lam =
    d - C A^-1 b  applies the Schur complement exactly, and
    x = A^-1 (b + C.T lam).  A kernel of C.T (``constraint.kernel``) needs
    no border: a consistent right-hand side keeps CG off it in exact
    arithmetic, and it is lifted off zero (``schur_complement``), so rounding
    that drifts onto it cannot end CG on a zero-curvature direction; the
    multiplier returned has its component along it taken off (for the
    constant kernel, lam - mean(lam)).  A tol below attainable accuracy ends
    CG on stagnation (ConvergenceError, raised by ``conjugate_gradient``).
    The report is the Schur CG's.
    """
    C, a_solve, k = problem.C, problem.a_solve, problem.constraint.kernel
    lam, report = conjugate_gradient(
        schur_complement(C, a_solve, k),
        problem.d - C.apply(a_solve(problem.b)), tol=tol)
    x = a_solve(problem.b + C.apply_transpose(lam))
    if k is not None:
        lam = lam - k * (np.mean(k * lam) / np.mean(k * k))
    return checked_solution(problem, x, lam, "schur", tol, report)


def solve_projected_cg(problem, tol=DEFAULT_TOL):
    """Minimize J over C x = d by preconditioned projected CG from the
    minimum-norm feasible point x0, then fit lam to the gradient.

    Ker C is never parametrized: P = ``constraint.kernel_component`` keeps
    each step in it.  CG runs on the lifted operator P A P + (I - P), which
    is SPD and equals P A P on Ker C, where the right-hand side P (b - A x0)
    lies, so rounding that drifts out of Ker C cannot meet the singular part
    of P A P.  The preconditioner is the constraint preconditioner
    P A^-1 P + (I - P) (Keller, Gould & Wathen, 2000; Gould, Hribar &
    Nocedal, 2001), lifted the same way.  It is not spectrally equivalent to
    (P A P)^-1 on Ker C: on the Stokes problem the count grows with n, but
    slowly (7, 11, 17 and 25 at n = 16, 32, 64 and 128, tol 1e-12, against
    about 2n without it).  The report is the CG's.
    """
    factor, a_solve = problem.constraint, problem.a_solve
    project, x0 = factor.kernel_component, factor.min_norm_point(problem.d)

    def lifted(op):                  # P op P + (I - P)
        def apply(v):
            pv = project(v)
            return project(op(pv)) + (v - pv)
        return apply

    u, report = conjugate_gradient(
        lifted(problem.A.apply), project(problem.b - problem.A.apply(x0)),
        tol=tol, precondition=lifted(a_solve))
    x = x0 + project(u)              # scrub rounding drift out of Ker C
    lam = factor.least_squares_multiplier(gradient(problem, x))
    return checked_solution(problem, x, lam, "projected_cg", tol, report)


def check_optimality(problem, x, tol=DEFAULT_TOL):
    """Constrained-minimizer test: vanishing kernel-projected gradient plus
    feasibility.

    Both norms are compared against ``tol * residual_scale(problem, x)``,
    the scale of the residual contracts.  The projected gradient is
    ``constraint.kernel_component(g)``, with g = A x - b; without
    constraints the test reduces to ||A x - b|| <= that bound.
    """
    x = as_vector(x, length=problem.n_primal, name="x")
    g = gradient(problem, x)
    feas = float(np.linalg.norm(problem.C.apply(x) - problem.d))
    pg = float(np.linalg.norm(problem.constraint.kernel_component(g)))
    bound = tol * residual_scale(problem, x)
    return OptimalityReport(pg, feas, pg <= bound and feas <= bound)


def recover_multiplier(problem, x, tol=DEFAULT_TOL):
    """Least-squares solution lam of C.T lam = A x - b = g.

    x must pass check_optimality at ``tol``, else MultiplierConsistencyError
    is raised: x is not a constrained minimizer.  That test also bounds the
    residual of the fit, since C.T lam - g is the negated projected gradient
    it checks.
    """
    x = as_vector(x, length=problem.n_primal, name="x")
    report = check_optimality(problem, x, tol)
    if not report.is_minimizer:
        raise MultiplierConsistencyError(
            f"point is not a constrained minimizer at tol {tol:g}: projected "
            f"gradient {report.projected_gradient_norm:.3e}, "
            f"feasibility {report.feasibility_norm:.3e}")
    g = gradient(problem, x)
    return problem.constraint.least_squares_multiplier(g)


def estimate_infsup(problem, Mq, form="dual_form"):
    """Estimate the inf-sup constant of the constraint block C of ``problem``
    (a QpProblem) with respect to the A-norm and the norm of the
    SparseOperator ``Mq``.

    dual_form:   beta = sqrt(smallest eigenvalue of (C A^-1 C.T, Mq)),
                 the discretization of  inf_q sup_v (q.T C v)/(|v|_A |q|_Mq).
    primal_form: the same constant reached from the other side, as the
                 smallest value of the Mq^-1-norm of C v over v in the
                 A-orthogonal complement of Ker C with |v|_A = 1; assembled
                 as the pencil (S Mq^-1 S, S) with S = C A^-1 C.T.

    Both forms agree up to eigensolver tolerance (the classical equivalence
    of the two variational characterizations), and both read the one dense S,
    ``problem.schur``.  The attaining vector is returned Mq-normalized in
    multiplier space for either form.

    beta is defined only when A is a norm.  Building ``problem`` proved A
    positive definite and C of full row rank, so S is positive definite.
    Dense: ``SparseOperator`` problems only.
    """
    if form not in ("dual_form", "primal_form"):
        raise ValueError(f"unknown form {form!r}")
    if problem.n_constraints == 0:
        raise ValueError("inf-sup constant of an empty constraint set")
    s = problem.schur
    if form == "dual_form":
        lam, q = smallest_generalized_eigenpair(s, Mq)
    else:
        mq_dense = Mq.toarray()
        y = sla.cho_solve(sla.cho_factor(mq_dense), s)
        s1 = s @ y                        # S Mq^-1 S
        lam, q = smallest_generalized_eigenpair(s1, s)
        q = q / np.sqrt(q @ (mq_dense @ q))
    return InfSupEstimate(float(lam), q)


# -- problem-directory interface ------------------------------------------


def load_problem(directory):
    """Load (A.mtx, C.mtx, b.txt, optional d.txt) from a directory.

    A may be stored under the ``general`` or the ``symmetric`` qualifier;
    either way it must measure exactly symmetric.
    """
    directory = Path(directory)
    for required in ("A.mtx", "C.mtx", "b.txt"):
        if not (directory / required).is_file():
            raise FileNotFoundError(f"missing {required} in {directory}")
    a = mmio.read_matrix(directory / "A.mtx")
    if not a.symmetric:
        raise ValueError("A.mtx is not symmetric")
    c = mmio.read_matrix(directory / "C.mtx")
    b = mmio.read_vector(directory / "b.txt")
    d_path = directory / "d.txt"
    d = mmio.read_vector(d_path) if d_path.is_file() else np.zeros(c.nrows)
    return QpProblem(a, b, c, d)


def save_solution(directory, solution, beta=None):
    """Write x.txt, lambda.txt, and report.json for a SaddleSolution."""
    directory = Path(directory)
    mmio.write_vector(directory / "x.txt", solution.x)
    mmio.write_vector(directory / "lambda.txt", solution.multiplier)
    report = {
        "method": solution.method_tag,
        "iterations": int(solution.inner_report.iterations
                          if solution.inner_report else 1),
        "residual_stationarity": float(solution.residual_stationarity),
        "residual_feasibility": float(solution.residual_feasibility),
    }
    if beta is not None:
        report["infsup_beta"] = float(beta)
    mmio.write_json(directory / "report.json", report)
    return report
