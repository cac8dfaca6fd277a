"""Equality-constrained quadratic programming with multiplier recovery.

The problem is  min (1/2) x.T A x - b.T x  subject to  C x = d,  with A
symmetric positive definite and C of full row rank.  Three solve routes are
provided (direct saddle factorization, null-space reduction, and CG on the
Schur complement, with the caller's exact A-solve: here the problem's own,
on the Stokes side fast diagonalization); all return the primal point
together with the unique multiplier vector satisfying  A x - b = C.T lam,
checked by one residual contract (``checked_solution``).  A and C are each
factored once, by the test of their hypothesis: A's L D L.T factor is the
A-solve, and C's SVD splits the primal space into Ker C and range(C.T), and
gives the minimum-norm feasible point, the multiplier, the optimality
certificate and the kernel basis.  A failed solve raises where it is
decided: CG's non-convergence in ``conjugate_gradient``, a broken residual
contract in ``checked_solution``.  The inf-sup constant governing multiplier
uniqueness can be estimated for a QpProblem, whose tests it trusts, from
either of its two equivalent variational forms.  Both hypotheses on A are
decided exactly, once, when a QpProblem is built: symmetry by
``SparseOperator``'s measurement, definiteness by ``assert_positive_definite``.

The three kernels the Stokes routes share (``checked_solution``,
``schur_complement`` and ``schur_complement_solve``) read their operators
only through a protocol: C through ``apply(x)`` and ``apply_transpose(y)``,
A through ``apply(x)`` and ``frobenius_norm()``, each action on 1-D vectors.
A ``SparseOperator`` meets it, and so do the stencil operators of the MAC
grid, which are never assembled.  ``QpProblem`` and the routes built on it
hold ``SparseOperator`` and read its CSR matrix.
"""

import copy
from dataclasses import dataclass, field
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


@dataclass(frozen=True)
class QpProblem:
    """The quadruple (A, b, C, d).

    A : SparseOperator, N x N, measured symmetric, proven positive definite
    b : ndarray, length N
    C : SparseOperator, M x N with M < N and full row rank
    d : ndarray, length M (d = 0 is the homogeneous-subspace case)
    svd : (u, s, vh), the rank test's economy SVD of C (computed, not given)
    a_solve : solve of the definiteness test's L D L.T factor of A (computed)

    ``with_rhs`` gives the same (A, C) with new data (b, d), sharing both
    factors instead of computing them again.
    """

    A: SparseOperator
    b: np.ndarray
    C: SparseOperator
    d: np.ndarray
    svd: tuple = field(init=False, repr=False, compare=False)
    a_solve: object = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        A, C = self.A, self.C
        if not isinstance(A, SparseOperator) or not isinstance(C, SparseOperator):
            raise TypeError("A and C must be SparseOperator instances")
        if not A.symmetric:
            raise ValueError("A must be symmetric")
        n, m = A.nrows, C.nrows
        if C.ncols != n:
            raise ValueError(f"C has {C.ncols} columns, expected {n}")
        if m >= n:
            raise ValueError(f"need M < N, got M={m}, N={n}")
        self._set_rhs(self.b, self.d)
        object.__setattr__(self, "a_solve", assert_positive_definite(A))
        object.__setattr__(self, "svd", assert_full_row_rank(C))

    def _set_rhs(self, b, d):
        object.__setattr__(self, "b", as_vector(b, length=self.n_primal,
                                                 name="b"))
        object.__setattr__(self, "d", as_vector(d, length=self.n_constraints,
                                                 name="d"))

    def with_rhs(self, b, d):
        """This problem with (b, d) in place of its own, validated as at
        construction; A, C, ``svd`` and ``a_solve`` are shared, so neither
        matrix is factored again."""
        problem = copy.copy(self)
        problem._set_rhs(b, d)
        return problem

    @property
    def n_primal(self):
        return self.A.nrows

    @property
    def n_constraints(self):
        return self.C.nrows


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


def _scale(A, b, x):
    return A.frobenius_norm() * np.linalg.norm(x) + np.linalg.norm(b)


def residual_scale(problem, x):
    """Normalization ||A||_F ||x|| + ||b|| for residual contracts."""
    return _scale(problem.A, problem.b, x)


def assemble_kkt(problem):
    """The (N+M) x (N+M) symmetric block operator [[A, C.T], [C, 0]].

    The multiplier of this symmetric system is the negative of the reported
    one: solutions carry lam = -lam_sym so that A x - b = C.T lam holds with
    the stationarity sign convention.  With no constraints the operator is A
    itself.
    """
    if problem.n_constraints == 0:
        return problem.A
    c = problem.C.csr
    block = _sp.bmat([[problem.A.csr, c.T], [c, None]], format="csr")
    return SparseOperator(block)


def checked_solution(A, C, b, d, x, multiplier, method_tag, tol,
                     inner_report=None):
    """Assemble a SaddleSolution for  A x - b = C.T lam,  C x = d  and
    enforce the residual contract: both residual norms at most
    ``tol * residual_scale``, else ConvergenceError (a NaN fails it).

    Reads A only through ``apply`` and ``frobenius_norm`` and C only through
    ``apply`` and ``apply_transpose``.  Those validate their input, so a
    non-finite multiplier is not passed on: its stationarity is NaN."""
    lam = np.asarray(multiplier, dtype=float)
    stat = (np.linalg.norm(A.apply(x) - b - C.apply_transpose(lam))
            if np.isfinite(lam).all() else np.nan)
    feas = np.linalg.norm(C.apply(x) - d)
    bound = tol * _scale(A, b, x)
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
    """Solve the saddle system by one symmetric factorization."""
    n, m = problem.n_primal, problem.n_constraints
    rhs = np.concatenate([problem.b, problem.d])
    sol, report = symmetric_indefinite_solve(assemble_kkt(problem), rhs)
    x = sol[:n]
    multiplier = -sol[n:n + m]
    return checked_solution(problem.A, problem.C, problem.b, problem.d, x,
                            multiplier, "direct", tol, report)


def _min_norm_particular(problem):
    """Minimum-norm solution vh.T diag(1/s) u.T d of C x = d."""
    u, s, vh = problem.svd
    return vh.T @ ((u.T @ problem.d) / s)


def solve_nullspace(problem, tol=DEFAULT_TOL):
    """Reduce to the constraint kernel, minimize there, then recover lam.

    A feasible point x0 (minimum norm) plus an orthonormal kernel basis Z
    turn the problem into the SPD system (Z.T A Z) y = Z.T (b - A x0); lam is
    fitted to the gradient there and certified once, by ``checked_solution``.
    """
    z = kernel_basis(problem.svd[2])
    x0 = _min_norm_particular(problem)
    reduced = z.T @ (problem.A.csr @ z)
    rhs = z.T @ (problem.b - problem.A.apply(x0))
    try:
        y = sla.cho_solve(sla.cho_factor(reduced), rhs)
    except np.linalg.LinAlgError as exc:
        raise SingularSystemError(
            f"reduced system singular: {_NOT_DEFINITE_ON_KERNEL}") from exc
    x = x0 + z @ y
    multiplier = _least_squares_multiplier(problem, gradient(problem, x))
    return checked_solution(problem.A, problem.C, problem.b, problem.d, x,
                            multiplier, "nullspace", tol)


def schur_complement(C, a_solve, kernel=None):
    """The Schur complement C A^-1 C.T as an operator, given the exact
    A-solve ``a_solve``.

    ``kernel``, a known null vector of C.T, is lifted off zero
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


def schur_complement_solve(C, a_solve, b, d, tol, kernel=None):
    """Eliminate x from  A x - b = C.T lam,  C x = d  and solve for lam by CG.

    With the exact A-solve ``a_solve``, CG on  (C A^-1 C.T) lam =
    d - C A^-1 b  applies the Schur complement exactly, and
    x = A^-1 (b + C.T lam).  C need not have full row rank: a consistent
    right-hand side keeps CG in range(C) in exact arithmetic.  A known null
    vector of C.T passed as ``kernel`` is lifted (``schur_complement``), so
    rounding that leaves range(C) cannot end CG on a zero-curvature
    direction, and a tol below attainable accuracy ends CG on stagnation
    (ConvergenceError, raised by ``conjugate_gradient``).  Returns
    (x, lam, report) with ``report`` from the CG on the Schur complement.
    """
    lam, report = conjugate_gradient(schur_complement(C, a_solve, kernel),
                                     d - C.apply(a_solve(b)), tol=tol)
    return a_solve(b + C.apply_transpose(lam)), lam, report


def solve_schur(problem, tol=DEFAULT_TOL):
    """Eliminate x and solve (C A^-1 C.T) lam = d - C A^-1 b by CG, with the
    problem's A-solve (``schur_complement_solve``)."""
    A, C, b, d = problem.A, problem.C, problem.b, problem.d
    x, lam, report = schur_complement_solve(C, problem.a_solve, b, d, tol)
    return checked_solution(A, C, b, d, x, lam, "schur", tol, report)


def check_optimality(problem, x, tol=DEFAULT_TOL):
    """Constrained-minimizer test: vanishing kernel-projected gradient plus
    feasibility.

    Both norms are compared against ``tol * residual_scale(problem, x)``,
    the scale of the residual contracts.  The projected gradient is
    g - vh.T (vh g) by the SVD of C (``problem.svd``), with g = A x - b;
    without constraints the test reduces to
    ||A x - b|| <= that bound.
    """
    x = as_vector(x, length=problem.n_primal, name="x")
    g = gradient(problem, x)
    vh = problem.svd[2]
    feas = float(np.linalg.norm(problem.C.csr @ x - problem.d))
    pg = float(np.linalg.norm(g - vh.T @ (vh @ g)))
    bound = tol * residual_scale(problem, x)
    return OptimalityReport(pg, feas, pg <= bound and feas <= bound)


def recover_multiplier(problem, x, tol=DEFAULT_TOL):
    """Least-squares solution lam = u diag(1/s) vh g of C.T lam = A x - b = g.

    x must pass check_optimality at ``tol``, else MultiplierConsistencyError
    is raised: x is not a constrained minimizer.  That test also bounds the
    residual of the fit, since C.T lam - g = vh.T (vh g) - g is the negated
    projected gradient it checks.
    """
    x = as_vector(x, length=problem.n_primal, name="x")
    report = check_optimality(problem, x, tol)
    if not report.is_minimizer:
        raise MultiplierConsistencyError(
            f"point is not a constrained minimizer at tol {tol:g}: projected "
            f"gradient {report.projected_gradient_norm:.3e}, "
            f"feasibility {report.feasibility_norm:.3e}")
    return _least_squares_multiplier(problem, gradient(problem, x))


def _least_squares_multiplier(problem, g):
    """lam = u diag(1/s) vh g, the least-squares solution of C.T lam = g."""
    u, s, vh = problem.svd
    return u @ ((vh @ g) / s)


def estimate_infsup(problem, Mq, form="dual_form"):
    """Estimate the inf-sup constant of the constraint block C of ``problem``
    (a QpProblem) with respect to the A- and Mq-norms.

    dual_form:   beta = sqrt(smallest eigenvalue of (C A^-1 C.T, Mq)),
                 the discretization of  inf_q sup_v (q.T C v)/(|v|_A |q|_Mq).
    primal_form: the same constant reached from the other side, as the
                 smallest value of the Mq^-1-norm of C v over v in the
                 A-orthogonal complement of Ker C with |v|_A = 1; assembled
                 as the pencil (S Mq^-1 S, S) with S = C A^-1 C.T.

    Both forms agree up to eigensolver tolerance (the classical equivalence
    of the two variational characterizations).  The attaining vector is
    returned Mq-normalized in multiplier space for either form.

    beta is defined only when A is a norm.  Building ``problem`` proved A
    positive definite and C of full row rank, so S is positive definite.
    """
    if form not in ("dual_form", "primal_form"):
        raise ValueError(f"unknown form {form!r}")
    m = problem.n_constraints
    if m == 0:
        raise ValueError("inf-sup constant of an empty constraint set")
    # every column of S = C A^-1 C.T at once: the LU solve takes an (N, m)
    # block
    c = problem.C.csr
    s = c @ problem.a_solve(c.T @ np.eye(m))
    if form == "dual_form":
        lam, q = smallest_generalized_eigenpair(s, Mq)
    else:
        mq_dense = Mq.toarray() if isinstance(Mq, SparseOperator) else np.asarray(Mq)
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
