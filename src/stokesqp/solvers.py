"""Deterministic linear-algebra kernels.

Iterative and direct symmetric solvers, orthonormal null-space bases, and a
smallest-generalized-eigenpair routine.  All routines are pure functions of
their inputs; given the same operands on the same platform they produce
bitwise-identical results.
"""

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
from scipy.sparse import csc_array
from scipy.sparse import linalg as spla

from .sparse import SparseOperator, as_vector

#: relative smallest-singular-value threshold below which a constraint
#: operator is treated as rank deficient (double-precision backward-error scale)
RANK_TOL = 1e-10

DEFAULT_TOL = 1e-10


class ConvergenceError(RuntimeError):
    """A solver failed to meet its tolerance: an iterative method ran out of
    iterations, or a computed eigenpair failed its residual check."""


class SingularSystemError(RuntimeError):
    """A direct solve hit a (numerically) singular system."""


class RankDeficiencyError(ValueError):
    """A constraint operator does not have full row rank, so the associated
    multiplier would not be unique."""


@dataclass(frozen=True)
class SolverReport:
    iterations: int
    residual_norm: float
    converged: bool
    breakdown_reason: str | None = None


def _matvec(op):
    """Return a matvec callable for a SparseOperator, ndarray, or callable."""
    if isinstance(op, SparseOperator):
        return op.apply
    if isinstance(op, np.ndarray):
        return lambda v: op @ v
    if callable(op):
        return op
    raise TypeError(f"cannot interpret {type(op)!r} as a linear operator")


def conjugate_gradient(op, b, tol=DEFAULT_TOL, max_iter=None):
    """Solve ``op @ x = b`` for symmetric positive definite ``op`` by CG.

    Parameters
    ----------
    op : SparseOperator, ndarray, or callable
        SPD operator (callables receive and return 1-D arrays).
    b : array_like
        Right-hand side.
    tol : float
        Relative residual target: convergence means
        ``||op x - b|| <= tol * ||b||``, verified against the true residual.
    max_iter : int, optional
        Defaults to ``10 * len(b)``.

    Returns
    -------
    (x, report) : (ndarray, SolverReport)
        ``report.converged`` is False on iteration exhaustion or when a
        negative-curvature direction reveals an indefinite operator.
    """
    b = as_vector(b, name="b")
    if tol <= 0:
        raise ValueError("tol must be positive")
    n = b.shape[0]
    apply_op = _matvec(op)
    if max_iter is None:
        max_iter = 10 * max(n, 1)

    x = np.zeros(n)
    norm_b = np.linalg.norm(b)
    if norm_b == 0.0:
        return x, SolverReport(0, 0.0, True)

    r = b.copy()
    p = r.copy()
    rs = float(r @ r)
    iterations = 0
    while iterations < max_iter:
        ap = apply_op(p)
        p_ap = float(p @ ap)
        if p_ap <= 0.0:
            return x, SolverReport(iterations, np.linalg.norm(apply_op(x) - b),
                                   False, breakdown_reason="negative_curvature")
        alpha = rs / p_ap
        x = x + alpha * p
        r = r - alpha * ap
        iterations += 1
        rs_new = float(r @ r)
        if np.sqrt(rs_new) <= tol * norm_b:
            # recurrence residual can drift from the true one; confirm
            true_res = np.linalg.norm(apply_op(x) - b)
            if true_res <= tol * norm_b:
                return x, SolverReport(iterations, float(true_res), True)
            r = b - apply_op(x)
            rs_new = float(r @ r)
        beta = rs_new / rs
        p = r + beta * p
        rs = rs_new
    return x, SolverReport(max_iter, float(np.linalg.norm(apply_op(x) - b)),
                           False, breakdown_reason="max_iter")


def _describe_singular_direction(op):
    """Best-effort description of the near-null eigendirection of a symmetric
    operator, used in singular-system diagnostics."""
    n = op.nrows
    if n > 2000:
        return "system too large for dense diagnosis"
    w, v = np.linalg.eigh(op.toarray())
    k = int(np.argmin(np.abs(w)))
    vec = v[:, k]
    worst = np.argsort(-np.abs(vec))[: min(3, n)]
    comps = ", ".join(f"x[{i}]={vec[i]:+.3f}" for i in worst)
    return (f"eigenvalue {w[k]:.3e} with eigendirection dominated by {comps}")


def factorized(op):
    """Sparse LU of ``op``; returns a solve callable that accepts a vector or
    a 2-D block of right-hand sides.

    An exactly singular operator raises SingularSystemError with a
    description of the deficient eigendirection.
    """
    if not isinstance(op, SparseOperator):
        raise TypeError("op must be a SparseOperator")
    try:
        return spla.splu(csc_array(op.csr)).solve
    except RuntimeError as exc:  # SuperLU reports exact singularity this way
        raise SingularSystemError(
            f"singular system: {exc}; {_describe_singular_direction(op)}"
        ) from exc


def symmetric_indefinite_solve(op, b):
    """Solve a symmetric (possibly indefinite) system by pivoted factorization.

    The contract is a backward-error bound:
    ``||op x - b|| <= 1e-10 * (||op||_F ||x|| + ||b||)``.
    One step of iterative refinement is applied if the factorization alone
    falls short.  A singular system raises SingularSystemError with a
    description of the deficient eigendirection.
    """
    if isinstance(op, SparseOperator) and not op.symmetric:
        raise ValueError("symmetric_indefinite_solve requires a symmetric operator")
    solve = factorized(op)
    b = as_vector(b, length=op.nrows, name="b")

    x = solve(b)
    if not np.all(np.isfinite(x)):
        raise SingularSystemError(
            "non-finite solve result; " + _describe_singular_direction(op))

    op_norm = op.frobenius_norm()
    bound = 1e-10 * (op_norm * np.linalg.norm(x) + np.linalg.norm(b))
    residual = np.linalg.norm(op.apply(x) - b)
    iterations = 1
    if residual > bound:
        x = x + solve(b - op.apply(x))
        residual = np.linalg.norm(op.apply(x) - b)
        iterations = 2
        bound = 1e-10 * (op_norm * np.linalg.norm(x) + np.linalg.norm(b))
        if residual > bound:
            raise SingularSystemError(
                f"backward error {residual:.3e} exceeds bound {bound:.3e}; "
                + _describe_singular_direction(op))
    return x, SolverReport(iterations, float(residual), True)


def assert_full_row_rank(C, rank_tol=RANK_TOL):
    """Raise RankDeficiencyError unless ``C`` has full numerical row rank.

    The threshold is on singular values: smallest >= rank_tol * largest.
    Returns the dense form of ``C`` for reuse by callers.
    """
    m, n = C.shape
    dense = C.toarray() if isinstance(C, SparseOperator) else np.asarray(C, dtype=float)
    if m == 0:
        return dense
    sv = sla.svdvals(dense)
    sv_max = sv[0] if sv.size else 0.0
    if m > n or sv_max == 0.0 or sv[-1] < rank_tol * sv_max:
        smallest = sv[-1] if sv.size else 0.0
        raise RankDeficiencyError(
            f"constraint operator is rank deficient: smallest singular value "
            f"{smallest:.3e} vs largest {sv_max:.3e} (tol {rank_tol:g})")
    return dense


def orthonormal_nullspace_basis(C, rank_tol=RANK_TOL):
    """Orthonormal basis of Ker C as columns of an (N, N - M) array.

    ``C`` must have full row rank: if the smallest singular value falls below
    ``rank_tol`` times the largest, RankDeficiencyError is raised (multipliers
    against such constraints are not unique).  Computed from a column-pivoted
    QR factorization of ``C.T``; the basis is deterministic for fixed input.
    """
    m, n = C.shape
    if m == 0:
        return np.eye(n)
    dense = assert_full_row_rank(C, rank_tol)
    q, _r, _piv = sla.qr(dense.T, mode="full", pivoting=True)
    return q[:, m:]


def _to_dense_symmetric(op):
    arr = op.toarray() if isinstance(op, SparseOperator) else np.asarray(op)
    return 0.5 * (arr + arr.T)


def smallest_generalized_eigenpair(S, Mop, subspace_projector=None,
                                   tol=1e-10):
    """Smallest eigenpair of the symmetric-definite pencil ``S q = lam Mop q``
    by one dense LAPACK solve (``scipy.linalg.eigh``, bottom pair only).

    Parameters
    ----------
    S : SparseOperator or ndarray
        Symmetric.
    Mop : SparseOperator or ndarray
        Symmetric positive definite (ValueError otherwise); defines the
        normalization ``q @ Mop @ q == 1`` of the returned eigenvector.
    subspace_projector : callable, optional
        Projector P onto the admissible subspace (e.g. deflation of a known
        kernel direction), applied to one vector at a time.  The pencil is
        restricted to range(P) by lifting the complement:
        ``S_work = P.T S P + sigma (I - P).T Mop (I - P)``.  sigma is twice
        the largest Rayleigh quotient of a column of P, so the complement's
        eigenvalue sigma lies above the bottom of the restricted pencil.
        Precondition: P is Mop-orthogonal (``Mop P == P.T Mop``); otherwise
        the complement does not decouple and the restriction is not exact.
    tol : float
        Residual check after the solve:
        ``||S_work q - lam Mop q|| <= tol * ||q||``, else ConvergenceError.

    Returns
    -------
    (lam, q) : (float, ndarray)
    """
    s_work = _to_dense_symmetric(S)
    m_d = _to_dense_symmetric(Mop)
    if subspace_projector is not None:
        p_mat = np.stack([subspace_projector(c)
                          for c in np.eye(len(s_work))], axis=1)
        s_p = p_mat.T @ s_work @ p_mat
        mp = m_d @ p_mat
        m_p = np.einsum("ij,ij->j", p_mat, mp)    # diag of P.T Mop P
        kept = m_p > 0.0
        sigma = 2.0 * np.max(np.diag(s_p)[kept] / m_p[kept], initial=0.0)
        # Mop (I - P) equals (I - P).T Mop (I - P) for Mop-orthogonal P
        s_work = s_p + (sigma or 1.0) * (m_d - mp)
        s_work = 0.5 * (s_work + s_work.T)

    try:
        evals, evecs = sla.eigh(s_work, m_d, subset_by_index=[0, 0])
    except np.linalg.LinAlgError as exc:
        raise ValueError(f"Mop must be positive definite: {exc}") from exc
    lam, q = float(evals[0]), evecs[:, 0]
    residual = np.linalg.norm(s_work @ q - lam * (m_d @ q))
    if not residual <= tol * np.linalg.norm(q):
        raise ConvergenceError(
            f"eigenpair residual {residual:.3e} exceeds {tol:g} * ||q||")
    return lam, q
