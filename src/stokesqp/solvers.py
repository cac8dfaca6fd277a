"""Deterministic linear-algebra kernels.

Iterative and direct symmetric solvers, a rank test returning an SVD and the
null-space basis that completes it, a rank-one lift of a known null vector,
and smallest-eigenpair routines (dense LAPACK, and matrix-free Lanczos with a
seeded start).  All routines are pure functions of their inputs; given the
same operands on the same platform they produce bitwise-identical results.
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

#: iterations without a new minimum of the CG residual (once it is below
#: ||b||) after which the iteration stops with breakdown_reason
#: "stagnation": the residual has hit the accuracy rounding allows, and
#: further steps only wander
STAGNATION_WINDOW = 100


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


def conjugate_gradient(apply_op, b, tol=DEFAULT_TOL, max_iter=None):
    """Solve ``S x = b`` for a symmetric positive definite S by CG.

    Parameters
    ----------
    apply_op : callable
        The action v -> S v on 1-D arrays.
    b : array_like
        Right-hand side.
    tol : float
        Relative residual target: convergence means
        ``||S x - b|| <= tol * ||b||``, verified against the true residual.
    max_iter : int, optional
        Defaults to ``10 * len(b)``.

    Returns
    -------
    (x, report) : (ndarray, SolverReport)
        ``report.converged`` is False on iteration exhaustion, when a
        negative-curvature direction reveals an indefinite operator, or when
        the recurrence residual has not reached a new minimum for
        ``STAGNATION_WINDOW`` iterations (tol below attainable accuracy),
        counted from the first iterate below ||b||: the CG residual is not
        monotone, and can stay above ||b|| longer than that and converge.
    """
    b = as_vector(b, name="b")
    if tol <= 0:
        raise ValueError("tol must be positive")
    n = b.shape[0]
    if max_iter is None:
        max_iter = 10 * max(n, 1)

    x = np.zeros(n)
    norm_b = np.linalg.norm(b)
    if norm_b == 0.0:
        return x, SolverReport(0, 0.0, True)

    r = b.copy()
    p = r.copy()
    rs = float(r @ r)
    best, best_iter = rs, 0
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
        if rs_new < best:
            best, best_iter = rs_new, iterations
        if np.sqrt(rs_new) <= tol * norm_b:
            # recurrence residual can drift from the true one; confirm
            true_res = np.linalg.norm(apply_op(x) - b)
            if true_res <= tol * norm_b:
                return x, SolverReport(iterations, float(true_res), True)
            r = b - apply_op(x)
            rs_new = float(r @ r)
        if best_iter and iterations - best_iter >= STAGNATION_WINDOW:
            return x, SolverReport(iterations, np.linalg.norm(apply_op(x) - b),
                                   False, breakdown_reason="stagnation")
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


def assert_full_row_rank(C):
    """Raise RankDeficiencyError unless ``C`` has full numerical row rank,
    else return the economy SVD ``(u, s, vh)`` of ``C``.

    The threshold is on singular values: smallest >= RANK_TOL * largest.
    The rows of vh span range(C.T), their complement Ker C (``kernel_basis``).
    """
    m, n = C.shape
    dense = C.toarray() if isinstance(C, SparseOperator) else np.asarray(C, dtype=float)
    u, sv, vh = sla.svd(dense, full_matrices=False)
    sv_max = sv[0] if sv.size else 0.0
    if m and (m > n or sv_max == 0.0 or sv[-1] < RANK_TOL * sv_max):
        smallest = sv[-1] if sv.size else 0.0
        raise RankDeficiencyError(
            f"constraint operator is rank deficient: smallest singular value "
            f"{smallest:.3e} vs largest {sv_max:.3e} (tol {RANK_TOL:g})")
    return u, sv, vh


def kernel_basis(vh):
    """Orthonormal basis (the N - M columns) of the complement of the M
    orthonormal rows of ``vh``: Ker C for vh from C's SVD, by a QR of vh.T."""
    q, _r = sla.qr(vh.T, mode="full")
    return q[:, vh.shape[0]:]


def orthonormal_nullspace_basis(C):
    """Orthonormal basis of Ker C as columns of an (N, N - M) array, the
    complement of vh's rows in the SVD of C (``kernel_basis``).

    ``C`` must have full row rank: if the smallest singular value falls below
    ``RANK_TOL`` times the largest, RankDeficiencyError is raised (multipliers
    against such constraints are not unique).
    """
    return kernel_basis(assert_full_row_rank(C)[2])


def _to_dense_symmetric(op):
    arr = op.toarray() if isinstance(op, SparseOperator) else np.asarray(op)
    return 0.5 * (arr + arr.T)


def smallest_generalized_eigenpair(S, Mop, tol=1e-10):
    """Smallest eigenpair of the symmetric-definite pencil ``S q = lam Mop q``
    by one dense LAPACK solve (``scipy.linalg.eigh``, bottom pair only).

    Both operands are symmetrized here, so callers pass them as computed.

    Parameters
    ----------
    S : SparseOperator or ndarray
        Symmetric.
    Mop : SparseOperator or ndarray
        Symmetric positive definite (ValueError otherwise); defines the
        normalization ``q @ Mop @ q == 1`` of the returned eigenvector.
    tol : float
        Residual check after the solve:
        ``||S q - lam Mop q|| <= tol * ||q||``, else ConvergenceError.

    Returns
    -------
    (lam, q) : (float, ndarray)
    """
    s_work = _to_dense_symmetric(S)
    m_d = _to_dense_symmetric(Mop)
    try:
        evals, evecs = sla.eigh(s_work, m_d, subset_by_index=[0, 0])
    except np.linalg.LinAlgError as exc:
        raise ValueError(f"Mop must be positive definite: {exc}") from exc
    lam, q = float(evals[0]), evecs[:, 0]
    _check_eigenpair(s_work @ q - lam * (m_d @ q), q, tol)
    return lam, q


def _check_eigenpair(residual_vector, q, tol):
    residual = np.linalg.norm(residual_vector)
    if not residual <= tol * np.linalg.norm(q):
        raise ConvergenceError(
            f"eigenpair residual {residual:.3e} exceeds {tol:g} * ||q||")


def lift_null_vector(apply, kernel):
    """Lift the known null vector ``kernel`` of a symmetric positive
    semidefinite operator off zero by a rank-one update.

    Returns x -> apply(x) + sigma k (k.T x) with k = kernel / ||kernel|| and
    sigma = 2 S_00 (one application of S = apply to e_0).  Only k moves, to sigma.
    e_0 - k_0 k is orthogonal to k with Rayleigh quotient S_00 / (1 - k_0^2),
    so the bottom of the spectrum on the complement of k is at most
    S_00 / (1 - k_0^2), and sigma lies above it whenever k_0^2 < 1/2 (for
    the constant vector of length N, k_0^2 = 1/N).  CG on the lifted
    operator cannot meet the singular direction; a bottom eigenpair of it is
    one of ``apply`` orthogonal to k.
    """
    k = as_vector(kernel, name="kernel")
    k = k / np.linalg.norm(k)
    e0 = np.zeros(k.shape[0])
    e0[0] = 1.0
    sigma = 2.0 * float(apply(e0)[0])

    def lifted(x):
        return apply(x) + (sigma * float(k @ x)) * k

    return lifted


def smallest_eigenpair_matrix_free(apply, mass_diagonal, tol=1e-10):
    """Smallest eigenpair of ``S q = lam D q`` with S a symmetric operator
    given only by its action and D = diag(``mass_diagonal``) > 0.

    Lanczos (ARPACK ``eigsh``, bottom algebraic pair) on the standard form
    D^-1/2 S D^-1/2, started from a Gaussian vector of a fixed seed, so equal
    input gives equal output (a structured start can be orthogonal to the
    bottom eigenvector of a symmetric grid problem and miss it).  Residual
    contract as in ``smallest_generalized_eigenpair``: ``||S q - lam D q|| <= tol * ||q||``
    with ``q @ D @ q == 1``; an ARPACK failure or a failed check raises
    ConvergenceError.

    Returns
    -------
    (lam, q) : (float, ndarray)
    """
    scale = 1.0 / np.sqrt(as_vector(mass_diagonal, name="mass_diagonal"))
    n = scale.shape[0]
    standard = spla.LinearOperator(
        (n, n), matvec=lambda y: scale * apply(scale * np.ravel(y)),
        dtype=float)
    v0 = np.random.default_rng(0).standard_normal(n)
    try:
        evals, evecs = spla.eigsh(standard, k=1, which="SA", v0=v0)
    except spla.ArpackError as exc:
        raise ConvergenceError(f"Lanczos eigen-solve failed: {exc}") from exc
    lam = float(evals[0])
    q = scale * evecs[:, 0] / np.linalg.norm(evecs[:, 0])
    _check_eigenpair(apply(q) - lam * (q / scale ** 2), q, tol)
    return lam, q
