"""Deterministic linear-algebra kernels.

Iterative and direct symmetric solvers, a rank test returning an SVD and the
null-space basis that completes it, an exact positive-definiteness test
returning its L D L.T factor's solve, a rank-one lift of a known null vector,
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

#: residual bound of a computed eigenpair, ||S q - lam M q|| <= EIGEN_TOL ||q||
EIGEN_TOL = 1e-10

#: iterations without a new minimum of the CG residual (once it is below
#: ||b||) after which CG fails with reason "stagnation": the residual has
#: hit the accuracy rounding allows, and further steps only wander
STAGNATION_WINDOW = 100


class ConvergenceError(RuntimeError):
    """A solver failed to meet its tolerance: CG stopped short of it (the
    message names why), or a computed eigenpair failed its residual check."""


class SingularSystemError(RuntimeError):
    """A direct solve hit a (numerically) singular system, or an operator
    that must be positive definite is not."""


class RankDeficiencyError(ValueError):
    """A constraint operator does not have full row rank, so the associated
    multiplier would not be unique."""


@dataclass(frozen=True)
class SolverReport:
    iterations: int
    residual_norm: float


def conjugate_gradient(apply_op, b, tol=DEFAULT_TOL, precondition=None):
    """Solve ``S x = b`` for a symmetric positive definite S by
    preconditioned CG, with z = M^-1 r and r.T z in the recurrence.

    Parameters
    ----------
    apply_op : callable
        The action v -> S v on 1-D arrays.
    b : array_like
        Right-hand side.
    tol : float
        Relative residual target, 0 < tol < inf (else ValueError):
        convergence means ``||S x - b|| <= tol * ||b||``, verified against
        the true residual.
    precondition : callable, optional
        The action r -> M^-1 r of a symmetric positive definite
        preconditioner M; without one, z = r and the recurrence is plain CG.
        Convergence and the stagnation window are judged on ||r|| and
        confirmed on the true residual; after a failed confirmation z is
        recomputed from the reset residual.

    Returns
    -------
    (x, report) : (ndarray, SolverReport)
        Only a solution that met ``tol``.  Otherwise ConvergenceError names
        the reason, the iteration count, the number of unknowns and the true
        residual: "max_iter" after ``10 * len(b)`` iterations,
        "negative_curvature" when a direction reveals an indefinite
        operator, "underflow" when p.T S p <= 0 only because the direction
        p has underflowed (p.T p below the smallest normal double),
        "indefinite_preconditioner" when r.T M^-1 r <= 0,
        "stagnation" when the recurrence residual has not reached a new
        minimum for ``STAGNATION_WINDOW`` iterations (tol below attainable
        accuracy), counted from the first iterate below ||b||: the CG
        residual is not monotone, and can stay above ||b|| longer than that
        and converge.
    """
    b = as_vector(b, name="b")
    if not 0.0 < tol < np.inf:
        raise ValueError(f"tol must be positive and finite, got {tol}")
    if precondition is None:
        def precondition(r):
            return r
    n = b.shape[0]

    x = np.zeros(n)
    norm_b = np.linalg.norm(b)
    if norm_b == 0.0:
        return x, SolverReport(0, 0.0)

    r = b.copy()
    rs = float(r @ r)
    best, best_iter = rs, 0
    p = rz = None
    iterations = 0
    reason = "max_iter"
    while iterations < 10 * n:
        z = precondition(r)
        rz_new = float(r @ z)
        if rz_new <= 0.0:
            reason = "indefinite_preconditioner"
            break
        p = z if p is None else z + (rz_new / rz) * p
        rz = rz_new
        ap = apply_op(p)
        p_ap = float(p @ ap)
        if p_ap <= 0.0:
            reason = ("underflow" if float(p @ p) < np.finfo(float).tiny
                      else "negative_curvature")
            break
        alpha = rz / p_ap
        x = x + alpha * p
        r = r - alpha * ap
        iterations += 1
        rs = float(r @ r)
        if rs < best:
            best, best_iter = rs, iterations
        if np.sqrt(rs) <= tol * norm_b:
            # recurrence residual can drift from the true one; confirm
            true_res = np.linalg.norm(apply_op(x) - b)
            if true_res <= tol * norm_b:
                return x, SolverReport(iterations, float(true_res))
            r = b - apply_op(x)
            rs = float(r @ r)
        if best_iter and iterations - best_iter >= STAGNATION_WINDOW:
            reason = "stagnation"
            break
    raise ConvergenceError(
        f"CG on {n} unknowns did not converge (reason: {reason} after "
        f"{iterations} iterations, residual "
        f"{np.linalg.norm(apply_op(x) - b):.3e})")


def factorized(op):
    """Sparse LU of ``op``; returns a solve callable that accepts a vector or
    a 2-D block of right-hand sides.

    An exactly singular operator raises SingularSystemError.
    """
    if not isinstance(op, SparseOperator):
        raise TypeError("op must be a SparseOperator")
    try:
        return spla.splu(csc_array(op.csr)).solve
    except RuntimeError as exc:  # SuperLU reports exact singularity this way
        raise SingularSystemError(f"singular system: {exc}") from exc


def symmetric_indefinite_solve(op, b):
    """Solve a symmetric (possibly indefinite) system by pivoted factorization.

    The contract is a backward-error bound:
    ``||op x - b|| <= 1e-10 * (||op||_F ||x|| + ||b||)``.
    One step of iterative refinement is applied if the factorization alone
    falls short.  A singular system raises SingularSystemError.
    """
    if isinstance(op, SparseOperator) and not op.symmetric:
        raise ValueError("symmetric_indefinite_solve requires a symmetric operator")
    solve = factorized(op)
    b = as_vector(b, length=op.nrows, name="b")

    x = solve(b)
    if not np.all(np.isfinite(x)):
        raise SingularSystemError("non-finite solve result: the system is "
                                  "singular to working precision")

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
                f"backward error {residual:.3e} exceeds bound {bound:.3e} "
                "after one refinement step")
    return x, SolverReport(iterations, float(residual))


def assert_full_row_rank(C):
    """Raise RankDeficiencyError unless ``C`` has full numerical row rank,
    else return the economy SVD ``(u, s, vh)`` of ``C``.

    The threshold is on singular values: smallest >= RANK_TOL * largest; the
    error names the rank deficit, M minus the count of those at or above it.
    The rows of vh span range(C.T), their complement Ker C (``kernel_basis``).
    """
    m = C.shape[0]
    dense = C.toarray() if isinstance(C, SparseOperator) else np.asarray(C, dtype=float)
    u, sv, vh = sla.svd(dense, full_matrices=False)
    sv_max = sv[0] if sv.size else 0.0
    rank = int(np.count_nonzero(sv >= RANK_TOL * sv_max)) if sv_max else 0
    if rank < m:
        smallest = sv[-1] if sv.size else 0.0
        raise RankDeficiencyError(
            f"constraint operator is rank deficient: smallest singular value "
            f"{smallest:.3e} vs largest {sv_max:.3e} (tol {RANK_TOL:g}); "
            f"rank deficit {m - rank}")
    return u, sv, vh


def assert_positive_definite(op):
    """Raise SingularSystemError unless the symmetric ``op`` is positive
    definite, else return the solve (of a vector or a 2-D block) of the
    factor that proves it: by Sylvester's law of inertia, exactly when one
    sparse LU with a symmetric ordering and diagonal pivots is P.T A P =
    L D L.T (no row interchange: perm_r == perm_c) with every pivot in
    D = diag(U) positive."""
    try:
        lu = spla.splu(csc_array(op.csr), permc_spec="MMD_AT_PLUS_A",
                       diag_pivot_thresh=0.0,
                       options={"SymmetricMode": True})
    except RuntimeError as exc:  # SuperLU reports exact singularity this way
        raise SingularSystemError(f"A is not positive definite: {exc}") from exc
    if not np.array_equal(lu.perm_r, lu.perm_c):
        raise SingularSystemError("A is not positive definite: a zero pivot "
                                  "forced a row interchange")
    pivot = lu.U.diagonal().min()
    if not pivot > 0.0:
        raise SingularSystemError(f"A is not positive definite: L D L.T "
                                  f"pivot {pivot:.3e}")
    return lu.solve


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


def smallest_generalized_eigenpair(S, Mop):
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

    Returns
    -------
    (lam, q) : (float, ndarray)
        Checked after the solve: ``||S q - lam Mop q|| <= EIGEN_TOL * ||q||``,
        else ConvergenceError.
    """
    s_work = _to_dense_symmetric(S)
    m_d = _to_dense_symmetric(Mop)
    try:
        evals, evecs = sla.eigh(s_work, m_d, subset_by_index=[0, 0])
    except np.linalg.LinAlgError as exc:
        raise ValueError(f"Mop must be positive definite: {exc}") from exc
    lam, q = float(evals[0]), evecs[:, 0]
    _check_eigenpair(s_work @ q - lam * (m_d @ q), q)
    return lam, q


def _check_eigenpair(residual_vector, q):
    residual = np.linalg.norm(residual_vector)
    if not residual <= EIGEN_TOL * np.linalg.norm(q):
        raise ConvergenceError(f"eigenpair residual {residual:.3e} exceeds "
                               f"{EIGEN_TOL:g} * ||q||")


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


def smallest_eigenpair_matrix_free(apply, mass_diagonal):
    """Smallest eigenpair of ``S q = lam D q`` with S a symmetric operator
    given only by its action and D = diag(``mass_diagonal``) > 0.

    Lanczos (ARPACK ``eigsh``, bottom algebraic pair) on the standard form
    D^-1/2 S D^-1/2, started from a Gaussian vector of a fixed seed, so equal
    input gives equal output (a structured start can be orthogonal to the
    bottom eigenvector of a symmetric grid problem and miss it).  Residual
    contract as in ``smallest_generalized_eigenpair``:
    ``||S q - lam D q|| <= EIGEN_TOL * ||q||`` with ``q @ D @ q == 1``; an
    ARPACK failure or a failed check raises ConvergenceError.

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
    _check_eigenpair(apply(q) - lam * (q / scale ** 2), q)
    return lam, q
