"""Immutable sparse operators and vector validation.

Everything downstream (QP solvers, the staggered-grid Stokes module) works in
terms of :class:`SparseOperator` and plain 1-D numpy arrays.  Operators are
frozen after assembly so they can be shared freely between threads.  An
operator's symmetry is measured when it is built, never declared by the
caller.
"""

import numpy as np
from scipy import sparse as _sp


def as_vector(x, length=None, name="vector"):
    """Coerce ``x`` to a finite 1-D float64 array.

    Raises ValueError on wrong dimensionality, a length mismatch, or any
    NaN/Inf entry.  Non-finite values are rejected at every public entry
    point so they can never propagate silently through a solve.
    """
    v = np.asarray(x, dtype=float)
    if v.ndim != 1:
        raise ValueError(f"{name} must be 1-D, got shape {v.shape}")
    if length is not None and v.shape[0] != length:
        raise ValueError(
            f"{name} has length {v.shape[0]}, expected {length}")
    if v.size and not np.isfinite(v).all():
        raise ValueError(f"{name} contains non-finite entries")
    return v


def _mirrored(csr):
    """value(i, j) == value(j, i) for every pair of the square canonical
    ``csr``: its CSC arrays are the CSR arrays of its transpose, so the two
    agree exactly when it is symmetric.  Explicit zeros (-0.0 too) are
    dropped from a copy first, since one may face an unstored entry."""
    if not np.all(csr.data):
        csr = csr.copy()
        csr.eliminate_zeros()
    csc = csr.tocsc()
    return bool(np.array_equal(csc.indptr, csr.indptr)
                and np.array_equal(csc.indices, csr.indices)
                and np.array_equal(csc.data, csr.data))


class SparseOperator:
    """A real matrix stored in compressed-sparse-row layout.

    Built from a 2-D dense array or scipy matrix, which is copied: duplicates
    are summed and column indices sorted, so the stored layout is canonical
    regardless of input order, and no later write to the input reaches the
    operator.  ``symmetric`` is measured at construction: square, and
    value(i, j) == value(j, i) exactly for every pair.

    Instances are immutable: the underlying CSR buffers are marked
    read-only once built.
    """

    __slots__ = ("_csr", "_csr_t", "_symmetric")

    def __init__(self, matrix):
        csr = _sp.csr_array(matrix, dtype=float, copy=True)
        if csr.ndim != 2:
            raise ValueError(f"operator must be 2-D, got shape {csr.shape}")
        csr.sum_duplicates()
        csr.sort_indices()
        if csr.nnz and not np.all(np.isfinite(csr.data)):
            raise ValueError("operator contains non-finite entries")
        for buf in (csr.data, csr.indices, csr.indptr):
            buf.flags.writeable = False
        self._csr = csr
        self._csr_t = csr.T             # a CSC view of the same buffers
        self._symmetric = csr.shape[0] == csr.shape[1] and _mirrored(csr)

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_triples(cls, nrows, ncols, rows, cols, values):
        """Assemble from parallel row/col/value sequences (duplicates summed).

        Indices are stored as int32 where the shape, the entry count and
        the given indices all fit, as for an operator built from an array.
        Signed integer index arrays are used as given, others via int64.
        """
        rows, cols = (i if isinstance(i, np.ndarray) and i.dtype.kind == "i"
                      else np.asarray(i, dtype=np.int64) for i in (rows, cols))
        values = np.asarray(values, dtype=float)
        if not (rows.shape == cols.shape == values.shape):
            raise ValueError("rows, cols, values must have matching lengths")
        # the contents are checked so that the cast below cannot wrap an
        # index that coo_array would otherwise reject
        index = _sp.get_index_dtype((rows, cols), check_contents=True,
                                    maxval=max(nrows, ncols, values.size))
        return cls(_sp.coo_array(
            (values, (rows.astype(index, copy=False),
                      cols.astype(index, copy=False))),
            shape=(nrows, ncols)))

    @classmethod
    def identity(cls, n):
        return cls(_sp.identity(n, format="csr"))

    # -- shape -------------------------------------------------------------

    @property
    def nrows(self):
        return self._csr.shape[0]

    @property
    def ncols(self):
        return self._csr.shape[1]

    @property
    def shape(self):
        return self._csr.shape

    @property
    def nnz(self):
        return self._csr.nnz

    @property
    def symmetric(self):
        return self._symmetric

    @property
    def csr(self):
        """The underlying (read-only) scipy CSR array."""
        return self._csr

    # -- operations --------------------------------------------------------

    def apply(self, x):
        """Return ``self @ x`` for a 1-D vector ``x`` (exact linearity)."""
        x = as_vector(x, length=self.ncols, name="x")
        return self._csr @ x

    def apply_transpose(self, y):
        """Return ``self.T @ y`` for a 1-D vector ``y``, validated as
        ``apply`` validates ``x``."""
        y = as_vector(y, length=self.nrows, name="y")
        return self._csr_t @ y

    def toarray(self):
        return self._csr.toarray()

    def triples(self):
        """Canonical (rows, cols, values) triples in row-major order."""
        coo = self._csr.tocoo()
        return coo.row.copy(), coo.col.copy(), coo.data.copy()

    def frobenius_norm(self):
        return float(np.sqrt(np.sum(self._csr.data ** 2)))

    def __repr__(self):
        tag = "symmetric" if self._symmetric else "general"
        return (f"SparseOperator({self.nrows}x{self.ncols}, "
                f"nnz={self.nnz}, {tag})")
