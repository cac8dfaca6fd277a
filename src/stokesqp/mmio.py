"""Matrix Market and plain-text vector I/O.

Operators travel as Matrix Market coordinate files (1-based indices, real
entries, ``general`` or ``symmetric``); vectors as one-value-per-line text.
The reader reports malformed input with the offending line number.
"""

import math

import numpy as np

from .sparse import SparseOperator

_HEADER_PREFIX = "%%matrixmarket"


class MatrixMarketError(ValueError):
    """Malformed Matrix Market input, carrying file name and line number."""

    def __init__(self, path, lineno, message):
        super().__init__(f"{path}:{lineno}: {message}")
        self.path = str(path)
        self.lineno = lineno


def read_matrix(path):
    """Read a coordinate-format Matrix Market file into a SparseOperator."""
    with open(path, "r", encoding="ascii") as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise MatrixMarketError(path, 1, "empty file, missing header")

    header = lines[0].strip().lower().split()
    if len(header) != 5 or header[0] != _HEADER_PREFIX:
        raise MatrixMarketError(path, 1, "expected '%%MatrixMarket matrix "
                                "coordinate real general|symmetric' header")
    _, obj, fmt, field, symmetry = header
    if obj != "matrix" or fmt != "coordinate" or field != "real":
        raise MatrixMarketError(
            path, 1, f"unsupported header '{lines[0].strip()}'")
    if symmetry not in ("general", "symmetric"):
        raise MatrixMarketError(path, 1, f"unsupported symmetry '{symmetry}'")
    symmetric = symmetry == "symmetric"

    lineno = 1
    size = None
    entries_expected = 0
    entries_seen = 0
    rows, cols, vals = [], [], []
    for raw in lines[1:]:
        lineno += 1
        line = raw.strip()
        if not line or line.startswith("%"):
            continue
        parts = line.split()
        if size is None:
            if len(parts) != 3:
                raise MatrixMarketError(
                    path, lineno, "size line must be 'nrows ncols nnz'")
            try:
                nrows, ncols, entries_expected = (int(p) for p in parts)
            except ValueError:
                raise MatrixMarketError(
                    path, lineno, f"non-integer size line '{line}'") from None
            if nrows < 0 or ncols < 0 or entries_expected < 0:
                raise MatrixMarketError(path, lineno, "negative dimension")
            size = (nrows, ncols)
            continue
        if len(parts) != 3:
            raise MatrixMarketError(
                path, lineno, f"entry line must be 'row col value', got '{line}'")
        try:
            i, j = int(parts[0]), int(parts[1])
            v = float(parts[2])
        except ValueError:
            raise MatrixMarketError(
                path, lineno, f"cannot parse entry '{line}'") from None
        if not (1 <= i <= size[0]) or not (1 <= j <= size[1]):
            raise MatrixMarketError(
                path, lineno, f"index ({i}, {j}) outside {size[0]}x{size[1]}")
        if not math.isfinite(v):
            raise MatrixMarketError(path, lineno, f"non-finite value '{parts[2]}'")
        if symmetric and j > i:
            raise MatrixMarketError(
                path, lineno, "symmetric file must store the lower triangle only")
        entries_seen += 1
        rows.append(i - 1)
        cols.append(j - 1)
        vals.append(v)
        if symmetric and i != j:
            rows.append(j - 1)
            cols.append(i - 1)
            vals.append(v)

    if size is None:
        raise MatrixMarketError(path, lineno, "missing size line")
    if entries_seen != entries_expected:
        raise MatrixMarketError(
            path, lineno, f"header promised {entries_expected} entries, "
            f"file holds {entries_seen}")
    return SparseOperator.from_triples(size[0], size[1], rows, cols, vals,
                                       symmetric=symmetric)


def write_matrix(path, op):
    """Write a SparseOperator as a Matrix Market coordinate file.

    Symmetric operators are stored as their lower triangle under the
    ``symmetric`` qualifier; everything else under ``general``.
    """
    rows, cols, vals = op.triples()
    if op.symmetric:
        keep = rows >= cols
        rows, cols, vals = rows[keep], cols[keep], vals[keep]
        qualifier = "symmetric"
    else:
        qualifier = "general"
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"%%MatrixMarket matrix coordinate real {qualifier}\n")
        fh.write(f"{op.nrows} {op.ncols} {len(vals)}\n")
        for i, j, v in zip(rows, cols, vals):
            fh.write(f"{int(i) + 1} {int(j) + 1} {float(v)!r}\n")


def read_vector(path):
    """Read a one-value-per-line text vector."""
    values = []
    with open(path, "r", encoding="ascii") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("%"):
                continue
            try:
                v = float(line)
            except ValueError:
                raise MatrixMarketError(
                    path, lineno, f"cannot parse value '{line}'") from None
            if not math.isfinite(v):
                raise MatrixMarketError(path, lineno, f"non-finite value '{line}'")
            values.append(v)
    return np.array(values, dtype=float)


def write_vector(path, v):
    with open(path, "w", encoding="ascii") as fh:
        for x in np.asarray(v, dtype=float):
            fh.write(f"{float(x)!r}\n")
