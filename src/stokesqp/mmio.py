"""Matrix Market and plain-text vector I/O.

Operators travel as Matrix Market coordinate files (1-based indices, real
entries, ``general`` or ``symmetric``); vectors as one-value-per-line text.

``read_matrix`` parses the header and the size line itself, then hands the
entry lines to one C call, ``numpy.loadtxt``, and checks ranges, finiteness,
the lower triangle and the entry count on whole columns.  The fast parse
accepts only bodies made of digits, signs, ``.``, ``e``/``E``, blanks and
line breaks; whatever it declines (a comment line after the size line,
``nan``, an out-of-range index, any malformed line) goes to the line-by-line
loop, which accepts it or reports the offending line number.  What the fast
parse accepts, the loop accepts too with the same triples, so the file's
content alone picks the path and never changes the result.

Both readers name the file and the line of a non-ASCII byte, and refuse
the ``_`` that Python's ``int`` and ``float`` take as digit grouping.  A
``symmetric`` file must have a square size line.  Every file the package
writes, report or field, goes through ``write_text``, which takes the text
whole or as an iterable of chunks and writes each chunk as it arrives.
"""

import io
import json
import math
import warnings
from pathlib import Path

import numpy as np

from .sparse import SparseOperator, as_vector

_HEADER_PREFIX = "%%matrixmarket"
_ENTRY = np.dtype([("i", np.int64), ("j", np.int64), ("v", np.float64)])
# every byte a body may hold for the fast parse; anything else (letters of
# nan/inf, '%', '_', control characters that str.splitlines breaks at but
# loadtxt does not) leaves the file to the loop
_ENTRY_BYTES = b"0123456789+-.eE \t\r\n"


class MatrixMarketError(ValueError):
    """Malformed Matrix Market input, carrying file name and line number."""

    def __init__(self, path, lineno, message):
        super().__init__(f"{path}:{lineno}: {message}")
        self.path = str(path)
        self.lineno = lineno


def _number(kind, text):
    """``kind(text)`` for ``int`` or ``float``, refusing the ``_`` digit
    grouping both accept; ValueError on anything they cannot parse."""
    if "_" in text:
        raise ValueError(f"digit grouping in {text!r}")
    return kind(text)


def _decode(path, data, split_lines):
    """``data`` as ASCII text; a non-ASCII byte raises MatrixMarketError on
    its line, with lines counted as ``split_lines`` counts them."""
    try:
        return data.decode("ascii")
    except UnicodeDecodeError as exc:
        # the lines before the byte, plus the one it starts or continues
        lineno = len(split_lines(data[:exc.start].decode("ascii") + "x"))
        raise MatrixMarketError(
            path, lineno, f"non-ASCII byte 0x{data[exc.start]:02x}") from None


def read_matrix(path):
    """Read a coordinate-format Matrix Market file into a SparseOperator.

    The entries are parsed in one C call when the body allows it, else line
    by line; either way the triples, and so the operator, are the same, and a
    malformed file raises MatrixMarketError naming its first bad line.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    text = _decode(path, data, str.splitlines)
    lines = text.splitlines()
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

    first, nrows, ncols, nnz = _size_line(path, lines)
    if symmetric and nrows != ncols:
        raise MatrixMarketError(path, first + 1, f"symmetric matrix must be "
                                f"square, got {nrows}x{ncols}")
    triples = _entries_vectorized(data, lines, first, nrows, ncols, nnz,
                                  symmetric)
    if triples is None:
        triples = _entries_by_line(path, lines, first, nrows, ncols, nnz,
                                   symmetric)
    return SparseOperator.from_triples(nrows, ncols, *triples)


def _size_line(path, lines):
    """Index and ``(nrows, ncols, nnz)`` of the size line: the first line
    after the header that is neither blank nor a ``%`` comment."""
    for k in range(1, len(lines)):
        line = lines[k].strip()
        if not line or line.startswith("%"):
            continue
        parts = line.split()
        if len(parts) != 3:
            raise MatrixMarketError(
                path, k + 1, "size line must be 'nrows ncols nnz'")
        try:
            nrows, ncols, nnz = (_number(int, p) for p in parts)
        except ValueError:
            raise MatrixMarketError(
                path, k + 1, f"non-integer size line '{line}'") from None
        if nrows < 0 or ncols < 0 or nnz < 0:
            raise MatrixMarketError(path, k + 1, "negative dimension")
        return k, nrows, ncols, nnz
    raise MatrixMarketError(path, len(lines), "missing size line")


def _entries_vectorized(data, lines, first, nrows, ncols, nnz, symmetric):
    """The 0-based triples of the entry lines after ``lines[first]``, parsed
    in one ``numpy.loadtxt`` call, or None to leave the file to the loop.

    None whenever the body holds a byte outside ``_ENTRY_BYTES``, loadtxt
    fails or warns, or a column check fails; so every body this accepts, the
    loop accepts with the same triples in the same order.
    """
    if nnz == 0:
        return None
    start = 0   # of the body in ``data``: the head's lines and their breaks
    for line in lines[:first + 1]:
        start += len(line)
        start += 2 if data.startswith(b"\r\n", start) else 1
    if data[start:].translate(None, _ENTRY_BYTES):
        return None
    with warnings.catch_warnings():
        # an older numpy parses '1.0' as an index with a DeprecationWarning
        # and warns on an empty body; the loop decides both
        warnings.simplefilter("error")
        try:
            entries = np.loadtxt(lines[first + 1:], dtype=_ENTRY,
                                 comments=None, ndmin=1)
        except (ValueError, Warning):
            return None
    i, j, v = entries["i"], entries["j"], entries["v"]
    if (entries.size != nnz or i.min() < 1 or i.max() > nrows
            or j.min() < 1 or j.max() > ncols or not np.isfinite(v).all()
            or (symmetric and (j > i).any())):
        return None
    rows, cols = i - 1, j - 1
    if not symmetric:
        return rows, cols, v
    # the loop's order: (i, j), then its mirror (j, i) when off the diagonal
    k = np.repeat(np.arange(nnz), np.where(i != j, 2, 1))
    mirror = np.zeros(k.size, dtype=bool)
    mirror[1:] = k[1:] == k[:-1]
    return (np.where(mirror, cols[k], rows[k]),
            np.where(mirror, rows[k], cols[k]), v[k])


def _entries_by_line(path, lines, first, nrows, ncols, nnz, symmetric):
    """The 0-based triples of the entry lines after ``lines[first]``, one
    line at a time; raises MatrixMarketError at the first bad line."""
    lineno = first + 1
    entries_seen = 0
    rows, cols, vals = [], [], []
    for raw in lines[first + 1:]:
        lineno += 1
        line = raw.strip()
        if not line or line.startswith("%"):
            continue
        parts = line.split()
        if len(parts) != 3:
            raise MatrixMarketError(
                path, lineno, f"entry line must be 'row col value', got '{line}'")
        try:
            i, j = _number(int, parts[0]), _number(int, parts[1])
            v = _number(float, parts[2])
        except ValueError:
            raise MatrixMarketError(
                path, lineno, f"cannot parse entry '{line}'") from None
        if not (1 <= i <= nrows) or not (1 <= j <= ncols):
            raise MatrixMarketError(
                path, lineno, f"index ({i}, {j}) outside {nrows}x{ncols}")
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

    if entries_seen != nnz:
        raise MatrixMarketError(
            path, lineno, f"header promised {nnz} entries, "
            f"file holds {entries_seen}")
    return rows, cols, vals


def write_matrix(path, op):
    """Write a SparseOperator as a Matrix Market coordinate file.

    An operator that measured symmetric is stored as its lower triangle
    under the ``symmetric`` qualifier; everything else under ``general``.
    """
    rows, cols, vals = op.triples()
    if op.symmetric:
        keep = rows >= cols
        rows, cols, vals = rows[keep], cols[keep], vals[keep]
        qualifier = "symmetric"
    else:
        qualifier = "general"
    lines = [f"%%MatrixMarket matrix coordinate real {qualifier}\n",
             f"{op.nrows} {op.ncols} {len(vals)}\n"]
    lines.extend(f"{i + 1} {j + 1} {v!r}\n" for i, j, v in
                 zip(rows.tolist(), cols.tolist(), vals.tolist()))
    write_text(path, "".join(lines))


def _vector_lines(text):
    # the line breaks of a text file opened in universal-newlines mode
    return io.StringIO(text, newline=None).readlines()


def read_vector(path):
    """Read a one-value-per-line text vector."""
    with open(path, "rb") as fh:
        text = _decode(path, fh.read(), _vector_lines)
    values = []
    for lineno, raw in enumerate(_vector_lines(text), start=1):
        line = raw.strip()
        if not line or line.startswith("%"):
            continue
        try:
            v = _number(float, line)
        except ValueError:
            raise MatrixMarketError(
                path, lineno, f"cannot parse value '{line}'") from None
        if not math.isfinite(v):
            raise MatrixMarketError(path, lineno, f"non-finite value '{line}'")
        values.append(v)
    return np.array(values, dtype=float)


def write_vector(path, v):
    """Write a finite 1-D vector one value per line; anything
    ``read_vector`` would reject raises ValueError and writes nothing."""
    values = as_vector(v).tolist()
    write_text(path, "".join(f"{x!r}\n" for x in values))


def write_text(path, text):
    """Write ``text``, a str or an iterable of str chunks, as ASCII with
    ``\\n`` line ends, creating the parent directory.  Chunks are written as
    they arrive, so the file is their concatenation and no more of it is in
    memory than one chunk.  A non-ASCII character raises UnicodeEncodeError.
    An error part-way through, from a chunk or from the iterable, leaves
    the file cut short after the chunks already written."""
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.writelines([text] if isinstance(text, str) else text)


def write_json(path, payload):
    """Write ``payload`` as strict JSON, keys sorted, indent 2, and "\\n"."""
    write_text(path, json.dumps(payload, indent=2, sort_keys=True,
                                allow_nan=False) + "\n")
