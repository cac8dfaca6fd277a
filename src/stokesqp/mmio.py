"""Matrix Market and plain-text vector I/O.

Operators travel as Matrix Market coordinate files (1-based indices, real
entries, ``general`` or ``symmetric``); vectors as one-value-per-line text.

``read_matrix`` keeps the file as bytes.  It splits off and parses only the
head (header, comments, blank lines, size line) itself, then hands the body
to one C call, ``numpy.loadtxt``, which takes it decoded and split at
``\n`` one 64 KiB block at a time, so no text copy of the file and no str
per line of it is ever held; it checks ranges, finiteness, the lower
triangle and the entry count on whole columns.  The fast parse accepts only
bodies made of digits, signs, ``.``, ``e``/``E``, blanks and ``\n`` or
``\r\n`` line breaks; whatever it declines (a comment line after the size
line, ``nan``, an out-of-range index, a lone ``\r``, any malformed line)
goes to the line-by-line loop over the whole text's lines, which accepts it
or reports the offending line number.  What the fast parse accepts, the
loop accepts too with the same triples, so the file's content alone picks
the path and never changes the result.

Both readers name the file and the line of a non-ASCII byte, and refuse
the ``_`` that Python's ``int`` and ``float`` take as digit grouping.  A
``symmetric`` file must have a square size line.  Every file the package
writes, report or field, goes through ``write_text``, which takes the text
whole or as an iterable of chunks and writes each chunk as it arrives;
``write_matrix`` and ``write_vector`` hand it 4096 lines at a time.
"""

import io
import itertools
import json
import math
import re
import warnings
from pathlib import Path

import numpy as np
from scipy import sparse as _sp

from .sparse import SparseOperator, as_vector

_HEADER_PREFIX = "%%matrixmarket"
# every byte a body may hold for the fast parse; anything else (letters of
# nan/inf, '%', '_', control characters that str.splitlines breaks at but
# loadtxt does not) leaves the file to the loop
_ENTRY_BYTES = b"0123456789+-.eE \t\r\n"
# the ASCII line breaks of str.splitlines, "\r\n" counted as one
_LINE_BREAK = re.compile(rb"\r\n|[\n\r\x0b\x0c\x1c\x1d\x1e]")
# bytes of the body decoded and split at a time for loadtxt
_BODY_BLOCK = 1 << 16
# lines per chunk that write_matrix and write_vector hand to write_text
_WRITE_CHUNK_ROWS = 4096


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


def _lines(data):
    """Each line of the ASCII bytes ``data`` as ``str.splitlines`` splits
    its text, with the offset just past the line's break.  Lazy, so reading
    the head scans the head only."""
    start = 0
    for brk in _LINE_BREAK.finditer(data):
        yield data[start:brk.start()].decode("ascii"), brk.end()
        start = brk.end()
    if start < len(data):
        yield data[start:].decode("ascii"), len(data)


def read_matrix(path):
    """Read a coordinate-format Matrix Market file into a SparseOperator.

    The entries are parsed in one C call when the body allows it, else line
    by line; either way the triples, and so the operator, are the same, and a
    malformed file raises MatrixMarketError naming its first bad line.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    if not data.isascii():
        _decode(path, data, str.splitlines)     # raises, naming the line
    lines = _lines(data)
    first_line, _ = next(lines, (None, 0))
    if first_line is None:
        raise MatrixMarketError(path, 1, "empty file, missing header")

    header = first_line.strip().lower().split()
    if len(header) != 5 or header[0] != _HEADER_PREFIX:
        raise MatrixMarketError(path, 1, "expected '%%MatrixMarket matrix "
                                "coordinate real general|symmetric' header")
    _, obj, fmt, field, symmetry = header
    if obj != "matrix" or fmt != "coordinate" or field != "real":
        raise MatrixMarketError(
            path, 1, f"unsupported header '{first_line.strip()}'")
    if symmetry not in ("general", "symmetric"):
        raise MatrixMarketError(path, 1, f"unsupported symmetry '{symmetry}'")
    symmetric = symmetry == "symmetric"

    first, start, nrows, ncols, nnz = _size_line(path, lines)
    if symmetric and nrows != ncols:
        raise MatrixMarketError(path, first + 1, f"symmetric matrix must be "
                                f"square, got {nrows}x{ncols}")
    triples = _entries_vectorized(data, start, nrows, ncols, nnz, symmetric)
    if triples is None:
        triples = _entries_by_line(path, data.decode("ascii").splitlines(),
                                   first, nrows, ncols, nnz, symmetric)
    return SparseOperator.from_triples(nrows, ncols, *triples)


def _size_line(path, lines):
    """Index, end offset and ``(nrows, ncols, nnz)`` of the size line: the
    first line after the header that is neither blank nor a ``%`` comment.
    ``lines`` yields ``_lines``'s pairs from the line after the header."""
    k = 0
    for k, (raw, end) in enumerate(lines, start=1):
        line = raw.strip()
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
        return k, end, nrows, ncols, nnz
    raise MatrixMarketError(path, k + 1, "missing size line")


def _entries_vectorized(data, start, nrows, ncols, nnz, symmetric):
    """The 0-based triples of the body ``data[start:]``, parsed in one
    ``numpy.loadtxt`` call, or None to leave the file to the loop.

    None whenever the body holds a byte outside ``_ENTRY_BYTES``, loadtxt
    fails (a lone ``\r`` is an embedded newline to it) or warns, or a
    column check fails; so every body this accepts, the loop accepts with
    the same triples in the same order.
    """
    if nnz == 0:
        return None
    # deleting the entry bytes leaves as much of the whole file as of its
    # head exactly when the body holds no other byte; neither is copied
    if (len(data.translate(None, _ENTRY_BYTES))
            != len(data[:start].translate(None, _ENTRY_BYTES))):
        return None
    body = itertools.chain.from_iterable(_body_lines(data, start))
    # indices parsed at the stored dtype; one that overflows goes to the loop
    index = _sp.get_index_dtype(maxval=max(nrows, ncols, nnz))
    entry = np.dtype([("i", index), ("j", index), ("v", np.float64)])
    with warnings.catch_warnings():
        # an older numpy parses '1.0' as an index with a DeprecationWarning
        # and warns on an empty body; the loop decides both
        warnings.simplefilter("error")
        try:
            entries = np.loadtxt(body, dtype=entry, comments=None, ndmin=1)
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


def _body_lines(data, start):
    """The lines of ``data[start:]`` split at ``\n`` only, as lists of str
    decoded ``_BODY_BLOCK`` bytes at a time: loadtxt parses str lines faster
    than bytes lines, and no more than one block of them is in memory."""
    while start < len(data):
        end = data.find(b"\n", start + _BODY_BLOCK) + 1 or len(data)
        yield data[start:end].decode("ascii").split("\n")
        start = end


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
    head = (f"%%MatrixMarket matrix coordinate real {qualifier}\n"
            f"{op.nrows} {op.ncols} {len(vals)}\n")
    write_text(path, itertools.chain([head], _chunks(
        "{} {} {!r}\n".format, rows + 1, cols + 1, vals)))


def _chunks(line, *columns):
    """``line(*row)`` for each row of the equal-length arrays ``columns``,
    joined ``_WRITE_CHUNK_ROWS`` rows to a chunk."""
    for lo in range(0, len(columns[0]), _WRITE_CHUNK_ROWS):
        rows = zip(*(c[lo:lo + _WRITE_CHUNK_ROWS].tolist() for c in columns))
        yield "".join(itertools.starmap(line, rows))


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
    write_text(path, _chunks("{!r}\n".format, as_vector(v)))


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
