"""Matrix Market and vector file round trips plus malformed-input diagnostics."""

import numpy as np
import pytest

from stokesqp import SparseOperator, build_grid, mmio
from stokesqp.mmio import (MatrixMarketError, read_matrix, read_vector,
                           write_matrix, write_vector)
from test_stokes import _kronecker_operators


def test_general_matrix_round_trip(tmp_path):
    rng = np.random.default_rng(41)
    dense = np.round(rng.standard_normal((4, 6)), 3)
    dense[np.abs(dense) < 0.4] = 0.0
    path = tmp_path / "m.mtx"
    write_matrix(path, SparseOperator(dense))
    back = read_matrix(path)
    assert not back.symmetric
    assert np.array_equal(back.toarray(), dense)


def test_symmetric_matrix_round_trip(tmp_path):
    rng = np.random.default_rng(42)
    g = np.round(rng.standard_normal((5, 5)), 3)
    dense = g + g.T
    path = tmp_path / "s.mtx"
    write_matrix(path, SparseOperator(dense))
    text = path.read_text()
    assert text.startswith("%%MatrixMarket matrix coordinate real symmetric\n")
    back = read_matrix(path)
    assert back.symmetric
    assert np.array_equal(back.toarray(), dense)


def test_symmetric_file_stores_lower_triangle_only(tmp_path):
    dense = np.array([[2.0, 1.0], [1.0, 3.0]])
    path = tmp_path / "s.mtx"
    write_matrix(path, SparseOperator(dense))
    body = path.read_text().splitlines()[2:]
    for line in body:
        i, j, _ = line.split()
        assert int(i) >= int(j)


def test_indices_are_one_based(tmp_path):
    path = tmp_path / "m.mtx"
    write_matrix(path, SparseOperator([[0.0, 7.0], [0.0, 0.0]]))
    assert path.read_text().splitlines()[2] == "1 2 7.0"


def test_vector_round_trip(tmp_path):
    v = np.array([1.0, -2.5, 3.25e-17, 0.0])
    path = tmp_path / "v.txt"
    write_vector(path, v)
    assert np.array_equal(read_vector(path), v)


@pytest.mark.parametrize("bad", [np.ones((2, 2)), [1.0, np.nan]])
def test_write_vector_rejects_what_read_vector_rejects(tmp_path, bad):
    path = tmp_path / "v.txt"
    with pytest.raises(ValueError):
        write_vector(path, bad)
    assert not path.exists()


def test_full_precision_survives_round_trip(tmp_path):
    rng = np.random.default_rng(43)
    v = rng.standard_normal(50)
    path = tmp_path / "v.txt"
    write_vector(path, v)
    assert np.array_equal(read_vector(path), v)
    dense = rng.standard_normal((7, 7))
    mpath = tmp_path / "m.mtx"
    write_matrix(mpath, SparseOperator(dense))
    assert np.array_equal(read_matrix(mpath).toarray(), dense)


def test_comments_and_blank_lines_skipped(tmp_path):
    path = tmp_path / "m.mtx"
    path.write_text("%%MatrixMarket matrix coordinate real general\n"
                    "% a comment\n"
                    "\n"
                    "2 2 1\n"
                    "% another\n"
                    "2 1 4.5\n")
    back = read_matrix(path)
    assert np.array_equal(back.toarray(), [[0.0, 0.0], [4.5, 0.0]])


def _expect_error(path, fragment, lineno=None):
    with pytest.raises(MatrixMarketError) as excinfo:
        read_matrix(path)
    assert fragment in str(excinfo.value)
    if lineno is not None:
        assert excinfo.value.lineno == lineno
        assert f":{lineno}:" in str(excinfo.value)


def test_bad_header_diagnosed(tmp_path):
    path = tmp_path / "m.mtx"
    path.write_text("%%MatrixMarket matrix array real general\n2 2\n")
    _expect_error(path, "unsupported header", lineno=1)


def test_bad_symmetry_diagnosed(tmp_path):
    path = tmp_path / "m.mtx"
    path.write_text("%%MatrixMarket matrix coordinate real hermitian\n1 1 0\n")
    _expect_error(path, "unsupported symmetry", lineno=1)


def test_unparsable_entry_names_line(tmp_path):
    path = tmp_path / "m.mtx"
    path.write_text("%%MatrixMarket matrix coordinate real general\n"
                    "2 2 2\n"
                    "1 1 1.0\n"
                    "2 two 2.0\n")
    _expect_error(path, "cannot parse entry", lineno=4)


def test_out_of_range_index_names_line(tmp_path):
    path = tmp_path / "m.mtx"
    path.write_text("%%MatrixMarket matrix coordinate real general\n"
                    "2 2 1\n"
                    "3 1 1.0\n")
    _expect_error(path, "outside", lineno=3)


def test_entry_count_mismatch_diagnosed(tmp_path):
    path = tmp_path / "m.mtx"
    path.write_text("%%MatrixMarket matrix coordinate real general\n"
                    "2 2 3\n"
                    "1 1 1.0\n")
    _expect_error(path, "promised 3 entries")


def test_empty_file_diagnosed(tmp_path):
    path = tmp_path / "m.mtx"
    path.write_text("")
    _expect_error(path, "missing header", lineno=1)


def test_nonfinite_value_diagnosed(tmp_path):
    path = tmp_path / "m.mtx"
    path.write_text("%%MatrixMarket matrix coordinate real general\n"
                    "1 1 1\n"
                    "1 1 nan\n")
    _expect_error(path, "non-finite", lineno=3)


def test_vector_bad_line_diagnosed(tmp_path):
    path = tmp_path / "v.txt"
    path.write_text("1.0\nabc\n")
    with pytest.raises(MatrixMarketError) as excinfo:
        read_vector(path)
    assert ":2:" in str(excinfo.value)


# (id, file text, values read or the line of the error and its text)
_VECTOR_TEXTS = [
    ("comments-and-blanks-skipped", "% values\n1.5\n\n  % note\n-2.0\n",
     [1.5, -2.0]),
    ("nan", "1.0\nnan\n", (2, "non-finite value 'nan'")),
    ("overflow-to-inf", "1e400\n", (1, "non-finite value '1e400'")),
]


@pytest.mark.parametrize("text, expected", [row[1:] for row in _VECTOR_TEXTS],
                         ids=[row[0] for row in _VECTOR_TEXTS])
def test_read_vector_table(tmp_path, text, expected):
    path = tmp_path / "v.txt"
    path.write_text(text)
    if isinstance(expected, list):
        assert read_vector(path).tolist() == expected
        return
    lineno, fragment = expected
    with pytest.raises(MatrixMarketError, match=f":{lineno}: {fragment}"):
        read_vector(path)


def test_vector_digit_grouping_rejected(tmp_path):
    # float('1_0.5') is 10.5
    path = tmp_path / "v.txt"
    path.write_text("1.0\n1_0.5\n")
    with pytest.raises(MatrixMarketError, match=":2: cannot parse value"):
        read_vector(path)


# -- the C parse against the line loop --------------------------------------

_GENERAL = "%%MatrixMarket matrix coordinate real general\n"
_SYMMETRIC = "%%MatrixMarket matrix coordinate real symmetric\n"

# (id, file text, line number of the loop's error or None if it accepts)
_BODIES = [
    ("header-missing-symmetry",
     "%%MatrixMarket matrix coordinate real\n2 2 0\n", 1),
    ("size-line-two-tokens", _GENERAL + "2 2\n1 1 2.0\n", 2),
    ("size-line-four-tokens", _GENERAL + "% c\n2 2 1 1\n1 1 2.0\n", 3),
    ("negative-dimension", _GENERAL + "2 -2 0\n", 2),
    ("missing-size-line", _GENERAL + "% only a comment\n\n", 3),
    *[(f"line-break-{ord(c):#04x}", _GENERAL + f"2 2 1\n1{c}1 2.0\n", 3)
      for c in "\x0b\x0c\x1c\x1d\x1e"],
    ("unit-separator-is-blank", _GENERAL + "2 2 1\n1\x1f1 2.0\n", None),
    ("trailing-comment", _GENERAL + "2 2 1\n1 1 2.0 % c\n", 3),
    ("float-index", _GENERAL + "2 2 1\n1.0 1 2.0\n", 3),
    ("exponent-index", _GENERAL + "2 2 1\n1e0 1 2.0\n", 3),
    # int() and float() accept Python's digit grouping; a file may not
    ("underscore-index", _GENERAL + "10 10 1\n1_0 1 2.0\n", 3),
    ("underscore-value", _GENERAL + "2 2 1\n1 1 2_5.0\n", 3),
    ("underscore-size-line", _GENERAL + "1_0 10 1\n1 1 2.0\n", 2),
    ("symmetric-wider-than-tall", _SYMMETRIC + "2 3 1\n1 1 1.0\n", 2),
    ("symmetric-taller-than-wide", _SYMMETRIC + "3 2 1\n3 1 1.0\n", 2),
    ("no-entries", _GENERAL + "2 3 0\n", None),
    ("no-entries-promised-one-given", _GENERAL + "2 3 0\n1 1 2.0\n", 3),
    ("comment-after-size-line",
     _GENERAL + "2 2 2\n1 1 2.0\n% note\n2 2 3.0\n", None),
    ("symmetric-duplicates",
     _SYMMETRIC + "3 3 6\n2 1 0.1\n1 1 4.0\n2 1 0.2\n3 2 1e-17\n1 1 -4.0\n"
     "2 1 0.3\n", None),
    ("four-then-two-tokens", _GENERAL + "2 2 2\n1 1 2.0 2\n1 2.0\n", 3),
    ("tabs-crlf-blank-lines",
     _GENERAL.replace("\n", "\r\n") + "\r\n2 2 2\r\n\r\n\t1\t1\t2.0 \r\n"
     "   \r\n2 2\t-3.5\r\n\r\n", None),
    ("carriage-returns", _GENERAL.replace("\n", "\r") + "2 2 1\r2 1 5.0\r",
     None),
    ("signs-and-leading-zeros", _GENERAL + "2 2 1\n+02 01 +.5e+1\n", None),
    ("nan", _GENERAL + "2 2 1\n1 1 nan\n", 3),
    ("inf", _GENERAL + "2 2 1\n1 1 -inf\n", 3),
    ("overflow-to-inf", _GENERAL + "2 2 1\n1 1 1e400\n", 3),
    ("truncated-exponent", _GENERAL + "2 2 2\n1 1 1.0\n2 2 1.5e\n", 4),
    ("index-zero", _GENERAL + "2 2 1\n0 1 2.0\n", 3),
    ("index-past-last-row", _GENERAL + "2 2 2\n1 1 1.0\n3 1 2.0\n", 4),
    ("index-past-last-col", _GENERAL + "2 2 1\n1 3 2.0\n", 3),
    ("index-negative-zero", _GENERAL + "2 2 1\n-0 1 2.0\n", 3),
    ("index-beyond-int64",
     _GENERAL + "2 2 1\n99999999999999999999 1 2.0\n", 3),
    ("upper-triangle-in-symmetric",
     _SYMMETRIC + "2 2 2\n1 1 1.0\n1 2 2.0\n", 4),
    ("fewer-entries-than-promised", _GENERAL + "2 2 3\n1 1 1.0\n2 2 1.0\n", 4),
    ("more-entries-than-promised", _GENERAL + "2 2 1\n1 1 1.0\n2 2 1.0\n", 4),
]


def _outcome(path):
    """What read_matrix makes of ``path``: its CSR buffers, bit for bit, or
    its error text and line number."""
    try:
        op = read_matrix(path)
    except MatrixMarketError as exc:
        return "error", str(exc), exc.lineno
    csr = op.csr
    return ("operator", op.shape, op.symmetric, csr.data.tobytes(),
            csr.indices.tobytes(), csr.indptr.tobytes())


def _line_loop_outcome(path, monkeypatch):
    """The oracle: read_matrix with the C parse declining every file."""
    with monkeypatch.context() as patch:
        patch.setattr(mmio, "_entries_vectorized", lambda *args: None)
        return _outcome(path)


def _refuse(*args):
    raise AssertionError("the line loop was reached")


@pytest.mark.parametrize("text, error_line", [row[1:] for row in _BODIES],
                         ids=[row[0] for row in _BODIES])
def test_fast_parse_agrees_with_line_loop(tmp_path, monkeypatch, text,
                                          error_line):
    path = tmp_path / "m.mtx"
    path.write_bytes(text.encode("ascii"))
    expected = _line_loop_outcome(path, monkeypatch)
    if error_line is None:
        assert expected[0] == "operator"
    else:
        assert expected[0] == "error" and expected[2] == error_line
    assert _outcome(path) == expected


def test_fast_parse_full_precision_is_bitwise(tmp_path, monkeypatch):
    rng = np.random.default_rng(44)
    bits = rng.integers(0, 2**64, size=30000, dtype=np.uint64)
    values = bits.view(np.float64)
    values = values[np.isfinite(values)][:10000]
    assert values.size == 10000
    texts = [repr(v) for v in values.tolist()]
    body = "".join(f"{k // 100 + 1} {k % 100 + 1} {t}\n"
                   for k, t in enumerate(texts))
    path = tmp_path / "m.mtx"
    path.write_text(_GENERAL + f"100 100 {len(texts)}\n" + body)
    expected = np.array([float(t) for t in texts])
    with monkeypatch.context() as patch:
        patch.setattr(mmio, "_entries_by_line", _refuse)
        op = read_matrix(path)
    # one entry per position, in row-major order: the CSR data is the file's
    assert op.csr.data.tobytes() == expected.tobytes()
    assert _outcome(path) == _line_loop_outcome(path, monkeypatch)


@pytest.mark.parametrize("symmetric", [False, True])
def test_instance_files_never_reach_line_loop(tmp_path, monkeypatch,
                                              symmetric):
    # the layout of a generated problem instance: dense, full precision
    rng = np.random.default_rng(45)
    g = rng.standard_normal((30, 30))
    matrix = g @ g.T + 30 * np.eye(30) if symmetric else g
    rows, cols = np.nonzero(np.tril(matrix) if symmetric else matrix)
    lines = [f"%%MatrixMarket matrix coordinate real "
             f"{'symmetric' if symmetric else 'general'}",
             f"30 30 {rows.size}"]
    lines += [f"{i + 1} {j + 1} {float(matrix[i, j])!r}"
              for i, j in zip(rows, cols)]
    path = tmp_path / "m.mtx"
    path.write_text("\n".join(lines) + "\n", encoding="ascii")
    expected = _line_loop_outcome(path, monkeypatch)
    monkeypatch.setattr(mmio, "_entries_by_line", _refuse)
    op = read_matrix(path)
    assert np.array_equal(op.toarray(), matrix)
    assert _outcome(path) == expected


def test_non_ascii_byte_names_file_and_line(tmp_path):
    path = tmp_path / "m.mtx"
    path.write_bytes(b"%%MatrixMarket matrix coordinate real general\n"
                     b"2 2 2\n1 1 1.0\n2 2 3.\xc3\xa90\n")
    _expect_error(path, "m.mtx:4: non-ASCII byte 0xc3", lineno=4)
    vector = tmp_path / "v.txt"
    vector.write_bytes(b"1.0\r\n2.0\r3\xff.0\n")
    with pytest.raises(MatrixMarketError) as excinfo:
        read_vector(vector)
    assert str(excinfo.value) == f"{vector}:3: non-ASCII byte 0xff"
    assert excinfo.value.lineno == 3


def test_writers_match_per_line_format(tmp_path):
    rng = np.random.default_rng(46)
    values = np.concatenate([rng.standard_normal(40) * 10.0 ** rng.integers(
        -300, 300, 40), [0.0, -0.0, 1e16, 5e-324, 0.1]])
    path = tmp_path / "v.txt"
    write_vector(path, values)
    assert path.read_bytes() == "".join(
        f"{float(x)!r}\n" for x in values).encode("ascii")

    g = np.round(rng.standard_normal((6, 6)), 2)
    for op in (SparseOperator(g), SparseOperator(g + g.T)):
        rows, cols, vals = op.triples()
        if op.symmetric:
            keep = rows >= cols
            rows, cols, vals = rows[keep], cols[keep], vals[keep]
        expected = (f"%%MatrixMarket matrix coordinate real "
                    f"{'symmetric' if op.symmetric else 'general'}\n"
                    f"{op.nrows} {op.ncols} {len(vals)}\n")
        expected += "".join(f"{int(i) + 1} {int(j) + 1} {float(v)!r}\n"
                            for i, j, v in zip(rows, cols, vals))
        write_matrix(path, op)
        assert path.read_bytes() == expected.encode("ascii")


def test_write_text_creates_parent_and_writes_ascii_lf(tmp_path):
    path = tmp_path / "missing" / "deeper" / "r.csv"
    mmio.write_text(path, "a,b\n1,2\n")
    assert path.read_bytes() == b"a,b\n1,2\n"
    with pytest.raises(UnicodeEncodeError):
        mmio.write_text(tmp_path / "u.txt", "\u00e9\n")
    chunks = ["kind,", "i\n", "", "u,0\r", "\n"]
    mmio.write_text(path, iter(chunks))
    assert path.read_bytes() == "".join(chunks).encode("ascii")
    with pytest.raises(UnicodeEncodeError):
        mmio.write_text(tmp_path / "u.txt", ["a\n", "\u00e9\n"])

    # an error part-way through leaves the chunks written before it
    def failing():
        yield "a\n"
        raise RuntimeError("cut")

    with pytest.raises(RuntimeError, match="cut"):
        mmio.write_text(path, failing())
    assert path.read_bytes() == b"a\n"


def test_mac_operators_round_trip(tmp_path):
    # the Stokes scale: n=16 gives A 480 x 480 (symmetric) and B 256 x 480
    grid = build_grid(16)
    for name, op in zip("AB", map(SparseOperator, _kronecker_operators(16))):
        path = tmp_path / f"{name}.mtx"
        write_matrix(path, op)
        back = read_matrix(path)
        assert back.symmetric == op.symmetric == (name == "A")
        for attr in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(back.csr, attr),
                                  getattr(op.csr, attr))
    load = np.random.default_rng(27).standard_normal(grid.n_velocity)
    write_vector(tmp_path / "b.txt", load)
    assert np.array_equal(read_vector(tmp_path / "b.txt"), load)


def test_write_json_is_strict_sorted_and_newline_terminated(tmp_path):
    path = tmp_path / "r.json"
    mmio.write_json(path, {"b": 0.1, "a": [1, None]})
    assert path.read_bytes() == \
        b'{\n  "a": [\n    1,\n    null\n  ],\n  "b": 0.1\n}\n'
    with pytest.raises(ValueError):
        mmio.write_json(tmp_path / "nan.json", {"x": float("nan")})
    assert not (tmp_path / "nan.json").exists()
