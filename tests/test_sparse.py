"""Sparse operator construction, application, and algebraic properties."""

import numpy as np
import pytest
from scipy import sparse as sp

from stokesqp import SparseOperator, as_vector


def test_identity_apply():
    op = SparseOperator.identity(3)
    x = np.array([1.0, 2.0, 3.0])
    assert np.array_equal(op.apply(x), x)


def test_zero_vector_maps_to_zero():
    rng = np.random.default_rng(7)
    op = SparseOperator(rng.standard_normal((5, 4)))
    assert np.array_equal(op.apply(np.zeros(4)), np.zeros(5))


def test_hand_product_2x2():
    op = SparseOperator([[2.0, 0.0], [1.0, 3.0]])
    assert np.allclose(op.apply([1.0, 1.0]), [2.0, 4.0])


def test_linearity_random():
    rng = np.random.default_rng(11)
    op = SparseOperator(rng.standard_normal((8, 6)))
    for _ in range(20):
        x = rng.standard_normal(6)
        y = rng.standard_normal(6)
        alpha, beta = rng.standard_normal(2)
        lhs = op.apply(alpha * x + beta * y)
        rhs = alpha * op.apply(x) + beta * op.apply(y)
        scale = max(np.linalg.norm(lhs), 1.0)
        assert np.linalg.norm(lhs - rhs) <= 1e-13 * scale


def test_symmetric_pairing_random():
    rng = np.random.default_rng(13)
    g = rng.standard_normal((7, 7))
    op = SparseOperator(g + g.T)
    for _ in range(20):
        x = rng.standard_normal(7)
        y = rng.standard_normal(7)
        a = float(y @ op.apply(x))
        b = float(x @ op.apply(y))
        assert abs(a - b) <= 1e-13 * max(abs(a), 1.0)


def test_triples_assembly_is_canonical():
    # unordered input with a duplicate entry: duplicates sum, layout sorts
    op = SparseOperator.from_triples(
        2, 2, [1, 0, 0, 1], [0, 1, 1, 0], [5.0, 2.0, 1.0, -1.0])
    expected = np.array([[0.0, 3.0], [4.0, 0.0]])
    assert np.array_equal(op.toarray(), expected)
    rows, cols, vals = op.triples()
    order = np.lexsort((cols, rows))
    assert np.array_equal(order, np.arange(len(vals)))


@pytest.mark.parametrize("row", [3, -1, 2 ** 32, 2 ** 32 + 1, 2 ** 40])
def test_triples_index_cast_cannot_wrap(row):
    # indices are stored as int32 when they fit; one that does not fit is
    # rejected as out of range, not wrapped into it (2 ** 32 + 1 to 1)
    with pytest.raises(ValueError, match="index"):
        SparseOperator.from_triples(3, 3, [0, row], [0, 1], [1.0, 2.0])


def test_symmetry_is_measured():
    assert SparseOperator([[1.0, 2.0], [2.0, 4.0]]).symmetric
    assert not SparseOperator([[1.0, 2.0], [3.0, 4.0]]).symmetric
    assert not SparseOperator([[1.0, 2.0, 0.0], [2.0, 1.0, 0.0]]).symmetric


@pytest.mark.parametrize("seed", range(30))
def test_measured_symmetry_matches_dense_oracle(seed):
    # few distinct values, so mirrored draws are common; zeros come as 0.0
    # and -0.0, stored explicitly by the triples input
    rng = np.random.default_rng(seed)
    nrows = int(rng.integers(1, 6))
    ncols = nrows if rng.random() < 0.7 else int(rng.integers(1, 6))
    a = rng.choice([0.0, 1.0, -1.0, 2.5], (nrows, ncols))
    if nrows == ncols and rng.random() < 0.7:
        a = np.where(np.tri(nrows, dtype=bool), a, a.T)
        if rng.random() < 0.3:
            a[rng.integers(nrows), rng.integers(ncols)] += 1.0
    zeros = a == 0.0
    a[zeros] = rng.choice([0.0, -0.0], zeros.sum())
    expected = nrows == ncols and np.array_equal(a, a.T)
    rows, cols = np.indices(a.shape)
    stored = SparseOperator.from_triples(nrows, ncols, rows.ravel(),
                                         cols.ravel(), a.ravel())
    assert stored.nnz == a.size
    assert stored.symmetric == SparseOperator(a).symmetric == expected


@pytest.mark.parametrize("entries, expected", [
    # an explicit zero at (0, 1), nothing stored at (1, 0)
    ([(0, 0, 1.0), (0, 1, 0.0), (1, 1, 2.0)], True),
    ([(0, 0, 1.0), (0, 1, -0.0), (1, 1, 2.0)], True),
    ([(1, 0, 0.0), (2, 2, 1.0)], True),
    # the same, beside a pair that is mirrored, and one that is not
    ([(0, 1, 0.0), (0, 2, 3.0), (2, 0, 3.0)], True),
    ([(0, 1, 0.0), (0, 2, 3.0), (2, 0, 4.0)], False),
    ([(0, 1, 0.0), (0, 2, 3.0)], False),
    # explicit zeros facing each other, and one facing a nonzero
    ([(0, 1, 0.0), (1, 0, -0.0), (2, 2, 5.0)], True),
    ([(0, 1, 0.0), (1, 0, 1.0)], False),
])
def test_explicit_zero_without_a_mirror(entries, expected, monkeypatch):
    # the zeros are dropped from a copy: the operator keeps them, and no
    # A - A.T is formed
    def refuse(self, other):
        raise AssertionError("A - A.T formed")

    monkeypatch.setattr(sp.csr_array, "__sub__", refuse)
    rows, cols, vals = zip(*entries)
    op = SparseOperator.from_triples(3, 3, rows, cols, vals)
    assert op.nnz == len(entries)
    assert op.symmetric == expected == np.array_equal(op.toarray(),
                                                      op.toarray().T)


def test_symmetry_of_nonzero_patterns_forms_no_difference(monkeypatch):
    # without explicit zeros the CSR arrays of A and A.T decide alone
    def refuse(self, other):
        raise AssertionError("A - A.T formed")

    rng = np.random.default_rng(19)
    g = sp.random_array((40, 40), density=0.1, rng=rng, format="csr")
    g.data += 1.0
    monkeypatch.setattr(sp.csr_array, "__sub__", refuse)
    assert SparseOperator(g + g.T).symmetric
    assert not SparseOperator(g).symmetric
    assert not SparseOperator(g + g.T + sp.csr_array(
        ([1.0], ([0], [39])), shape=(40, 40))).symmetric


def test_operator_must_be_2d():
    with pytest.raises(ValueError, match="2-D"):
        SparseOperator(np.ones(3))
    with pytest.raises(ValueError):
        SparseOperator(np.ones((2, 2, 2)))


def test_operator_copies_a_scipy_input():
    # row 1 holds its columns unsorted: (1, 3.0) before (0, 1.0)
    m = sp.csr_array(([4.0, 1.0, 3.0, 1.0], [0, 1, 1, 0], [0, 2, 4]),
                     shape=(2, 2))
    indices = m.indices.copy()
    op = SparseOperator(m)
    m.data[:] = [100.0, 7.0, 8.0, 9.0]
    assert np.array_equal(op.toarray(), [[4.0, 1.0], [1.0, 3.0]])
    assert op.symmetric
    assert np.array_equal(m.indices, indices)


def test_nonfinite_entries_rejected():
    with pytest.raises(ValueError):
        SparseOperator([[np.nan, 0.0], [0.0, 1.0]])
    op = SparseOperator.identity(2)
    with pytest.raises(ValueError):
        op.apply([np.inf, 0.0])


def test_dimension_mismatch_rejected():
    op = SparseOperator(np.ones((3, 2)))
    with pytest.raises(ValueError):
        op.apply([1.0, 2.0, 3.0])


def test_triples_of_unequal_lengths_rejected():
    with pytest.raises(ValueError, match="matching lengths"):
        SparseOperator.from_triples(2, 2, [0, 1], [0], [1.0, 2.0])


def test_repr_names_shape_entries_and_symmetry():
    assert repr(SparseOperator(np.eye(2))) == \
        "SparseOperator(2x2, nnz=2, symmetric)"
    assert repr(SparseOperator([[0.0, 1.0, 0.0]])) == \
        "SparseOperator(1x3, nnz=1, general)"


def test_apply_transpose_is_the_transposed_product():
    rng = np.random.default_rng(28)
    dense = rng.standard_normal((4, 7))
    dense[rng.random(dense.shape) < 0.5] = 0.0
    op = SparseOperator(dense)
    for _ in range(5):
        y = rng.standard_normal(4)
        y[rng.random(4) < 0.3] = -0.0
        assert np.array_equal(op.apply_transpose(y), op.csr.T @ y)
    # the three faults apply refuses: wrong length, not 1-D, non-finite
    for size, apply in ((4, op.apply_transpose), (7, op.apply)):
        for bad in (np.ones(11 - size), np.ones((size, 1)),
                    np.r_[np.nan, np.zeros(size - 1)]):
            with pytest.raises(ValueError):
                apply(bad)


def test_as_vector_validation():
    with pytest.raises(ValueError):
        as_vector([[1.0, 2.0]])
    with pytest.raises(ValueError):
        as_vector([1.0, 2.0], length=3)
    v = as_vector([1, 2], length=2)
    assert v.dtype == np.float64


def test_frobenius_norm():
    rng = np.random.default_rng(5)
    dense = rng.standard_normal((4, 6))
    op = SparseOperator(dense)
    assert np.isclose(op.frobenius_norm(), np.linalg.norm(dense, "fro"))


def test_buffers_are_immutable():
    op = SparseOperator.identity(2)
    with pytest.raises(ValueError):
        op.csr.data[0] = 5.0
