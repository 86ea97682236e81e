"""Exact matrix layer: shapes, tensor ops, trace identities."""

from fractions import Fraction as F
from itertools import product
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from antisym.linalg import RMatrix, ShapeError, SparseRMatrix

fractions = st.fractions(min_value=-4, max_value=4, max_denominator=6)


def square(entries, factor_dims=None):
    return RMatrix.from_rows(entries, factor_dims)


def random_matrix(draw_entries, n):
    return RMatrix(n, n, draw_entries)


def test_identity_tensor_identity():
    out = RMatrix.identity(2, (2,)).tensor(RMatrix.identity(3, (3,)))
    assert out == RMatrix.identity(6)
    assert out.factor_dims == (2, 3)


def test_tensor_square_of_constraint_block():
    # Kronecker square of [[1,1],[-2,1]]
    t = square([[1, 1], [-2, 1]])
    tt = t.tensor(t)
    assert tt == square([[1, 1, 1, 1],
                         [-2, 1, -2, 1],
                         [-2, -2, 1, 1],
                         [4, -2, -2, 1]])


def test_tensor_scalar_case():
    c = RMatrix(1, 1, [F(3, 7)], (1,))
    m = square([[1, 2], [3, 4]], (2,))
    assert c.tensor(m) == m.scale(F(3, 7))


def test_tensor_associative():
    a = square([[1, 2], [3, 4]], (2,))
    b = square([[0, 1], [-1, 2]], (2,))
    c = square([[5]], (1,))
    assert a.tensor(b).tensor(c) == a.tensor(b.tensor(c))
    assert a.tensor(b).tensor(c).factor_dims == (2, 2, 1)


def sparse(m: RMatrix) -> SparseRMatrix:
    return SparseRMatrix(m.rows, {(i, j): m[i, j] for i in range(m.rows)
                                  for j in range(m.cols)}, m.factor_dims)


def test_partial_trace_product_state():
    x = square([[1, 2], [3, 4]], (2,))
    y = square([[5, 0], [1, 7]], (2,))
    xy = sparse(x.tensor(y))
    assert xy.partial_trace({0}).to_dense() == x.scale(y.trace())
    assert xy.partial_trace({1}).to_dense() == y.scale(x.trace())
    full = xy.partial_trace(set()).to_dense()
    assert full.rows == 1 and full.entries[0] == xy.trace()


def test_partial_trace_requires_factors():
    m = sparse(RMatrix.identity(4))
    with pytest.raises(ShapeError):
        m.partial_trace({0})
    with pytest.raises(ShapeError):
        sparse(RMatrix.identity(4, (2, 2))).partial_trace({2})


def _brute_partial_trace(entries: dict, dims: tuple, keep: tuple) -> dict:
    """(tr X)[i, j] = sum over t of X[(i, t), (j, t)], digit by digit."""
    drop = [k for k in range(len(dims)) if k not in keep]
    kdims = [dims[k] for k in keep]

    def index(digits, fs):
        out = 0
        for x, f in zip(digits, fs):
            out = out * f + x
        return out

    def merge(kept, traced):
        digits = [0] * len(dims)
        for k, x in zip(keep, kept):
            digits[k] = x
        for k, x in zip(drop, traced):
            digits[k] = x
        return index(digits, dims)

    kspace = list(product(*(range(f) for f in kdims)))
    tspace = list(product(*(range(dims[k]) for k in drop)))
    out = {}
    for i in kspace:
        for j in kspace:
            total = sum((entries.get((merge(i, t), merge(j, t)), F(0))
                         for t in tspace), F(0))
            if total:
                out[(index(i, kdims), index(j, kdims))] = total
    return out


@st.composite
def sparse_operators(draw):
    dims = tuple(draw(st.lists(st.integers(1, 3), min_size=1, max_size=3)))
    n = math.prod(dims)
    entries = draw(st.dictionaries(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
        fractions, max_size=2 * n))
    return SparseRMatrix(n, entries, dims)


@given(sparse_operators(), st.data())
@settings(max_examples=200, deadline=None, derandomize=True)
def test_sparse_partial_trace_matches_digit_sum(op, data):
    dims = op.factor_dims
    keep = tuple(sorted(data.draw(st.sets(st.integers(0, len(dims) - 1)))))
    got = op.partial_trace(keep)
    assert got.data == _brute_partial_trace(op.data, dims, keep)
    assert all(v != 0 for v in got.data.values())
    assert got.factor_dims == (tuple(dims[k] for k in keep) or (1,))
    assert got.trace() == op.trace()
    assert op.partial_trace(()).n == 1
    assert op.partial_trace(()).trace() == op.trace()
    assert op.partial_trace(range(len(dims))) == op


def test_sparse_partial_trace_of_factor_dims_232():
    x = square([[1, 0], [F(1, 2), -1]], (2,))
    y = square([[0, 2, 0], [0, 0, 0], [3, 0, F(-2, 3)]], (3,))
    z = square([[4, 1], [1, 4]], (2,))
    xyz = sparse(x.tensor(y).tensor(z))
    assert xyz.factor_dims == (2, 3, 2)
    assert xyz.partial_trace((1,)).to_dense() == y.scale(x.trace() * z.trace())
    assert xyz.partial_trace((0, 2)).to_dense() == \
        x.tensor(z).scale(y.trace())
    assert xyz.partial_trace((2, 0)) == xyz.partial_trace((0, 2))


def test_partial_transpose_product_and_involution():
    x = square([[1, 2], [3, 4]], (2,))
    y = square([[5, 6], [7, 8]], (2,))
    xy = x.tensor(y)
    assert xy.partial_transpose({1}) == x.tensor(y.transpose())
    assert xy.partial_transpose({1}).partial_transpose({1}) == xy
    ident = RMatrix.identity(4, (2, 2))
    assert ident.partial_transpose({0}) == ident


def test_partial_transpose_of_maximally_entangled_is_flip():
    d = 3
    phi = RMatrix.zeros(d * d, d * d, (d, d))
    for i in range(d):
        for j in range(d):
            phi.entries[(i * d + i) * d * d + (j * d + j)] = F(1, d)
    flip = RMatrix.zeros(d * d, d * d, (d, d))
    for i in range(d):
        for j in range(d):
            flip.entries[(j * d + i) * d * d + (i * d + j)] = F(1)
    assert phi.partial_transpose({1}) == flip.scale(F(1, d))


def test_trace_examples():
    assert RMatrix.identity(7).trace() == 7
    a = square([[1, 2], [3, 4]])
    b = square([[0, 1], [1, 0]])
    assert (a @ b).trace() == (b @ a).trace()
    assert a.trace_product(b) == (a @ b).trace()


def test_floats_never_enter():
    with pytest.raises(TypeError):
        RMatrix(1, 1, [0.5])
    with pytest.raises(TypeError):
        RMatrix.identity(2).scale(0.5)


def test_shape_errors():
    with pytest.raises(ShapeError):
        RMatrix(2, 2, [1, 2, 3])
    with pytest.raises(ShapeError):
        RMatrix(2, 2, [1, 2, 3, 4], factor_dims=(3,))
    with pytest.raises(ShapeError):
        square([[1, 2]]) @ square([[1, 2]])


@given(st.lists(fractions, min_size=4, max_size=4),
       st.lists(fractions, min_size=4, max_size=4))
def test_trace_commutes_under_product(ae, be):
    a = RMatrix(2, 2, ae)
    b = RMatrix(2, 2, be)
    assert (a @ b).trace() == (b @ a).trace()


@given(st.lists(fractions, min_size=16, max_size=16),
       st.lists(fractions, min_size=16, max_size=16))
@settings(max_examples=50)
def test_partial_transpose_trace_identity(ae, be):
    # tr(X^G Y) == tr(X Y^G) on a 2x2-factor space
    x = RMatrix(4, 4, ae, (2, 2))
    y = RMatrix(4, 4, be, (2, 2))
    for flip in ({0}, {1}, {0, 1}):
        assert (x.partial_transpose(flip).trace_product(y)
                == x.trace_product(y.partial_transpose(flip)))


@given(st.lists(fractions, min_size=4, max_size=4),
       st.lists(fractions, min_size=9, max_size=9))
@settings(max_examples=50)
def test_tensor_multiplicative_trace(ae, be):
    a = RMatrix(2, 2, ae, (2,))
    b = RMatrix(3, 3, be, (3,))
    assert a.tensor(b).trace() == a.trace() * b.trace()


def test_rationals_stay_canonical():
    # Fraction keeps gcd(num, den) = 1 and positive denominators throughout.
    a = square([[F(2, 4), F(6, 9)], [F(-10, 4), F(0)]])
    b = a @ a + a.scale(F(3, 5))
    for e in b.entries:
        from math import gcd
        assert e.denominator > 0
        assert gcd(e.numerator, e.denominator) == 1


def test_sparse_round_trip_and_product():
    sp = SparseRMatrix(3, {(0, 1): F(2), (2, 0): F(-1, 3)}, (3,))
    dense = sp.to_dense()
    assert dense[0, 1] == 2 and dense[2, 0] == F(-1, 3)
    other = SparseRMatrix(3, {(1, 2): F(5)})
    prod = sp @ other
    assert prod.to_dense() == dense @ other.to_dense()
    assert (sp + sp).to_dense() == dense.scale(2)
    assert sp.scale(0).to_dense().is_zero()
    assert sp.scale(0).is_zero() and not sp.is_zero()
    assert (sp + sp.scale(-1)).is_zero()
