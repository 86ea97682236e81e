"""Exact matrix layer: shapes, tensor ops, trace identities."""

from fractions import Fraction as F
from itertools import product
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from antisym.linalg import ShapeError, SparseRMatrix
from fraction_dicts import entries, matrix
from full_space import partial_trace

fractions = st.fractions(min_value=-4, max_value=4, max_denominator=6)


def square(rows):
    return matrix(len(rows), {(i, j): v for i, row in enumerate(rows)
                              for j, v in enumerate(row)})


def flat(n, entries):
    return square([entries[i * n:(i + 1) * n] for i in range(n)])


def kron(a: SparseRMatrix, b: SparseRMatrix) -> SparseRMatrix:
    """Kronecker product."""
    return matrix(a.n * b.n, {
        (i * b.n + p, j * b.n + q): x * y
        for (i, j), x in entries(a).items()
        for (p, q), y in entries(b).items()})


def test_identity_tensor_identity():
    out = kron(SparseRMatrix.identity(2), SparseRMatrix.identity(3))
    assert out == SparseRMatrix.identity(6)


def test_tensor_square_of_constraint_block():
    # Kronecker square of [[1,1],[-2,1]]
    t = square([[1, 1], [-2, 1]])
    tt = kron(t, t)
    assert tt == square([[1, 1, 1, 1],
                         [-2, 1, -2, 1],
                         [-2, -2, 1, 1],
                         [4, -2, -2, 1]])


def test_tensor_scalar_case():
    c = square([[F(3, 7)]])
    m = square([[1, 2], [3, 4]])
    assert kron(c, m) == m.scale(F(3, 7))


def test_tensor_associative():
    a = square([[1, 2], [3, 4]])
    b = square([[0, 1], [-1, 2]])
    c = square([[5]])
    assert kron(kron(a, b), c) == kron(a, kron(b, c))


def test_partial_trace_product_state():
    x = square([[1, 2], [3, 4]])
    y = square([[5, 0], [1, 7]])
    xy = kron(x, y)
    assert partial_trace(xy, (2, 2), {0}) == x.scale(y.trace())
    assert partial_trace(xy, (2, 2), {1}) == y.scale(x.trace())
    full = partial_trace(xy, (2, 2), set())
    assert full.n == 1 and full.trace() == xy.trace()


# each bad split of a 4 x 4 matrix: the partial trace takes factor
# dimensions and kept factors, the partial transpose the dimension q of its
# second factor, which must be positive and divide 4
BAD_SPLITS = {
    "product-partial_trace": (partial_trace, ((2, 3), (0,)), "product"),
    "product-partial_transpose": (SparseRMatrix.partial_transpose, (3,),
                                  "divide"),
    "zero-dim-partial_trace": (partial_trace, ((4, 0), (0,)), "positive"),
    "zero-dim-partial_transpose": (SparseRMatrix.partial_transpose, (0,),
                                   "positive"),
    "negative-partial_transpose": (SparseRMatrix.partial_transpose, (-2,),
                                   "positive"),
    "index-partial_trace": (partial_trace, ((2, 2), (2,)), "out of range"),
}


@pytest.mark.parametrize("case", sorted(BAD_SPLITS))
def test_partial_operations_reject_bad_dims(case):
    operation, args, message = BAD_SPLITS[case]
    with pytest.raises(ShapeError, match=message):
        operation(SparseRMatrix.identity(4), *args)


def _index(digits, dims) -> int:
    out = 0
    for x, f in zip(digits, dims):
        out = out * f + x
    return out


def _brute_partial_trace(entries: dict, dims: tuple, keep: tuple) -> dict:
    """(tr X)[i, j] = sum over t of X[(i, t), (j, t)], digit by digit."""
    drop = [k for k in range(len(dims)) if k not in keep]
    kdims = [dims[k] for k in keep]

    def merge(kept, traced):
        digits = [0] * len(dims)
        for k, x in zip(keep, kept):
            digits[k] = x
        for k, x in zip(drop, traced):
            digits[k] = x
        return _index(digits, dims)

    kspace = list(product(*(range(f) for f in kdims)))
    tspace = list(product(*(range(dims[k]) for k in drop)))
    out = {}
    for i in kspace:
        for j in kspace:
            total = sum((entries.get((merge(i, t), merge(j, t)), F(0))
                         for t in tspace), F(0))
            if total:
                out[(_index(i, kdims), _index(j, kdims))] = total
    return out


def _brute_partial_transpose(entries: dict, dims: tuple, flip: tuple) -> dict:
    """X^G[i, j] = X[i', j'], where i', j' swap the digits of i, j in flip."""
    space = list(product(*(range(f) for f in dims)))
    out = {}
    for i in space:
        for j in space:
            i2 = [j[k] if k in flip else i[k] for k in range(len(dims))]
            j2 = [i[k] if k in flip else j[k] for k in range(len(dims))]
            v = entries.get((_index(i2, dims), _index(j2, dims)), F(0))
            if v:
                out[(_index(i, dims), _index(j, dims))] = v
    return out


def _brute_matmul(a: dict, b: dict, n: int) -> dict:
    """(AB)[i, j] = sum over k of A[i, k] B[k, j], over every index."""
    out = {}
    for i in range(n):
        for j in range(n):
            total = sum((a.get((i, k), F(0)) * b.get((k, j), F(0))
                         for k in range(n)), F(0))
            if total:
                out[(i, j)] = total
    return out


def _brute_trace_product(a: dict, b: dict, n: int) -> F:
    return sum((a.get((i, j), F(0)) * b.get((j, i), F(0))
                for i in range(n) for j in range(n)), F(0))


def _brute_difference(a: dict, b: dict) -> dict:
    out = {k: a.get(k, F(0)) - b.get(k, F(0)) for k in a.keys() | b.keys()}
    return {k: v for k, v in out.items() if v}


def entry_dicts(n: int):
    return st.dictionaries(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
        fractions, max_size=2 * n)


@st.composite
def sparse_operators(draw):
    """Factor dimensions and a matrix on their tensor product."""
    dims = tuple(draw(st.lists(st.integers(1, 3), min_size=1, max_size=3)))
    n = math.prod(dims)
    return dims, matrix(n, draw(entry_dicts(n)))


@given(sparse_operators(), st.data())
@settings(max_examples=200, deadline=None, derandomize=True)
def test_sparse_partial_trace_matches_digit_sum(operator, data):
    dims, op = operator
    keep = tuple(sorted(data.draw(st.sets(st.integers(0, len(dims) - 1)))))
    got = partial_trace(op, dims, keep)
    assert entries(got) == _brute_partial_trace(entries(op), dims, keep)
    assert all(v != 0 for v in got.nums.values())
    assert got.n == math.prod(dims[k] for k in keep)
    assert got.trace() == op.trace()
    assert partial_trace(op, dims, ()).n == 1
    assert partial_trace(op, dims, ()).trace() == op.trace()
    assert partial_trace(op, dims, range(len(dims))) == op


def test_sparse_partial_trace_of_dims_232():
    x = square([[1, 0], [F(1, 2), -1]])
    y = square([[0, 2, 0], [0, 0, 0], [3, 0, F(-2, 3)]])
    z = square([[4, 1], [1, 4]])
    xyz = kron(kron(x, y), z)
    dims = (2, 3, 2)
    assert partial_trace(xyz, dims, (1,)) == y.scale(x.trace() * z.trace())
    assert partial_trace(xyz, dims, (0, 2)) == kron(x, z).scale(y.trace())
    assert partial_trace(xyz, dims, (2, 0)) == partial_trace(xyz, dims, (0, 2))


def test_partial_transpose_product_and_involution():
    x = square([[1, 2], [3, 4]])
    y = square([[5, 6], [7, 8]])
    xy = kron(x, y)
    y_transposed = square([[5, 7], [6, 8]])
    assert xy.partial_transpose(2) == kron(x, y_transposed)
    assert xy.partial_transpose(2).partial_transpose(2) == xy
    # a one-dimensional second factor leaves the matrix, the whole space
    # as second factor transposes it
    assert xy.partial_transpose(1) == xy
    assert xy.partial_transpose(4) == kron(square([[1, 3], [2, 4]]),
                                           y_transposed)
    ident = SparseRMatrix.identity(4)
    assert ident.partial_transpose(2) == ident


def test_partial_transpose_of_maximally_entangled_is_flip():
    d = 3
    phi = matrix(d * d, {(i * d + i, j * d + j): F(1, d)
                         for i in range(d) for j in range(d)})
    flip = matrix(d * d, {(j * d + i, i * d + j): F(1)
                          for i in range(d) for j in range(d)})
    assert phi.partial_transpose(d) == flip.scale(F(1, d))


def test_trace_examples():
    assert SparseRMatrix.identity(7).trace() == 7
    a = square([[1, 2], [3, 4]])
    b = square([[0, 1], [1, 0]])
    assert (a @ b).trace() == (b @ a).trace()
    assert a.trace_product(b) == (a @ b).trace()


def test_floats_never_enter():
    with pytest.raises(TypeError):
        SparseRMatrix.identity(2).scale(0.5)


def test_shape_errors():
    with pytest.raises(ShapeError):
        SparseRMatrix(0, {})
    with pytest.raises(ShapeError):
        square([[1, 2], [3, 4]]) @ square([[1]])


@given(st.lists(fractions, min_size=4, max_size=4),
       st.lists(fractions, min_size=4, max_size=4))
def test_trace_commutes_under_product(ae, be):
    a = flat(2, ae)
    b = flat(2, be)
    assert (a @ b).trace() == (b @ a).trace()


@given(st.lists(fractions, min_size=16, max_size=16),
       st.lists(fractions, min_size=16, max_size=16))
@settings(max_examples=50)
def test_partial_transpose_trace_identity(ae, be):
    # tr(X^G Y) == tr(X Y^G) for every split of a 4-dimensional space
    x = flat(4, ae)
    y = flat(4, be)
    for q in (1, 2, 4):
        assert (x.partial_transpose(q).trace_product(y)
                == x.trace_product(y.partial_transpose(q)))


@given(st.lists(fractions, min_size=4, max_size=4),
       st.lists(fractions, min_size=9, max_size=9))
@settings(max_examples=50)
def test_tensor_multiplicative_trace(ae, be):
    a = flat(2, ae)
    b = flat(3, be)
    assert kron(a, b).trace() == a.trace() * b.trace()


def test_rationals_stay_canonical():
    # Fraction keeps gcd(num, den) = 1 and positive denominators throughout.
    a = square([[F(2, 4), F(6, 9)], [F(-10, 4), F(0)]])
    b = a @ a + a.scale(F(3, 5))
    for e in entries(b).values():
        from math import gcd
        assert e.denominator > 0
        assert gcd(e.numerator, e.denominator) == 1


def test_sparse_round_trip_and_product():
    sp = matrix(3, {(0, 1): F(2), (2, 0): F(-1, 3)})
    assert entries(sp) == {(0, 1): 2, (2, 0): F(-1, 3)}
    other = matrix(3, {(1, 2): F(5)})
    prod = sp @ other
    assert entries(prod) == _brute_matmul(entries(sp), entries(other), 3)
    assert entries(sp + sp) == {k: 2 * v for k, v in entries(sp).items()}
    assert entries(sp.scale(0)) == {}
    assert sp.scale(0).is_zero() and not sp.is_zero()
    assert (sp + sp.scale(-1)).is_zero()


def second_factors(n: int):
    """The dimensions q of the second factor of a split of n."""
    return st.sampled_from([q for q in range(1, n + 1) if n % q == 0])


@given(sparse_operators(), st.data())
@settings(max_examples=100, deadline=None, derandomize=True)
def test_sparse_arithmetic_matches_entry_sums(operator, data):
    _, x = operator
    n = x.n
    y = matrix(n, data.draw(entry_dicts(n)))
    q = data.draw(second_factors(n))
    xy = x @ y
    difference = x - y
    x_flipped = x.partial_transpose(q)
    xs, ys = entries(x), entries(y)
    assert entries(xy) == _brute_matmul(xs, ys, n)
    assert x.trace_product(y) == _brute_trace_product(xs, ys, n)
    assert x.trace_product(y) == xy.trace()
    assert entries(difference) == _brute_difference(xs, ys)
    assert (entries(x_flipped)
            == _brute_partial_transpose(xs, (n // q, q), (1,)))
    assert x_flipped.partial_transpose(q) == x
    assert (x_flipped.trace_product(y)
            == x.trace_product(y.partial_transpose(q)))
    for out in (xy, difference, x_flipped):
        assert all(v != 0 for v in out.nums.values())
    for bad in (0, -q, n + 1):
        with pytest.raises(ShapeError):
            x.partial_transpose(bad)


def _assert_canonical(m: SparseRMatrix) -> None:
    assert m.den >= 1
    assert math.gcd(m.den, *m.nums.values()) == 1
    assert all(type(v) is int and v != 0 for v in m.nums.values())


@given(sparse_operators(), st.data())
@settings(max_examples=100, deadline=None, derandomize=True)
def test_storage_is_canonical_int_numerators(operator, data):
    dims, x = operator
    n = x.n
    raw = data.draw(entry_dicts(n))
    y = matrix(n, raw)
    r = data.draw(fractions)
    keep = tuple(sorted(data.draw(st.sets(st.integers(0, len(dims) - 1)))))
    q = data.draw(second_factors(n))
    for out in (x, y, x + y, x - y, x - x, x @ y, x.scale(r),
                x.scale(F(2, 4)), partial_trace(x, dims, keep),
                x.partial_transpose(q)):
        _assert_canonical(out)
    # equal as rationals, built by different routes
    assert x.scale(F(2, 4)) == x.scale(F(1, 2)) == x.scale(2).scale(F(1, 4))
    assert (x + y) - y == x
    if r:
        assert x.scale(r).scale(1 / r) == x
    k = data.draw(st.integers(1, 12))
    spread = {key: k * v for key, v in x.nums.items()}
    spread.update((key, 0) for key in raw if key not in spread)
    assert SparseRMatrix(n, spread, k * x.den) == x
    zero = x - x
    assert zero.is_zero() and zero.den == 1
    assert zero == SparseRMatrix(n, {}) == x.scale(0)
    # traces and products against entry-dict references
    values = {key: v for key, v in raw.items() if v}
    xs = entries(x)
    assert entries(y) == values
    assert entries(x.scale(r)) == {key: r * v for key, v in xs.items() if r}
    assert entries(x + y) == _brute_difference(xs, entries(y.scale(-1)))
    assert y.trace() == sum((v for (i, j), v in values.items() if i == j),
                            F(0))
    assert x.trace_product(y) == _brute_trace_product(xs, values, n)
    assert entries(x @ y) == _brute_matmul(xs, values, n)
