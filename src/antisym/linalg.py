"""Exact rational matrices with tensor-factor structure.

Everything here is arbitrary-precision rational arithmetic (``fractions.Fraction``);
no floating point ever enters these types.

``SparseRMatrix`` is the one form of operators on the full tensor-power
space (C^d)^{x4}: permutation operators and their rational combinations,
with at most 24 d^4 nonzeros among d^8 entries, and their partial traces
and transposes.  Dense row-major ``RMatrix`` holds the small matrices:
operators restricted to the pair subspace (m^2 x m^2), reduced two-factor
states (d^2 x d^2) and the LP constraint data.
"""

from __future__ import annotations

from fractions import Fraction
from math import prod
from typing import Iterable, Sequence, Union

Rational = Fraction

RationalLike = Union[Fraction, int]

_ZERO = Fraction(0)
_ONE = Fraction(1)


class ShapeError(ValueError):
    """Raised on incompatible shapes or missing tensor-factor structure."""


def _frac(x: RationalLike) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected an exact rational, got {type(x).__name__}")


def _check_factor_dims(factor_dims, rows: int) -> tuple[int, ...] | None:
    if factor_dims is None:
        return None
    dims = tuple(int(f) for f in factor_dims)
    if any(f <= 0 for f in dims):
        raise ShapeError(f"factor dimensions must be positive, got {dims}")
    if prod(dims) != rows:
        raise ShapeError(f"product of factor dims {dims} != {rows} rows")
    return dims


def _digits(index: int, dims: Sequence[int]) -> tuple[int, ...]:
    out = []
    for f in reversed(dims):
        index, r = divmod(index, f)
        out.append(r)
    return tuple(reversed(out))


def _from_digits(digits: Sequence[int], dims: Sequence[int]) -> int:
    index = 0
    for x, f in zip(digits, dims):
        index = index * f + x
    return index


class RMatrix:
    """Dense matrix of rationals, optionally carrying tensor-factor dimensions.

    ``factor_dims`` records how the row (and, for square operators, column)
    index space factors as a tensor product; it is required by the partial
    transpose and is propagated through products and Kronecker products.
    """

    __slots__ = ("rows", "cols", "entries", "factor_dims")

    def __init__(self, rows: int, cols: int, entries: Sequence[RationalLike],
                 factor_dims: Iterable[int] | None = None):
        if rows <= 0 or cols <= 0:
            raise ShapeError("matrix dimensions must be positive")
        entries = [_frac(x) for x in entries]
        if len(entries) != rows * cols:
            raise ShapeError(f"{rows}x{cols} matrix needs {rows * cols} entries, "
                             f"got {len(entries)}")
        self.rows = rows
        self.cols = cols
        self.entries = entries
        self.factor_dims = _check_factor_dims(factor_dims, rows)

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_rows(cls, data: Sequence[Sequence[RationalLike]],
                  factor_dims: Iterable[int] | None = None) -> "RMatrix":
        rows = len(data)
        cols = len(data[0])
        if any(len(r) != cols for r in data):
            raise ShapeError("ragged row data")
        flat = [x for row in data for x in row]
        return cls(rows, cols, flat, factor_dims)

    @classmethod
    def zeros(cls, rows: int, cols: int,
              factor_dims: Iterable[int] | None = None) -> "RMatrix":
        return cls(rows, cols, [_ZERO] * (rows * cols), factor_dims)

    @classmethod
    def identity(cls, n: int, factor_dims: Iterable[int] | None = None) -> "RMatrix":
        m = cls.zeros(n, n, factor_dims)
        for i in range(n):
            m.entries[i * n + i] = _ONE
        return m

    # -- basic access ------------------------------------------------------

    def __getitem__(self, key: tuple[int, int]) -> Fraction:
        i, j = key
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError(key)
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> list[Fraction]:
        return self.entries[i * self.cols:(i + 1) * self.cols]

    def is_square(self) -> bool:
        return self.rows == self.cols

    def __eq__(self, other) -> bool:
        if not isinstance(other, RMatrix):
            return NotImplemented
        return (self.rows == other.rows and self.cols == other.cols
                and self.entries == other.entries)

    def __hash__(self):
        return hash((self.rows, self.cols, tuple(self.entries)))

    def __repr__(self) -> str:
        return f"RMatrix({self.rows}x{self.cols}, factor_dims={self.factor_dims})"

    # -- arithmetic --------------------------------------------------------

    def _same_shape(self, other: "RMatrix") -> None:
        if self.rows != other.rows or self.cols != other.cols:
            raise ShapeError(f"shape mismatch: {self.rows}x{self.cols} vs "
                             f"{other.rows}x{other.cols}")

    def __add__(self, other: "RMatrix") -> "RMatrix":
        self._same_shape(other)
        ent = [a + b for a, b in zip(self.entries, other.entries)]
        return RMatrix(self.rows, self.cols, ent, self._merged_dims(other))

    def __sub__(self, other: "RMatrix") -> "RMatrix":
        self._same_shape(other)
        ent = [a - b for a, b in zip(self.entries, other.entries)]
        return RMatrix(self.rows, self.cols, ent, self._merged_dims(other))

    def __neg__(self) -> "RMatrix":
        return RMatrix(self.rows, self.cols, [-a for a in self.entries],
                       self.factor_dims)

    def scale(self, r: RationalLike) -> "RMatrix":
        r = _frac(r)
        return RMatrix(self.rows, self.cols, [r * a for a in self.entries],
                       self.factor_dims)

    def _merged_dims(self, other: "RMatrix"):
        return self.factor_dims if self.factor_dims == other.factor_dims else None

    def __matmul__(self, other: "RMatrix") -> "RMatrix":
        if self.cols != other.rows:
            raise ShapeError(f"cannot multiply {self.rows}x{self.cols} by "
                             f"{other.rows}x{other.cols}")
        n, m, k = self.rows, other.cols, self.cols
        out = [_ZERO] * (n * m)
        oent = other.entries
        for i in range(n):
            base = i * k
            orow = i * m
            for t in range(k):
                a = self.entries[base + t]
                if a == 0:
                    continue
                bbase = t * m
                for j in range(m):
                    b = oent[bbase + j]
                    if b != 0:
                        out[orow + j] += a * b
        dims = self.factor_dims if (n == m and self.factor_dims == other.factor_dims) else None
        return RMatrix(n, m, out, dims)

    def transpose(self) -> "RMatrix":
        out = [_ZERO] * (self.rows * self.cols)
        for i in range(self.rows):
            for j in range(self.cols):
                out[j * self.rows + i] = self.entries[i * self.cols + j]
        dims = self.factor_dims if self.is_square() else None
        return RMatrix(self.cols, self.rows, out, dims)

    def trace(self) -> Fraction:
        if not self.is_square():
            raise ShapeError("trace of a non-square matrix")
        return sum((self.entries[i * self.cols + i] for i in range(self.rows)),
                   _ZERO)

    def trace_product(self, other: "RMatrix") -> Fraction:
        """tr(self @ other) without forming the product."""
        if self.cols != other.rows or self.rows != other.cols:
            raise ShapeError("trace_product needs compatible shapes")
        total = _ZERO
        for i in range(self.rows):
            base = i * self.cols
            for j in range(self.cols):
                a = self.entries[base + j]
                if a != 0:
                    total += a * other.entries[j * other.cols + i]
        return total

    def is_zero(self) -> bool:
        return all(a == 0 for a in self.entries)

    # -- tensor operations --------------------------------------------------

    def tensor(self, other: "RMatrix") -> "RMatrix":
        """Kronecker product; factor dimension lists concatenate."""
        rows = self.rows * other.rows
        cols = self.cols * other.cols
        out = [_ZERO] * (rows * cols)
        for i in range(self.rows):
            for j in range(self.cols):
                a = self.entries[i * self.cols + j]
                if a == 0:
                    continue
                for p in range(other.rows):
                    rbase = (i * other.rows + p) * cols + j * other.cols
                    obase = p * other.cols
                    for q in range(other.cols):
                        b = other.entries[obase + q]
                        if b != 0:
                            out[rbase + q] = a * b
        dims = None
        if self.factor_dims is not None and other.factor_dims is not None:
            dims = self.factor_dims + other.factor_dims
        return RMatrix(rows, cols, out, dims)

    def _require_factors(self) -> tuple[int, ...]:
        if not self.is_square():
            raise ShapeError("tensor operation on a non-square matrix")
        if self.factor_dims is None:
            raise ShapeError("operation requires factor_dims")
        return self.factor_dims

    def partial_transpose(self, flip: Iterable[int]) -> "RMatrix":
        """Transpose the factors in ``flip`` (0-based); an involution."""
        dims = self._require_factors()
        flip = sorted(set(flip))
        if any(k < 0 or k >= len(dims) for k in flip):
            raise ShapeError(f"factor indices {flip} out of range for {dims}")
        n = self.rows
        out = [_ZERO] * (n * n)
        row_digits = [_digits(i, dims) for i in range(n)]
        for r in range(n):
            rd = row_digits[r]
            base = r * n
            for c in range(n):
                a = self.entries[base + c]
                if a == 0:
                    continue
                cd = row_digits[c]
                nr = list(rd)
                nc = list(cd)
                for k in flip:
                    nr[k], nc[k] = cd[k], rd[k]
                out[_from_digits(nr, dims) * n + _from_digits(nc, dims)] = a
        return RMatrix(n, n, out, dims)


class SparseRMatrix:
    """Square sparse matrix of rationals, stored as {(row, col): value}.

    Intended for permutation operators on tensor-power spaces and rational
    combinations thereof.  No zero is ever stored.  Conversion to the dense
    form is explicit and meant for small results, such as a partial trace.
    """

    __slots__ = ("n", "data", "factor_dims")

    def __init__(self, n: int, data: dict[tuple[int, int], Fraction] | None = None,
                 factor_dims: Iterable[int] | None = None):
        if n <= 0:
            raise ShapeError("matrix dimension must be positive")
        self.n = n
        self.data = {} if data is None else {k: _frac(v) for k, v in data.items()
                                             if v != 0}
        self.factor_dims = _check_factor_dims(factor_dims, n)

    def add_entry(self, r: int, c: int, v: RationalLike) -> None:
        key = (r, c)
        new = self.data.get(key, _ZERO) + _frac(v)
        if new == 0:
            self.data.pop(key, None)
        else:
            self.data[key] = new

    def __add__(self, other: "SparseRMatrix") -> "SparseRMatrix":
        if self.n != other.n:
            raise ShapeError("shape mismatch")
        out = SparseRMatrix(self.n, dict(self.data), self.factor_dims)
        for (r, c), v in other.data.items():
            out.add_entry(r, c, v)
        return out

    def scale(self, r: RationalLike) -> "SparseRMatrix":
        r = _frac(r)
        if r == 0:
            return SparseRMatrix(self.n, None, self.factor_dims)
        return SparseRMatrix(self.n, {k: r * v for k, v in self.data.items()},
                             self.factor_dims)

    def __matmul__(self, other: "SparseRMatrix") -> "SparseRMatrix":
        if self.n != other.n:
            raise ShapeError("shape mismatch")
        rows: dict[int, list[tuple[int, Fraction]]] = {}
        for (r, c), v in other.data.items():
            rows.setdefault(r, []).append((c, v))
        out = SparseRMatrix(self.n, None, self.factor_dims)
        for (r, c), v in self.data.items():
            for (c2, v2) in rows.get(c, ()):
                out.add_entry(r, c2, v * v2)
        return out

    def trace(self) -> Fraction:
        return sum((v for (r, c), v in self.data.items() if r == c), _ZERO)

    def to_dense(self) -> RMatrix:
        m = RMatrix.zeros(self.n, self.n, self.factor_dims)
        for (r, c), v in self.data.items():
            m.entries[r * self.n + c] = v
        return m

    def is_zero(self) -> bool:
        return not self.data

    def _require_factors(self) -> tuple[int, ...]:
        if self.factor_dims is None:
            raise ShapeError("operation requires factor_dims")
        return self.factor_dims

    def partial_trace(self, keep: Iterable[int]) -> "SparseRMatrix":
        """Trace out all tensor factors not in ``keep`` (0-based indices).

        Only stored entries are visited: an entry contributes when its row
        and column agree on every traced factor.
        """
        dims = self._require_factors()
        keep = sorted(set(keep))
        if any(k < 0 or k >= len(dims) for k in keep):
            raise ShapeError(f"factor indices {keep} out of range for {dims}")
        drop = [k for k in range(len(dims)) if k not in keep]
        kdims = tuple(dims[k] for k in keep)
        split: dict[int, tuple[tuple[int, ...], int]] = {}

        def parts(index: int) -> tuple[tuple[int, ...], int]:
            got = split.get(index)
            if got is None:
                digits = _digits(index, dims)
                got = (tuple(digits[k] for k in drop),
                       _from_digits([digits[k] for k in keep], kdims))
                split[index] = got
            return got

        out: dict[tuple[int, int], Fraction] = {}
        for (r, c), v in self.data.items():
            rdrop, rr = parts(r)
            cdrop, cc = parts(c)
            if rdrop == cdrop:
                out[(rr, cc)] = out.get((rr, cc), _ZERO) + v
        return SparseRMatrix(prod(kdims), out, kdims or (1,))

    def partial_transpose(self, flip: Iterable[int]) -> "SparseRMatrix":
        dims = self._require_factors()
        flip = sorted(set(flip))
        out = SparseRMatrix(self.n, None, dims)
        for (r, c), v in self.data.items():
            rd = list(_digits(r, dims))
            cd = list(_digits(c, dims))
            for k in flip:
                rd[k], cd[k] = cd[k], rd[k]
            out.add_entry(_from_digits(rd, dims), _from_digits(cd, dims), v)
        return out

    def __eq__(self, other) -> bool:
        if not isinstance(other, SparseRMatrix):
            return NotImplemented
        return self.n == other.n and self.data == other.data

    def __repr__(self) -> str:
        return f"SparseRMatrix({self.n}x{self.n}, nnz={len(self.data)})"
