"""Exact rational matrices with tensor-factor structure.

Everything here is arbitrary-precision rational arithmetic (``fractions.Fraction``);
no floating point ever enters these types.

``SparseRMatrix`` is the one exact matrix type.  It holds the operators on
the full tensor-power space (C^d)^{x4}: permutation operators and their
rational combinations, with at most 24 d^4 nonzeros among d^8 entries, and
their partial traces and transposes.  It also holds the small ones: operators
restricted to the pair subspace (m^2 x m^2, about 1% nonzero at d = 7) and
reduced two-factor states (d^2 x d^2).
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


class SparseRMatrix:
    """Square sparse matrix of rationals, stored as {(row, col): value}.

    Intended for permutation operators on tensor-power spaces, rational
    combinations thereof and their restrictions and reductions.  No zero is
    ever stored: every result passes through the constructor, which drops
    them.
    """

    __slots__ = ("n", "data", "factor_dims")

    def __init__(self, n: int, data: dict[tuple[int, int], Fraction] | None = None,
                 factor_dims: Iterable[int] | None = None):
        if n <= 0:
            raise ShapeError("matrix dimension must be positive")
        self.n = n
        self.data = {}
        for k, v in (data or {}).items():
            r, c = k
            if not (0 <= r < n and 0 <= c < n):
                raise ShapeError(f"entry {k} outside a {n}x{n} matrix")
            v = _frac(v)
            if v:
                self.data[k] = v     # the caller's key: no second tuple
        self.factor_dims = _check_factor_dims(factor_dims, n)

    @classmethod
    def identity(cls, n: int, factor_dims: Iterable[int] | None = None
                 ) -> "SparseRMatrix":
        return cls(n, dict.fromkeys(((i, i) for i in range(n)), _ONE),
                   factor_dims)

    def _same_shape(self, other: "SparseRMatrix") -> None:
        if self.n != other.n:
            raise ShapeError(f"shape mismatch: {self.n}x{self.n} vs "
                             f"{other.n}x{other.n}")

    def __add__(self, other: "SparseRMatrix") -> "SparseRMatrix":
        self._same_shape(other)
        out = dict(self.data)
        for k, v in other.data.items():
            out[k] = out.get(k, _ZERO) + v
        return SparseRMatrix(self.n, out, self.factor_dims)

    def __sub__(self, other: "SparseRMatrix") -> "SparseRMatrix":
        return self + other.scale(-1)

    def scale(self, r: RationalLike) -> "SparseRMatrix":
        r = _frac(r)
        return SparseRMatrix(self.n, {k: r * v for k, v in self.data.items()},
                             self.factor_dims)

    def __matmul__(self, other: "SparseRMatrix") -> "SparseRMatrix":
        self._same_shape(other)
        rows: dict[int, list[tuple[int, Fraction]]] = {}
        for (r, c), v in other.data.items():
            rows.setdefault(r, []).append((c, v))
        out: dict[tuple[int, int], Fraction] = {}
        for (r, c), v in self.data.items():
            for c2, v2 in rows.get(c, ()):
                key = (r, c2)
                out[key] = out.get(key, _ZERO) + v * v2
        return SparseRMatrix(self.n, out, self.factor_dims)

    def trace(self) -> Fraction:
        return sum((v for (r, c), v in self.data.items() if r == c), _ZERO)

    def trace_product(self, other: "SparseRMatrix") -> Fraction:
        """tr(self @ other) without forming the product."""
        self._same_shape(other)
        get = other.data.get
        total = _ZERO
        for (r, c), v in self.data.items():
            w = get((c, r))
            if w is not None:
                total += v * w
        return total

    def is_zero(self) -> bool:
        return not self.data

    def _factors(self, indices: Iterable[int]
                 ) -> tuple[tuple[int, ...], list[int]]:
        """The factor dimensions and the sorted, checked factor ``indices``."""
        if self.factor_dims is None:
            raise ShapeError("operation requires factor_dims")
        dims = self.factor_dims
        indices = sorted(set(indices))
        if any(k < 0 or k >= len(dims) for k in indices):
            raise ShapeError(f"factor indices {indices} out of range for {dims}")
        return dims, indices

    def partial_trace(self, keep: Iterable[int]) -> "SparseRMatrix":
        """Trace out all tensor factors not in ``keep`` (0-based indices).

        Only stored entries are visited: an entry contributes when its row
        and column agree on every traced factor.
        """
        dims, keep = self._factors(keep)
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
        """Transpose the factors in ``flip`` (0-based); an involution."""
        dims, flip = self._factors(flip)
        out = {}
        for (r, c), v in self.data.items():
            rd = list(_digits(r, dims))
            cd = list(_digits(c, dims))
            for k in flip:
                rd[k], cd[k] = cd[k], rd[k]
            out[(_from_digits(rd, dims), _from_digits(cd, dims))] = v
        return SparseRMatrix(self.n, out, dims)

    def __eq__(self, other) -> bool:
        if not isinstance(other, SparseRMatrix):
            return NotImplemented
        return self.n == other.n and self.data == other.data

    def __repr__(self) -> str:
        return f"SparseRMatrix({self.n}x{self.n}, nnz={len(self.data)})"
