"""Exact rational matrices and their tensor-factor operations.

Everything here is exact rational arithmetic: a matrix stores Python int
numerators over one int denominator, and scalars such as traces come back as
``fractions.Fraction``.  No floating point ever enters these types.

``SparseRMatrix`` is the one exact matrix type.  It holds the operators on
the pair subspace wedge2 x wedge2 of (C^d)^{x4} (m^2 x m^2, about 1% nonzero
at d = 7) and the reduced two-factor states (d^2 x d^2).  A matrix is only
its dimension, numerators and denominator: the partial transpose takes the
dimension of the transposed second factor from its caller, who knows the
split.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Union

Rational = Fraction

RationalLike = Union[Fraction, int]


class ShapeError(ValueError):
    """Raised on incompatible shapes or tensor-factor dimensions."""


def _frac(x: RationalLike) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected an exact rational, got {type(x).__name__}")


def _lowest_terms(values: list, den: int = 1) -> tuple[list[int], int]:
    """``values / den``, for int or Fraction values and a positive int
    ``den``, as int numerators over one denominator in lowest terms."""
    scale = lcm(*(v.denominator for v in values))
    nums = [v.numerator * (scale // v.denominator) for v in values]
    g = gcd(den * scale, *nums)
    return [v // g for v in nums], den * scale // g


class SparseRMatrix:
    """Square sparse matrix of rationals, stored as int numerators
    ``{(row, col): int}`` over one positive int denominator ``den``.

    Intended for permutation operators on tensor-power spaces, rational
    combinations thereof and their restrictions and reductions.  The storage
    is canonical: no zero numerator is stored and ``gcd(den, *nums) == 1``
    (the zero matrix has ``den == 1``), so two matrices are equal exactly when
    their dimensions, denominators and numerator dicts are.  The constructor
    establishes that form with one ``math.gcd``.
    """

    __slots__ = ("n", "nums", "den")

    def __init__(self, n: int, nums: dict[tuple[int, int], int], den: int = 1):
        """The matrix ``nums / den`` from int numerators, zeros allowed, over
        a positive int denominator.  Keys and values are trusted, not checked.
        The matrix may keep ``nums`` as its storage: do not change it later."""
        if n <= 0:
            raise ShapeError("matrix dimension must be positive")
        g = gcd(den, *nums.values())      # a zero numerator does not move it
        if g != 1 or not all(nums.values()):
            nums = {k: v // g for k, v in nums.items() if v}
            den //= g
        self.n = n
        self.nums = nums
        self.den = den

    @classmethod
    def identity(cls, n: int) -> "SparseRMatrix":
        return cls(n, dict.fromkeys(((i, i) for i in range(n)), 1))

    def _same_shape(self, other: "SparseRMatrix") -> None:
        if self.n != other.n:
            raise ShapeError(f"shape mismatch: {self.n}x{self.n} vs "
                             f"{other.n}x{other.n}")

    def __add__(self, other: "SparseRMatrix") -> "SparseRMatrix":
        self._same_shape(other)
        den = lcm(self.den, other.den)
        f, g = den // self.den, den // other.den
        out = (dict(self.nums) if f == 1
               else {k: f * v for k, v in self.nums.items()})
        for k, v in other.nums.items():
            out[k] = out.get(k, 0) + g * v
        return SparseRMatrix(self.n, out, den)

    def __sub__(self, other: "SparseRMatrix") -> "SparseRMatrix":
        return self + other.scale(-1)

    def scale(self, r: RationalLike) -> "SparseRMatrix":
        r = _frac(r)
        num = r.numerator
        return SparseRMatrix(
            self.n, {k: num * v for k, v in self.nums.items()},
            self.den * r.denominator)

    def __matmul__(self, other: "SparseRMatrix") -> "SparseRMatrix":
        self._same_shape(other)
        rows: dict[int, list[tuple[int, int]]] = {}
        for (r, c), v in other.nums.items():
            rows.setdefault(r, []).append((c, v))
        out: dict[tuple[int, int], int] = {}
        for (r, c), v in self.nums.items():
            for c2, v2 in rows.get(c, ()):
                key = (r, c2)
                out[key] = out.get(key, 0) + v * v2
        return SparseRMatrix(self.n, out, self.den * other.den)

    def trace(self) -> Fraction:
        return Fraction(sum(v for (r, c), v in self.nums.items() if r == c),
                        self.den)

    def trace_product(self, other: "SparseRMatrix") -> Fraction:
        """tr(self @ other) without forming the product."""
        self._same_shape(other)
        get = other.nums.get
        total = 0
        for (r, c), v in self.nums.items():
            w = get((c, r))
            if w is not None:
                total += v * w
        return Fraction(total, self.den * other.den)

    def is_zero(self) -> bool:
        return not self.nums

    def partial_transpose(self, q: int) -> "SparseRMatrix":
        """Transpose the second factor of the split into an (n/q)- and a
        q-dimensional factor; an involution."""
        if q <= 0 or self.n % q:
            raise ShapeError(f"second factor dimension {q} must be positive "
                             f"and divide {self.n}")
        out = {}
        for (r, c), v in self.nums.items():
            r2, c2 = r % q, c % q
            out[r - r2 + c2, c - c2 + r2] = v
        return SparseRMatrix(self.n, out, self.den)

    def __eq__(self, other) -> bool:
        if not isinstance(other, SparseRMatrix):
            return NotImplemented
        return (self.n == other.n and self.den == other.den
                and self.nums == other.nums)

    def __repr__(self) -> str:
        return f"SparseRMatrix({self.n}x{self.n}, nnz={len(self.nums)})"
