"""``SparseRMatrix`` to and from ``{(row, col): Fraction}`` dicts, for tests
that state matrices entry by entry."""

from fractions import Fraction
from math import lcm

from antisym.linalg import SparseRMatrix


def matrix(n, entries) -> SparseRMatrix:
    """The n x n matrix with the given int or Fraction entries."""
    values = [Fraction(v) for v in entries.values()]
    den = lcm(*(v.denominator for v in values))
    return SparseRMatrix(n, {k: int(v * den) for k, v in zip(entries, values)},
                         den)


def entries(m: SparseRMatrix) -> dict:
    """The nonzero entries of ``m`` as Fractions."""
    return {k: Fraction(v, m.den) for k, v in m.nums.items()}
