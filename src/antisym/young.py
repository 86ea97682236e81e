"""Partitions, Schur polynomials, tableau counts and Weyl dimensions.

Shapes are tuples of weakly decreasing non-negative integers (trailing zeros
are stripped on normalisation).  Schur polynomials are evaluated by the
branching rule over horizontal strips; the number of semistandard tableaux
(rows weakly increasing, columns strictly increasing, entries in
1..max_entry) is the Schur polynomial at max_entry ones.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from typing import Iterator, NamedTuple, Sequence

from .linalg import Rational, RationalLike, _frac, _lowest_terms

Partition = tuple[int, ...]


def normalize_partition(parts: Sequence[int]) -> Partition:
    parts = tuple(int(p) for p in parts)
    if any(p < 0 for p in parts):
        raise ValueError(f"negative part in {parts}")
    if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
        raise ValueError(f"parts must weakly decrease: {parts}")
    while parts and parts[-1] == 0:
        parts = parts[:-1]
    return parts


def weyl_dimension(shape: Sequence[int], d: int) -> int:
    """Dimension of the unitary-group irrep with highest weight ``shape``.

    The product formula prod_{i<j<d} (l_i - l_j + j - i) / (j - i) with the
    shape zero-padded to length d.  Shapes with more than d nonzero rows give
    0.  For each of the r nonzero rows i (counted from 0) the factors against
    the zero rows telescope to prod_{t=1}^{l_i} (d - 1 - i + t) / (r - 1 - i + t),
    so the cost grows with the number of boxes and rows, not with d.
    """
    if d < 1:
        raise ValueError("d must be positive")
    lam = normalize_partition(shape)
    r = len(lam)
    if r > d:
        return 0
    num = den = 1
    for i in range(r):
        for j in range(i + 1, r):
            num *= lam[i] - lam[j] + j - i
            den *= j - i
        for t in range(1, lam[i] + 1):
            num *= d - 1 - i + t
            den *= r - 1 - i + t
    q, rem = divmod(num, den)
    if rem != 0:
        raise ArithmeticError("Weyl product is not an integer")
    return q


def ssyt_count(shape: Partition, max_entry: int) -> int:
    """Number of semistandard tableaux of ``shape`` with entries in
    1..max_entry: the Schur polynomial at max_entry ones."""
    return int(schur_eval(shape, [1] * max_entry))


@lru_cache(maxsize=None)
def _horizontal_strip_predecessors(lam: Partition) -> tuple[Partition, ...]:
    """All mu <= lam such that lam/mu is a horizontal strip (possibly empty)."""
    def rec(i: int, prefix: tuple[int, ...]) -> Iterator[Partition]:
        if i == len(lam):
            yield normalize_partition(prefix)
            return
        lo = lam[i + 1] if i + 1 < len(lam) else 0
        hi = lam[i] if i == 0 else min(lam[i], prefix[i - 1])
        # rows of mu interleave: lam[i+1] <= mu[i] <= lam[i]
        for m in range(lo, hi + 1):
            yield from rec(i + 1, prefix + (m,))
    return tuple(rec(0, ()))


def schur_eval(shape: Sequence[int], values: Sequence[RationalLike]) -> Rational:
    """Schur polynomial s_shape evaluated at the given point.

    Branching rule (Macdonald, Symmetric Functions and Hall Polynomials,
    I.(5.11)): s_lam(x_1..x_k) is the sum over the horizontal strips lam/mu
    of x_k^|lam/mu| s_mu(x_1..x_{k-1}).  Each (shape, k) is computed once,
    one variable at a time over the shapes contained in ``shape``; in no
    variables only the empty shape gives 1, so a shape with more rows than
    variables gives 0.

    The rule runs in ints: s_lam is homogeneous of degree |lam|, so
    s_lam(x) = s_lam(D x) / D^|lam| for D a common denominator of the
    values, and D x is an integer point.
    """
    lam = normalize_partition(shape)
    shapes = {lam}
    stack = [lam]
    while stack:
        for mu in _horizontal_strip_predecessors(stack.pop()):
            if mu not in shapes:
                shapes.add(mu)
                stack.append(mu)
    strips = {mu: [(sum(mu) - sum(nu), nu)
                   for nu in _horizontal_strip_predecessors(mu)]
              for mu in shapes}
    nums, den = _lowest_terms([_frac(v) for v in values])
    size = sum(lam)
    level = {mu: 0 if mu else 1 for mu in shapes}
    for xk in nums:
        powers = [xk ** k for k in range(size + 1)]
        level = {mu: sum(powers[k] * level[nu] for k, nu in strip)
                 for mu, strip in strips.items()}
    return Fraction(level[lam], den ** size)


class PlethysmCheck(NamedTuple):
    lhs: Rational
    rhs: Rational
    equal: bool


def plethysm_check(kind: str, d: int, values: Sequence[RationalLike]) -> PlethysmCheck:
    """Character identity for the symmetric/alternating square of the 2-form rep.

    The left side evaluates the degree-2 Schur polynomial (complete or
    alternating) at the d(d-1)/2 pairwise products x_k x_l, k<l; the right side
    evaluates the matching sum of degree-4 Schur polynomials at x directly:

        sym2:  s_(2) at (x_k x_l)  ==  s_(2,2)(x) + s_(1,1,1,1)(x)
        alt2:  s_(1,1) at (x_k x_l)  ==  s_(2,1,1)(x)
    """
    if d < 3:
        raise ValueError("plethysm check requires d >= 3")
    if kind not in ("sym2", "alt2"):
        raise ValueError(f"kind must be 'sym2' or 'alt2', got {kind!r}")
    x = [_frac(v) for v in values]
    if len(x) != d:
        raise ValueError(f"need {d} values, got {len(x)}")
    z = [x[k] * x[l] for k, l in combinations(range(d), 2)]
    if kind == "sym2":
        lhs = schur_eval((2,), z)
        rhs = schur_eval((2, 2), x) + schur_eval((1, 1, 1, 1), x)
    else:
        lhs = schur_eval((1, 1), z)
        rhs = schur_eval((2, 1, 1), x)
    return PlethysmCheck(lhs, rhs, lhs == rhs)


class PlethysmDims(NamedTuple):
    sym2_total: int      # dim of the symmetric square of the 2-form rep
    dim_1111: int        # dim of the (1,1,1,1) component
    dim_22: int          # dim of the (2,2) component
    dim_211: int         # dim of the (2,1,1) component (= alternating square)


def plethysm_dimensions(d: int) -> PlethysmDims:
    """Closed-form dimensions of the two degree-4 plethysm components.

    Cross-checks every closed form against the Weyl dimension formula, the
    additivity sym2_total = dim_1111 + dim_22, and the binomial identities for
    squares of an m = d(d-1)/2 dimensional space.
    """
    if d < 3:
        raise ValueError("requires d >= 3")
    sym2_total = d * (d - 1) * (d * d - d + 2) // 8
    dim_1111 = d * (d - 1) * (d - 2) * (d - 3) // 24
    dim_22 = (d + 1) * d * d * (d - 1) // 12
    dim_211 = (d + 1) * d * (d - 1) * (d - 2) // 8

    if dim_1111 != weyl_dimension((1, 1, 1, 1), d):
        raise ArithmeticError("(1,1,1,1) closed form disagrees with Weyl formula")
    if dim_22 != weyl_dimension((2, 2), d):
        raise ArithmeticError("(2,2) closed form disagrees with Weyl formula")
    if dim_211 != weyl_dimension((2, 1, 1), d):
        raise ArithmeticError("(2,1,1) closed form disagrees with Weyl formula")
    if sym2_total != dim_1111 + dim_22:
        raise ArithmeticError("symmetric-square dimension is not additive")
    m = d * (d - 1) // 2
    if sym2_total != m * (m + 1) // 2:
        raise ArithmeticError("symmetric-square dimension != C(m+1,2)")
    if sym2_total + dim_211 != m * m:
        raise ArithmeticError("sym + alt squares do not fill the m^2 space")
    return PlethysmDims(sym2_total, dim_1111, dim_22, dim_211)
