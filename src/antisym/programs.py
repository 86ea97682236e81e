"""Symmetry-reduced linear programmes bounding the maximum purity of reduced
states in tensor powers of the antisymmetric pair space.

The n-copy programme has variables indexed by strings over the Young-shape
alphabet; objective weights and PPT constraint rows are tensor powers of the
single-copy data.  Everything is invariant under permuting the copies, so the
programme is reduced to one variable per occurrence-count type (aggregated
mass), shrinking 3^n variables to C(n+2,2) and likewise for constraints.
``single_copy`` gives the single-copy data that the reduced and the unreduced
(reference) programme are both built from; ``SymLP.to_lp`` assembles the
reduced rows in integers, degree by degree, with one Fraction per nonzero entry.

Two forms exist:

* ``full3``: all shapes present at the given dimension (two of them at d=3),
  exact normalisation, constraint rows from the rescaled PPT matrix.
* ``truncated2``: the dimension-free limit programme on the two
  symmetric-square shapes with constraint matrix [[-2,1],[1,1]] and
  normalisation relaxed to <= 1.  Only valid in the limit d -> infinity.

The reduced dual of the truncated programme and an analytic dual-feasible
point (geometric weights, value (3/4)^n) are provided alongside.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import comb, factorial, lcm, prod
from typing import Iterator, NamedTuple

from .projectors import DINF, constraint_columns
from .simplex import LPProblem, LPSolution, simplex_solve

FORMS = ("full3", "truncated2")
PARITIES = ("none", "even")

TAIL_SHAPE = (2, 1, 1)

# Single-copy objective weights: the flip expectations of the reduced states.
OBJECTIVE_WEIGHTS = {(1, 1, 1, 1): Fraction(-1), (2, 2): Fraction(1, 2),
                     (2, 1, 1): Fraction(0)}

# The truncated two-shape constraint matrix and its transpose convention:
# rows ordered so that the (-2)-weighted row is first.
TRUNCATED_ROWS = ((Fraction(-2), Fraction(1)), (Fraction(1), Fraction(1)))


def compositions(n: int, s: int) -> Iterator[tuple[int, ...]]:
    """All s-tuples of nonnegative integers summing to n, lexicographically."""
    if s == 1:
        yield (n,)
        return
    for first in range(n + 1):
        for rest in compositions(n - first, s - 1):
            yield (first,) + rest


def multinomial(counts: tuple[int, ...]) -> int:
    return factorial(sum(counts)) // prod(factorial(c) for c in counts)


@dataclass(frozen=True)
class SymLP:
    """A permutation-symmetric tensor-power LP, reduced to count types.

    Variables are aggregated masses q_t = multiplicity(t) * p_t where p_t is
    the common value of the symmetric solution on strings of type t.
    """
    n: int
    symbols: tuple
    weights: tuple[Fraction, ...]               # per-symbol objective weight
    rows: tuple[tuple[Fraction, ...], ...]      # single-copy constraint rows
    normalization: str                          # "eq" (= 1) or "le" (<= 1)
    types: tuple[tuple[int, ...], ...]          # variable types, lex order
    row_types: tuple[tuple[int, ...], ...]      # constraint types, lex order

    def objective_coeff(self, t: tuple[int, ...]) -> Fraction:
        out = Fraction(1)
        for w, c in zip(self.weights, t):
            if c:
                out *= w ** c
        return out

    def to_lp(self) -> LPProblem:
        """Assemble the programme in one pass over all row types.

        Row r is scaled once to integers by the lcm D_r of its denominators.
        The integer polynomial of row type k (the sum over strings y of type t
        of prod_i rows[w_i][y_i], for a string w of type k) is the polynomial
        of k - e_r times integer row r, where r is the last nonzero count of
        k, so degree j is built from degree j - 1 alone.  A variable type t
        is keyed as sum_y t_y (n+1)^y.  Each nonzero entry is one Fraction:
        the constraint acts on per-string values p_t = q_t / multinomial(t).
        """
        shifts = [(self.n + 1) ** y for y in range(len(self.symbols))]
        scales = [lcm(*(v.denominator for v in row)) for row in self.rows]
        lines = [[(shift, v.numerator * (scale // v.denominator))
                  for shift, v in zip(shifts, row) if v]
                 for scale, row in zip(scales, self.rows)]
        level = {(0,) * len(self.rows): {0: 1}}
        for _ in range(self.n):
            nxt = {}
            for k, poly in level.items():
                last = max((r for r, c in enumerate(k) if c), default=0)
                for r in range(last, len(self.rows)):
                    out: dict[int, int] = {}
                    for key, coeff in poly.items():
                        for shift, v in lines[r]:
                            out[key + shift] = out.get(key + shift, 0) + coeff * v
                    nxt[k[:r] + (k[r] + 1,) + k[r + 1:]] = out
            level = nxt
        index = {sum(c * shift for c, shift in zip(t, shifts)): i
                 for i, t in enumerate(self.types)}
        mult = [multinomial(t) for t in self.types]
        zero = Fraction(0)
        a_ub = []
        for rt in self.row_types:
            scale = prod(s ** c for s, c in zip(scales, rt))
            row = [zero] * len(self.types)
            for key, coeff in level[rt].items():
                i = index.get(key)
                if i is not None and coeff:
                    row[i] = Fraction(-coeff, scale * mult[i])
            a_ub.append(row)
        c = [self.objective_coeff(t) for t in self.types]
        return _normalized_lp(c, a_ub, self.normalization)


def _normalized_lp(c: list[Fraction], a_ub: list[list[Fraction]],
                   normalization: str) -> LPProblem:
    """max c.x over the homogeneous rows a_ub.x <= 0 and the normalisation
    sum x = 1 ("eq") or sum x <= 1 ("le")."""
    b_ub = [Fraction(0)] * len(a_ub)
    ones = [Fraction(1)] * len(c)
    if normalization == "eq":
        return LPProblem(objective=c, a_ub=a_ub, b_ub=b_ub,
                         a_eq=[ones], b_eq=[Fraction(1)])
    return LPProblem(objective=c, a_ub=a_ub + [ones],
                     b_ub=b_ub + [Fraction(1)])


def single_copy(d=DINF, form: str | None = None,
                corner: str = "derived") -> tuple:
    """Single-copy data (symbols, weights, rows, normalisation) of the
    programme at dimension ``d``, an integer >= 3 or ``math.inf``.

    ``form`` defaults to ``truncated2`` in the limit and ``full3`` at finite
    dimension.
    """
    if form is None:
        form = "truncated2" if d == DINF else "full3"
    if form not in FORMS:
        raise ValueError(f"form must be one of {FORMS}")
    if form == "truncated2":
        if d != DINF:
            raise ValueError("the truncated form is only valid in the "
                             "d -> infinity limit")
        symbols, rows = ((1, 1, 1, 1), (2, 2)), TRUNCATED_ROWS
        normalization = "le"
    else:
        symbols, rows = constraint_columns(d, corner)
        normalization = "eq"
    weights = tuple(OBJECTIVE_WEIGHTS[s] for s in symbols)
    return symbols, weights, rows, normalization


def build_purity_bound(n: int, d=DINF, parity: str = "none",
                       form: str | None = None,
                       corner: str = "derived") -> SymLP:
    """Symmetry-reduced LP whose optimum bounds the n-copy maximum purity,
    on the single-copy data of ``single_copy(d, form, corner)``."""
    if n < 1:
        raise ValueError("n must be positive")
    if parity not in PARITIES:
        raise ValueError(f"parity must be one of {PARITIES}")
    symbols, weights, rows, normalization = single_copy(d, form, corner)
    types = tuple(compositions(n, len(symbols)))
    if parity == "even":
        if TAIL_SHAPE not in symbols:
            raise ValueError("the parity restriction applies to the full form")
        tail = symbols.index(TAIL_SHAPE)
        types = tuple(t for t in types if t[tail] % 2 == 0)
    row_types = tuple(compositions(n, len(rows)))
    return SymLP(n=n, symbols=symbols, weights=weights, rows=rows,
                 normalization=normalization, types=types, row_types=row_types)


def drop_first_row(symlp: SymLP) -> SymLP:
    """Relaxation that deletes the first single-copy constraint row."""
    rows = symlp.rows[1:]
    return SymLP(n=symlp.n, symbols=symlp.symbols, weights=symlp.weights,
                 rows=rows, normalization=symlp.normalization,
                 types=symlp.types,
                 row_types=tuple(compositions(symlp.n, len(rows))))


class PurityBound(NamedTuple):
    value: Fraction
    solution: LPSolution
    program: SymLP


def solve_purity_bound(n: int, d=DINF, parity: str = "none",
                       form: str | None = None,
                       corner: str = "derived") -> PurityBound:
    symlp = build_purity_bound(n, d, parity, form, corner)
    sol = simplex_solve(symlp.to_lp())
    if sol.status != "optimal":
        raise RuntimeError(f"purity LP unexpectedly {sol.status}")
    return PurityBound(sol.value, sol, symlp)


def substitute_tail_masses(masses: dict[tuple[int, int, int], Fraction]
                           ) -> dict[tuple[int, int], Fraction]:
    """Feasible-point mapper from three-shape types to two-shape types.

    Each tail occurrence is replaced by the mixture 1/3 first shape + 2/3
    second shape; the image point has the same objective value and satisfies
    the truncated constraints whenever the source satisfied the last two rows.
    """
    out: dict[tuple[int, int], Fraction] = {}
    third = Fraction(1, 3)
    for (i, j, t), mass in masses.items():
        if mass == 0:
            continue
        for l in range(t + 1):
            w = comb(t, l) * third ** l * (2 * third) ** (t - l)
            key = (i + l, j + t - l)
            out[key] = out.get(key, Fraction(0)) + mass * w
    return out


def type_masses(symlp: SymLP, solution: LPSolution) -> dict[tuple[int, ...], Fraction]:
    return {t: v for t, v in zip(symlp.types, solution.x) if v != 0}


# -- the reduced dual of the truncated programme -------------------------------

def dual_coeff(n: int, m: int, k: int) -> int:
    """Coefficient of the k-th symmetrised dual variable in the m-th
    symmetrised dual constraint:

        sum_l (-2)^l C(m, l) C(n-m, k-l),  l from max(0, k+m-n) to min(k, m).

    The same numbers are the truncated primal constraint coefficients by the
    symmetry of the constraint matrix.
    """
    if not (0 <= m <= n and 0 <= k <= n):
        raise ValueError("require 0 <= m, k <= n")
    total = 0
    for l in range(max(0, k + m - n), min(k, m) + 1):
        total += (-2) ** l * comb(m, l) * comb(n - m, k - l)
    return total


class DualPoint(NamedTuple):
    delta: tuple[Fraction, ...]            # symmetrised dual variables, k = 0..n
    z: Fraction                            # the certified bound
    feasible: bool
    constraint_values: tuple[Fraction, ...]  # right-hand sides, m = 0..n


def analytic_dual_point(n: int, beta: Fraction = Fraction(1, 2),
                        gamma: Fraction | None = None) -> DualPoint:
    """Geometric dual point: delta_k = gamma * beta^(n-k) for k < n, delta_n = 0.

    z is set to the largest symmetrised dual constraint value, so the point is
    feasible by construction whenever the weights are nonnegative.  With the
    defaults beta = 1/2, gamma = 2^-n the bound is exactly (3/4)^n.  The
    hypergeometric closed form

        sum_k gamma beta^(n-k) coeff(n,m,k) = gamma (beta+1)^(n-m) (beta-2)^m

    is re-verified on every call.
    """
    if n < 1:
        raise ValueError("n must be positive")
    beta = Fraction(beta)
    if not 0 <= beta < 1:
        raise ValueError("beta must satisfy 0 <= beta < 1")
    gamma = Fraction(1, 2 ** n) if gamma is None else Fraction(gamma)

    delta = tuple(gamma * beta ** (n - k) for k in range(n)) + (Fraction(0),)
    constraint_values = []
    for m in range(n + 1):
        coeffs = [dual_coeff(n, m, k) for k in range(n + 1)]
        full_sum = sum(gamma * beta ** (n - k) * coeffs[k] for k in range(n + 1))
        if full_sum != gamma * (beta + 1) ** (n - m) * (beta - 2) ** m:
            raise ArithmeticError("geometric dual closed form failed")
        base = Fraction((-1) ** m * 2 ** m, 2 ** n)
        constraint_values.append(base + sum(delta[k] * coeffs[k]
                                            for k in range(n + 1)))
    z = max(constraint_values)
    feasible = all(dk >= 0 for dk in delta) and z >= 0
    return DualPoint(delta, z, feasible, tuple(constraint_values))


def build_dual(n: int) -> LPProblem:
    """Reduced dual of the truncated programme: min z over nonnegative
    symmetrised weights, one constraint per count of distinguished rows.

    Encoded as a maximisation of -z; negate the optimum to recover the bound.
    """
    if n < 1:
        raise ValueError("n must be positive")
    nv = n + 2  # z, delta_0 .. delta_n
    c = [Fraction(-1)] + [Fraction(0)] * (n + 1)
    a_ub = []
    b_ub = []
    for m in range(n + 1):
        row = [Fraction(-1)] + [Fraction(dual_coeff(n, m, k)) for k in range(n + 1)]
        a_ub.append(row)
        b_ub.append(Fraction(-((-1) ** m * 2 ** m), 2 ** n))
    return LPProblem(objective=c, a_ub=a_ub, b_ub=b_ub,
                     nonneg=[True] * nv)


class DualBound(NamedTuple):
    value: Fraction
    solution: LPSolution


def solve_dual(n: int) -> DualBound:
    """Exact optimum of the reduced dual; equals the truncated primal optimum."""
    sol = simplex_solve(build_dual(n))
    if sol.status != "optimal":
        raise RuntimeError(f"dual LP unexpectedly {sol.status}")
    return DualBound(-sol.value, sol)


# -- unreduced reference programme (for soundness tests and small n) -----------

def build_unreduced(n: int, d=DINF, form: str | None = None,
                    corner: str = "derived") -> LPProblem:
    """The same programme over all strings, without symmetry reduction."""
    symbols, weights, rows, normalization = single_copy(d, form, corner)
    s = len(symbols)
    strings = list(product(range(s), repeat=n))
    c = [prod((weights[y] for y in w), start=Fraction(1)) for w in strings]
    a_ub = [[-prod((rows[r][y] for r, y in zip(rpat, w)), start=Fraction(1))
             for w in strings]
            for rpat in product(range(len(rows)), repeat=n)]
    return _normalized_lp(c, a_ub, normalization)
