"""Symmetry-reduced linear programmes bounding the maximum purity of reduced
states in tensor powers of the antisymmetric pair space.

The n-copy programme has variables indexed by strings over the Young-shape
alphabet; objective weights and PPT constraint rows are tensor powers of the
single-copy data.  Everything is invariant under permuting the copies, so the
programme is reduced to one variable per occurrence-count type (aggregated
mass), shrinking 3^n variables to C(n+2,2) and likewise for constraints.
``single_copy`` gives the single-copy data that the reduced programme and
the tests' unreduced reference programme are both built from;
``SymLP.to_lp`` assembles the reduced rows in integers, as products of
per-row powers, into int rows over one denominator.

Two forms exist, both normalised by sum_t q_t = 1:

* ``full3``: all shapes present at the given dimension (two of them at d=3),
  constraint rows from the rescaled PPT matrix.
* ``truncated2``: the dimension-free limit programme on the two
  symmetric-square shapes with constraint matrix [[-2,1],[1,1]].  Only valid
  in the limit d -> infinity.

Relaxing the normalisation to sum_t q_t <= 1 would not move either optimum:
the PPT rows are homogeneous, so a feasible point of positive value scales up
to sum_t q_t = 1, and the optimum is positive, since the point with every
copy on the (2, 2) shape is feasible with value 2^-n.

``SymLP.to_dual_lp`` transposes those rows into the reduced dual of any
programme.  On the limit programme's dual, ``analytic_dual_point`` evaluates
a geometric dual-feasible point (value (3/4)^n).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from math import factorial, lcm, prod
from typing import Iterator, NamedTuple

from .linalg import _lowest_terms
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


@dataclass(frozen=True)
class SymLP:
    """A permutation-symmetric tensor-power LP, reduced to count types.

    Variables are aggregated masses q_t = multiplicity(t) * p_t where p_t is
    the common value of the symmetric solution on strings of type t.  The
    masses sum to one; every other row is homogeneous, one per row type.
    """
    n: int
    symbols: tuple
    weights: tuple[Fraction, ...]               # per-symbol objective weight
    rows: tuple[tuple[Fraction, ...], ...]      # single-copy constraint rows
    types: tuple[tuple[int, ...], ...]          # variable types, lex order

    @property
    def row_types(self) -> tuple[tuple[int, ...], ...]:
        """Constraint types: the compositions of n into the rows, lex order."""
        return tuple(compositions(self.n, len(self.rows)))

    def to_lp(self) -> LPProblem:
        """Assemble the programme in one pass over all row types, in ints.

        Row r is scaled once to integers by the lcm D_r of its denominators
        and read as the linear form L_r = sum_y row_r[y] x_y.  The integer
        polynomial of row type k (the sum over strings y of type t of
        prod_i rows[w_i][y_i], for a string w of type k) is the product of
        the powers L_r^(k_r), each built once.  Monomial prod_y x_y^(t_y) is
        keyed as sum_y t_y (n+1)^y.  The constraint acts on per-string
        values p_t = q_t / multinomial(t), and 1/multinomial(t) =
        prod_y t_y! / n!, so entry t of row k is -coeff * prod_y t_y! over the
        row denominator D_k * n!, where D_k = prod_r D_r^(k_r).
        """
        shifts = [(self.n + 1) ** y for y in range(len(self.symbols))]
        scaled = [_lowest_terms(row) for row in self.rows]
        powers = []
        for nums, _ in scaled:
            line = {shift: v for shift, v in zip(shifts, nums) if v}
            row_powers = [{0: 1}]
            for _ in range(self.n):
                row_powers.append(_poly_mul(row_powers[-1], line))
            powers.append(row_powers)
        keys = [sum(c * shift for c, shift in zip(t, shifts))
                for t in self.types]
        facts = [prod(factorial(c) for c in t) for t in self.types]
        a_ub, dens = [], []
        for rt in self.row_types:
            poly = reduce(_poly_mul, (p[c] for p, c in zip(powers, rt)))
            a_ub.append([-poly.get(key, 0) * f for key, f in zip(keys, facts)])
            dens.append(prod(den ** c for (_, den), c in zip(scaled, rt))
                        * factorial(self.n))
        weights, weight_den = _lowest_terms(self.weights)
        c = [prod(w ** k for w, k in zip(weights, t)) for t in self.types]
        return _normalized_lp(c, weight_den ** self.n, a_ub, dens)

    def to_dual_lp(self) -> LPProblem:
        """The reduced dual, transposed from the rows of ``to_lp``: over
        z >= 0 and per-string row weights delta_k >= 0, one per row type k,

            max -z  s.t.  -z - sum_k multinomial(k) a_kt delta_k <= -c_t

        for each variable type t, where a_kt is entry t of row k and c_t the
        objective weight.  The optimum is minus the primal optimum.  z is the
        multiplier of the normalisation row; z >= 0 loses nothing, as every
        optimum is positive.  Row t lies over the objective denominator times
        the lcm of the column denominators.
        """
        lp = self.to_lp()
        # column k: multinomial(k) / ub_den[k], one Fraction per column
        weights = [Fraction(factorial(self.n) // prod(map(factorial, k)), den)
                   for k, den in zip(self.row_types, lp.ub_den)]
        common = lcm(*(w.denominator for w in weights))
        den = common * lp.obj_den
        scales = [-w.numerator * (common // w.denominator) * lp.obj_den
                  for w in weights]
        a_ub = [[-den] + [a * s for a, s in zip(column, scales)]
                for column in zip(*lp.a_ub)]
        return LPProblem([-1] + [0] * len(lp.a_ub), a_ub,
                         [-c * common for c in lp.objective],
                         ub_den=[den] * len(a_ub))


def _poly_mul(a: dict[int, int], b: dict[int, int]) -> dict[int, int]:
    """Product of int polynomials {monomial key: coefficient}; keys add."""
    out: dict[int, int] = {}
    for ka, va in a.items():
        for kb, vb in b.items():
            out[ka + kb] = out.get(ka + kb, 0) + va * vb
    return out


def _normalized_lp(c: list[int], c_den: int, a_ub: list[list[int]],
                   dens: list[int]) -> LPProblem:
    """max (c / c_den).x over the homogeneous rows (a_ub[i] / dens[i]).x <= 0
    and the normalisation sum x = 1, the one equality row."""
    return LPProblem(c, a_ub, [0] * len(a_ub), a_eq=[[1] * len(c)], b_eq=[1],
                     obj_den=c_den, ub_den=dens)


def single_copy(d=DINF, form: str | None = None,
                corner: str = "derived") -> tuple:
    """Single-copy data (symbols, weights, rows) of the programme at
    dimension ``d``, an integer >= 3 or ``math.inf``.

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
    else:
        symbols, rows = constraint_columns(d, corner)
    weights = tuple(OBJECTIVE_WEIGHTS[s] for s in symbols)
    return symbols, weights, rows


def build_purity_bound(n: int, d=DINF, parity: str = "none",
                       form: str | None = None,
                       corner: str = "derived") -> SymLP:
    """Symmetry-reduced LP whose optimum bounds the n-copy maximum purity,
    on the single-copy data of ``single_copy(d, form, corner)``."""
    if n < 1:
        raise ValueError("n must be positive")
    if parity not in PARITIES:
        raise ValueError(f"parity must be one of {PARITIES}")
    symbols, weights, rows = single_copy(d, form, corner)
    types = tuple(compositions(n, len(symbols)))
    if parity == "even":
        if TAIL_SHAPE not in symbols:
            raise ValueError("the parity restriction applies to the full form")
        tail = symbols.index(TAIL_SHAPE)
        types = tuple(t for t in types if t[tail] % 2 == 0)
    return SymLP(n=n, symbols=symbols, weights=weights, rows=rows, types=types)


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


def dual_value(bound: PurityBound) -> Fraction:
    """The dual objective sum_i y_i b_i of the certified duals y in
    ``bound.solution`` against the right-hand sides b of the programme's
    rows: zero on each homogeneous row, one on the normalisation row, which
    comes last.  The certificate of ``simplex_solve`` proves it equal to the
    primal optimum; the right-hand sides come without assembling the rows."""
    program, sol = bound.program, bound.solution
    rhs = [0] * len(program.row_types) + [1]
    return sum((y * b for y, b in zip(sol.y_ub + sol.y_eq, rhs,
                                      strict=True)), Fraction(0))


# -- the reduced dual of the limit programme ----------------------------------

class DualPoint(NamedTuple):
    delta: tuple[Fraction, ...]            # per-string dual weights, k = 0..n
    z: Fraction                            # the certified bound
    feasible: bool
    constraint_values: tuple[Fraction, ...]  # one per dual row, m = 0..n


def analytic_dual_point(n: int, beta: Fraction = Fraction(1, 2),
                        gamma: Fraction | None = None) -> DualPoint:
    """Geometric point of the limit programme's reduced dual
    ``build_purity_bound(n).to_dual_lp()``: delta_k = gamma * beta^(n-k) for
    k < n, delta_n = 0.

    Row m of that dual reads -z + sum_k a_mk delta_k <= b_m.  Its constraint
    value is sum_k a_mk delta_k - b_m, and z is set to the largest, so the
    point is feasible by construction: beta, gamma >= 0 make the weights
    nonnegative (a negative gamma is rejected, as its z would bound nothing).
    With the defaults beta = 1/2, gamma = 2^-n the bound is exactly (3/4)^n.
    The hypergeometric closed form of the rows

        sum_k beta^(n-k) a_mk = (beta+1)^(n-m) (beta-2)^m

    is re-verified in ints on every call.
    """
    if n < 1:
        raise ValueError("n must be positive")
    beta = Fraction(beta)
    if not 0 <= beta < 1:
        raise ValueError("beta must satisfy 0 <= beta < 1")
    gamma = Fraction(1, 2 ** n) if gamma is None else Fraction(gamma)
    if gamma < 0:
        raise ValueError("gamma must satisfy gamma >= 0")

    lp = build_purity_bound(n).to_dual_lp()
    delta = tuple(gamma * beta ** (n - k) for k in range(n)) + (Fraction(0),)
    # beta^(n-k) = p^(n-k) q^k / q^n
    p, q = beta.numerator, beta.denominator
    powers = [p ** (n - k) * q ** k for k in range(n + 1)]
    constraint_values = []
    for m, (row, b, den) in enumerate(zip(lp.a_ub, lp.b_ub, lp.ub_den)):
        terms = [a * w for a, w in zip(row[1:], powers, strict=True)]
        total = sum(terms)
        if total != den * (p + q) ** (n - m) * (p - 2 * q) ** m:
            raise ArithmeticError("geometric dual closed form failed")
        value = gamma * Fraction(total - terms[n], q ** n * den)
        constraint_values.append(value - Fraction(b, den))
    z = max(constraint_values)
    feasible = all(dk >= 0 for dk in delta) and z >= 0
    return DualPoint(delta, z, feasible, tuple(constraint_values))


class DualBound(NamedTuple):
    value: Fraction
    solution: LPSolution


def solve_dual(n: int) -> DualBound:
    """Exact optimum of the limit programme's reduced dual; equals the primal
    optimum."""
    sol = simplex_solve(build_purity_bound(n).to_dual_lp())
    if sol.status != "optimal":
        raise RuntimeError(f"dual LP unexpectedly {sol.status}")
    return DualBound(-sol.value, sol)
