"""Exact rational simplex with primal and dual certificates.

Problems are maximisations over rational data, held as int rows over one
denominator each (``LPProblem``):

    max c.x   s.t.   A_ub x <= b_ub,  A_eq x = b_eq,  x >= 0

Two-phase method over exact integer tableaux with float-guided pricing.  A
small dense floating-point simplex first solves the same standard form and
guesses an optimal basis, the guess-then-certify scheme of Applegate, Cook,
Dash & Espinoza (2007) and Gleixner, Steffy & Wolter (2016).  The exact
method then prefers the guessed columns as entering columns and falls back
to Bland's anti-cycling rule.  Each guessed column is preferred at most once
between two strictly improving pivots, after which all are re-armed; no
basis repeats across a strict improvement, so the method always terminates.
The guess only chooses entering columns: the exact ratio test keeps every
basis exactly feasible, and a wrong or missing guess costs pivots, never
correctness.  A float solve that finds no optimum (typically degenerate
cycling up to its pivot cap) is retried once on a slightly perturbed
right-hand side; the perturbation stays inside the float solve.

The tableau keeps every row as a primitive integer vector (contents divided
out after each pivot), which bounds entry growth by subdeterminant sizes
instead of letting rational numerators and denominators compound; the
objective row is held as integers over one positive denominator.  Every
optimal solution is returned together with a dual vector, and the pair is
certified exactly in integers (feasibility both sides, zero duality gap,
complementary slackness) before being handed back; a certification failure
is a bug and raises.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain
from math import gcd, lcm

import numpy as np

from .linalg import _frac, _lowest_terms

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"

# The float guess: pivot tolerance on row- and column-scaled data, its pivot
# cap as a multiple of rows plus columns, and the largest right-hand-side
# perturbation of its one retry.
FLOAT_TOL = 1e-9
FLOAT_PIVOT_FACTOR = 25
FLOAT_PERTURBATION = 1e-9


class SolverError(RuntimeError):
    """Internal certification failure; indicates a solver bug."""


def _lowest_rows(rows: list, rhs: list, dens: list[int] | None) -> tuple:
    """Rows, right-hand sides and denominators (default 1), in lowest terms."""
    out = [_lowest_terms([*row, b], den) for row, b, den
           in zip(rows, rhs, [1] * len(rows) if dens is None else dens)]
    return [r[:-1] for r, _ in out], [r[-1] for r, _ in out], [d for _, d in out]


@dataclass
class LPProblem:
    """max objective.x subject to ub rows, eq rows and x >= 0.

    As in ``linalg.SparseRMatrix``, the objective is stored as int numerators
    over one positive ``obj_den`` and ub row i with its right-hand side over
    one positive ``ub_den[i]`` (eq rows likewise), in lowest terms:
    ``gcd(den, rhs, *row) == 1``.  Entries may be given as ints or Fractions
    over the denominators ``obj_den``, ``ub_den`` and ``eq_den`` (default 1);
    ``__post_init__`` canonicalises them."""
    objective: list[int]
    a_ub: list[list[int]] = field(default_factory=list)
    b_ub: list[int] = field(default_factory=list)
    a_eq: list[list[int]] = field(default_factory=list)
    b_eq: list[int] = field(default_factory=list)
    obj_den: int = 1
    ub_den: list[int] | None = None
    eq_den: list[int] | None = None

    def __post_init__(self):
        n = len(self.objective)
        for v in chain(self.objective, *self.a_ub, *self.a_eq, self.b_ub,
                       self.b_eq):
            if not isinstance(v, int):
                _frac(v)    # raises TypeError unless v is a Fraction
        if any(len(r) != n for r in self.a_ub) or any(len(r) != n for r in self.a_eq):
            raise ValueError("constraint row length != number of variables")
        if len(self.a_ub) != len(self.b_ub) or len(self.a_eq) != len(self.b_eq):
            raise ValueError("constraint/right-hand-side count mismatch")
        for dens, rows in ((self.ub_den, self.a_ub), (self.eq_den, self.a_eq)):
            if dens is not None and len(dens) != len(rows):
                raise ValueError("constraint/denominator count mismatch")
        for den in chain([self.obj_den], self.ub_den or (), self.eq_den or ()):
            if not isinstance(den, int) or den <= 0:
                raise ValueError(f"denominator {den!r} is not a positive int")
        self.objective, self.obj_den = _lowest_terms(self.objective,
                                                     self.obj_den)
        self.a_ub, self.b_ub, self.ub_den = _lowest_rows(self.a_ub, self.b_ub,
                                                         self.ub_den)
        self.a_eq, self.b_eq, self.eq_den = _lowest_rows(self.a_eq, self.b_eq,
                                                         self.eq_den)

    @property
    def num_vars(self) -> int:
        return len(self.objective)


@dataclass
class LPSolution:
    status: str
    x: list[Fraction] | None = None
    value: Fraction | None = None
    y_ub: list[Fraction] | None = None
    y_eq: list[Fraction] | None = None


def _certify(lp: LPProblem, x: list[Fraction], y_ub: list[Fraction],
             y_eq: list[Fraction]) -> Fraction:
    """Exact optimality certificate; returns the common objective value.

    In ints: x over the lcm of its denominators and y_i / den_i over the lcm
    of theirs; those positive scales keep every sign and zero tested here."""
    xs, x_den = _lowest_terms(x)
    slacks_ub = []
    for row, b in zip(lp.a_ub, lp.b_ub):
        s = b * x_den - sum(a * v for a, v in zip(row, xs))
        if s < 0:
            raise SolverError("primal ub row violated")
        slacks_ub.append(s)
    for row, b in zip(lp.a_eq, lp.b_eq):
        if sum(a * v for a, v in zip(row, xs)) != b * x_den:
            raise SolverError("primal eq row violated")
    if any(v < 0 for v in xs):
        raise SolverError("primal sign constraint violated")
    if any(y < 0 for y in y_ub):
        raise SolverError("dual sign constraint violated")
    # most duals are zero (3 of 45 rows for full3 at d=8 n=8): sum the rest
    duals = [(y / den, row, b) for y, den, row, b in
             zip(y_ub + y_eq, lp.ub_den + lp.eq_den, lp.a_ub + lp.a_eq,
                 lp.b_ub + lp.b_eq) if y]
    ws, y_den = _lowest_terms([w for w, _, _ in duals])
    weighted = [0] * lp.num_vars
    for w, (_, row, _) in zip(ws, duals):
        weighted = [acc + w * a for acc, a in zip(weighted, row)]
    dual = sum(w * b for w, (_, _, b) in zip(ws, duals))
    reduced = [lp.obj_den * acc - y_den * c
               for acc, c in zip(weighted, lp.objective)]
    if any(r < 0 for r in reduced):
        raise SolverError("dual row violated")
    primal = sum(c * v for c, v in zip(lp.objective, xs))
    if primal * y_den != dual * lp.obj_den * x_den:
        raise SolverError("nonzero duality gap")
    for y, s in zip(y_ub, slacks_ub):
        if y and s:
            raise SolverError("complementary slackness (rows) violated")
    for v, r in zip(xs, reduced):
        if v and r:
            raise SolverError("complementary slackness (columns) violated")
    return Fraction(primal, lp.obj_den * x_den)


class _Tableau:
    """Simplex tableau over primitive integer rows.

    Row r holds an integer vector plus integer right-hand side; the entry on
    its basic column is positive and the basic value is rhs/pivot-entry.
    Scaling a row by a positive integer never changes the represented
    equation, so every row is reduced to primitive form after each pivot.
    The objective row (reduced costs z_j - c_j) is maintained as integers
    over the positive denominator ``obj_den``.
    """

    def __init__(self, rows: list[list[int]], rhs: list[int],
                 basis: list[int], num_cols: int, prefer: set[int]):
        self.rows = rows
        self.rhs = rhs
        self.basis = basis
        self.num_cols = num_cols
        self.prefer = prefer
        self.obj: list[int] = [0] * num_cols
        self.obj_den = 1

    def _reduce_row(self, i: int) -> None:
        g = gcd(self.rhs[i], *self.rows[i])
        if g > 1:
            self.rows[i] = [v // g for v in self.rows[i]]
            self.rhs[i] //= g

    def _reduce_obj(self) -> None:
        g = gcd(self.obj_den, *self.obj)
        if g > 1:
            self.obj = [v // g for v in self.obj]
            self.obj_den //= g

    def set_objective(self, cost: list[int], den: int) -> None:
        """Install reduced costs z_j - c_j for the current basis, where the
        costs are c_j = cost[j] / den."""
        basic = [(cost[b], r) for r, b in enumerate(self.basis) if cost[b]]
        scale = lcm(*(self.rows[r][self.basis[r]] for _, r in basic))
        self.obj = [-c * scale for c in cost]
        for cb, r in basic:
            f = cb * (scale // self.rows[r][self.basis[r]])
            self.obj = [v + f * a for v, a in zip(self.obj, self.rows[r])]
        self.obj_den = den * scale
        self._reduce_obj()

    def pivot(self, r: int, j: int) -> None:
        if self.rows[r][j] < 0:
            # only reached when driving artificials out of degenerate rows
            self.rows[r] = [-v for v in self.rows[r]]
            self.rhs[r] = -self.rhs[r]
        piv = self.rows[r][j]
        prow = self.rows[r]
        prhs = self.rhs[r]
        for i in range(len(self.rows)):
            if i == r:
                continue
            a = self.rows[i][j]
            if a == 0:
                continue
            row = self.rows[i]
            self.rows[i] = [x * piv - y * a for x, y in zip(row, prow)]
            self.rhs[i] = self.rhs[i] * piv - prhs * a
            self._reduce_row(i)
        a = self.obj[j]
        if a != 0:
            self.obj = [x * piv - y * a for x, y in zip(self.obj, prow)]
            self.obj_den *= piv
            self._reduce_obj()
        self._reduce_row(r)
        self.basis[r] = j

    def run(self, barred: set[int]) -> str:
        """Maximise; returns OPTIMAL or UNBOUNDED.

        A column of ``prefer`` with a negative reduced cost enters first,
        lowest index first; otherwise Bland's rule picks the entering column.
        Each preferred column is preferred at most once between two strictly
        improving pivots (leaving row with a positive right-hand side), after
        which the whole set is re-armed.  No basis repeats across a strict
        improvement, and between two of them the preferences run out, so
        Bland's rule guarantees termination.
        """
        guessed = sorted(self.prefer - barred)
        pending = list(guessed)
        while True:
            enter = -1
            for j in pending:
                if self.obj[j] < 0:
                    enter = j
                    pending.remove(j)
                    break
            else:
                for j in range(self.num_cols):
                    if self.obj[j] < 0 and j not in barred:
                        enter = j
                        break
            if enter < 0:
                return OPTIMAL
            leave = -1
            best_num = best_den = None   # ratio rhs/entry as num/den, both >= 0
            for r in range(len(self.rows)):
                a = self.rows[r][enter]
                if a <= 0:
                    continue
                if leave < 0:
                    better = True
                else:
                    lhs = self.rhs[r] * best_den
                    rhs = best_num * a
                    better = lhs < rhs or (lhs == rhs
                                           and self.basis[r] < self.basis[leave])
                if better:
                    best_num, best_den = self.rhs[r], a
                    leave = r
            if leave < 0:
                return UNBOUNDED
            if self.rhs[leave] > 0:
                pending = list(guessed)
            self.pivot(leave, enter)


def _float_run(t: np.ndarray, basis: list[int], allowed: np.ndarray,
               cap: int) -> bool:
    """Dense float simplex on tableau ``t`` (objective row last, right-hand
    side last), most negative reduced cost first.  True at an optimum; False
    when unbounded, stalled at the pivot cap or no longer finite."""
    m = len(basis)
    for _ in range(cap):
        obj = np.where(allowed, t[m, :-1], 0.0)
        j = int(np.argmin(obj))
        if not obj[j] < -FLOAT_TOL:
            return bool(np.isfinite(t).all())
        col = t[:m, j]
        pos = col > FLOAT_TOL
        if not pos.any():
            return False
        ratio = np.full(m, np.inf)
        ratio[pos] = t[:m, -1][pos] / col[pos]
        _float_pivot(t, int(np.argmin(ratio)), j, basis)
    return False


def _float_pivot(t: np.ndarray, r: int, j: int, basis: list[int]) -> None:
    t[r] /= t[r, j]
    factor = t[:, j].copy()
    factor[r] = 0.0
    t -= np.outer(factor, t[r])
    basis[r] = j


def _max_abs(x: np.ndarray, axis=None) -> np.ndarray:
    """Largest absolute entry along ``axis``, with 1 in place of 0."""
    top = np.abs(x).max(axis=axis, initial=0.0)
    return np.where(top > 0, top, 1.0)


def _float_basis(rows: list[list[int]], rhs: list[int], cost: list[float],
                 basis: list[int]) -> list[int]:
    """Floating-point guess of an optimal basis of the standard form.

    ``rows`` and ``rhs`` are the integer constraint rows over the structural
    and slack columns, with nonnegative right-hand sides; ``cost`` holds the
    phase-two costs of those columns and ``basis`` the starting basis, -1 on
    the rows that start on an artificial.  Rows and columns are scaled to unit
    maximum, which leaves the set of optimal bases unchanged.  When the float
    solve finds no optimum (most often a most-negative-rule cycle on
    degenerate rows), it is retried once on a right-hand side perturbed by at
    most ``FLOAT_PERTURBATION``, seeded, so the guess stays deterministic;
    the perturbation never leaves the float solve.  Returns the structural
    and slack columns of the final basis, or [] when neither attempt finds
    an optimum.
    """
    m, num_cols = len(rows), len(cost)
    a = np.array(rows, dtype=float).reshape(m, num_cols)
    b = np.array(rhs, dtype=float)
    c = np.array([float(v) for v in cost])
    with np.errstate(all="ignore"):
        row_scale = _max_abs(a, axis=1)
        a /= row_scale[:, None]
        b /= row_scale
        col_scale = _max_abs(a, axis=0)
        a /= col_scale
        c /= col_scale
        c /= _max_abs(c)
        guess = _float_solve(a, b, c, basis)
        if not guess:
            rng = np.random.default_rng(0)
            guess = _float_solve(a, b + FLOAT_PERTURBATION * rng.random(m),
                                 c, basis)
    return guess


def _float_solve(a: np.ndarray, b: np.ndarray, c: np.ndarray,
                 basis: list[int]) -> list[int]:
    """Two-phase float simplex on the scaled data of ``_float_basis``."""
    m, num_cols = a.shape
    arts = [i for i in range(m) if basis[i] < 0]
    width = num_cols + len(arts)
    cap = FLOAT_PIVOT_FACTOR * (m + width)
    t = np.zeros((m + 1, width + 1))
    t[:m, :num_cols] = a
    t[:m, -1] = b
    basis = list(basis)
    for k, i in enumerate(arts):
        t[i, num_cols + k] = 1.0
        basis[i] = num_cols + k

    def price(costs: np.ndarray) -> None:
        t[m] = costs[basis] @ t[:m] - costs

    if arts:
        price(np.r_[np.zeros(num_cols), -np.ones(len(arts)), 0.0])
        if (not _float_run(t, basis, np.ones(width, bool), cap)
                or t[m, -1] < -FLOAT_TOL):
            return []
        for r in range(m):
            if basis[r] >= num_cols:
                j = int(np.argmax(np.abs(t[r, :num_cols])))
                if abs(t[r, j]) > FLOAT_TOL:
                    _float_pivot(t, r, j, basis)
    price(np.r_[c, np.zeros(len(arts) + 1)])
    if not _float_run(t, basis, np.arange(width) < num_cols, cap):
        return []
    return [j for j in basis if j < num_cols]


def simplex_solve(lp: LPProblem) -> LPSolution:
    """Solve exactly; statuses are optimal, infeasible or unbounded."""
    n = lp.num_vars
    m_ub = len(lp.a_ub)
    m = m_ub + len(lp.a_eq)
    num_cols = n + m_ub  # structural + slack; artificials appended after
    rows: list[list[int]] = []
    rhs: list[int] = []
    dens: list[int] = []    # row denominators, negated on rows flipped below
    # Initial basis: positive slacks where available, artificials elsewhere.
    basis = [-1] * m
    for i, (row, b, den) in enumerate(zip(lp.a_ub + lp.a_eq, lp.b_ub + lp.b_eq,
                                          lp.ub_den + lp.eq_den)):
        int_row = row + [0] * m_ub
        if i < m_ub:
            int_row[n + i] = 1
        if b < 0:
            int_row = [-v for v in int_row]
            b, den = -b, -den
        elif i < m_ub:
            basis[i] = n + i
        rows.append(int_row)
        rhs.append(b)
        dens.append(den)
    try:    # the guess only steers pricing, so a failed one is dropped
        prefer = set(_float_basis(
            rows, rhs, [c / lp.obj_den for c in lp.objective] + [0.0] * m_ub,
            basis)).intersection(range(num_cols))
    except (ArithmeticError, ValueError):   # overflow to float, empty LP
        prefer = set()
    art_cols: list[int] = []
    for i in range(m):
        if basis[i] < 0:
            col = num_cols + len(art_cols)
            art_cols.append(col)
            for r in range(m):
                rows[r].append(1 if r == i else 0)
            basis[i] = col
    id_col = list(basis)    # row i's identity column
    total_cols = num_cols + len(art_cols)

    tab = _Tableau(rows, rhs, basis, total_cols, prefer)
    barred: set[int] = set()

    if art_cols:
        art_set = set(art_cols)
        tab.set_objective([-1 if j in art_set else 0
                           for j in range(total_cols)], 1)
        if tab.run(barred) != OPTIMAL:
            raise SolverError("phase one cannot be unbounded")
        for r in range(m):
            if tab.basis[r] in art_set and tab.rhs[r] != 0:
                return LPSolution(status=INFEASIBLE)
        # Drive basic artificials out where possible; bar them from phase two.
        for r in range(m):
            if tab.basis[r] in art_set:
                for j in range(num_cols):
                    if j not in art_set and tab.rows[r][j] != 0:
                        tab.pivot(r, j)
                        break
        barred = art_set

    tab.set_objective(lp.objective + [0] * (m_ub + len(art_cols)), lp.obj_den)
    if tab.run(barred) == UNBOUNDED:
        return LPSolution(status=UNBOUNDED)

    # Primal solution.
    x = [Fraction(0)] * n
    for r, b in enumerate(tab.basis):
        if b < n:
            x[b] = Fraction(tab.rhs[r], tab.rows[r][b])

    # Dual solution read off the per-row identity columns, undoing the
    # sign normalisation applied during setup and the row denominators.
    y = [Fraction(den * tab.obj[j], tab.obj_den)
         for den, j in zip(dens, id_col)]
    y_ub = y[:m_ub]
    y_eq = y[m_ub:]

    value = _certify(lp, x, y_ub, y_eq)     # checks the dual value equals it
    return LPSolution(status=OPTIMAL, x=x, value=value, y_ub=y_ub, y_eq=y_eq)
