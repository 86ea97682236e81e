"""Symmetry-reduced purity programmes and their duals."""

import math
from dataclasses import replace
from fractions import Fraction as F
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from antisym.linalg import _lowest_terms
from antisym.programs import (DINF, SymLP, _normalized_lp,
                              analytic_dual_point, build_purity_bound,
                              compositions, dual_value, single_copy,
                              solve_dual, solve_purity_bound)
from antisym.simplex import LPProblem, simplex_solve

GOLDEN = {1: F(1, 2), 2: F(1, 2), 4: F(1, 4), 6: F(1, 7),
          8: F(5, 66), 10: F(12, 283), 12: F(26, 1119)}

# The (d, n, parity, corner) of every finite-d programme in the benchmark.
BENCHMARK_FULL3 = [(4, 8, "none", "derived"), (5, 8, "none", "derived"),
                   (8, 8, "none", "derived"), (6, 8, "even", "derived"),
                   (5, 7, "none", "alt"), (3, 8, "none", "derived"),
                   (3, 2, "none", "derived"), (4, 4, "none", "derived"),
                   (4, 3, "none", "derived"), (6, 2, "none", "derived"),
                   (4, 1, "none", "derived")]


# -- the paper's truncation argument ------------------------------------------
# Drop the bell row, then replace each tail occurrence by the 1/3-2/3 mixture.

def multinomial(counts: tuple[int, ...]) -> int:
    return (math.factorial(sum(counts))
            // math.prod(math.factorial(c) for c in counts))


def drop_first_row(symlp: SymLP) -> SymLP:
    """Relaxation that deletes the first single-copy constraint row."""
    return replace(symlp, rows=symlp.rows[1:])


def substitute_tail_masses(masses: dict[tuple[int, int, int], F]
                           ) -> dict[tuple[int, int], F]:
    """Feasible-point mapper from three-shape types to two-shape types.

    Each tail occurrence is replaced by the mixture 1/3 first shape + 2/3
    second shape; the image point has the same objective value and satisfies
    the truncated constraints whenever the source satisfied the last two rows.
    """
    out: dict[tuple[int, int], F] = {}
    third = F(1, 3)
    for (i, j, t), mass in masses.items():
        if mass == 0:
            continue
        for l in range(t + 1):
            w = math.comb(t, l) * third ** l * (2 * third) ** (t - l)
            key = (i + l, j + t - l)
            out[key] = out.get(key, F(0)) + mass * w
    return out


def type_masses(symlp: SymLP, solution) -> dict[tuple[int, ...], F]:
    return {t: v for t, v in zip(symlp.types, solution.x) if v != 0}


# -- reference assembly: every row type expanded term by term ------------------

def reference_row_polynomial(prog, row_type):
    """Sum over strings y of type t of prod_i rows[w_i][y_i], as a
    polynomial over variable types, for any constraint string w of
    ``row_type``."""
    s = len(prog.symbols)
    poly = {(0,) * s: F(1)}
    for r, count in enumerate(row_type):
        line = prog.rows[r]
        for _ in range(count):
            nxt = {}
            for t, coeff in poly.items():
                for y in range(s):
                    if line[y] == 0:
                        continue
                    key = t[:y] + (t[y] + 1,) + t[y + 1:]
                    nxt[key] = nxt.get(key, F(0)) + coeff * line[y]
            poly = nxt
    return poly


def reference_objective_coeff(prog, t):
    """prod_y weights[y]^(t_y), the objective weight of variable type t."""
    out = F(1)
    for w, c in zip(prog.weights, t):
        if c:
            out *= w ** c
    return out


def reference_to_lp(prog):
    index = {t: i for i, t in enumerate(prog.types)}
    nv = len(prog.types)
    a_ub, b_ub = [], []
    for rt in prog.row_types:
        row = [F(0)] * nv
        for t, coeff in reference_row_polynomial(prog, rt).items():
            if t in index:
                row[index[t]] = -coeff / multinomial(t)
        a_ub.append(row)
        b_ub.append(F(0))
    c = [reference_objective_coeff(prog, t) for t in prog.types]
    return LPProblem(objective=c, a_ub=a_ub, b_ub=b_ub, a_eq=[[F(1)] * nv],
                     b_eq=[F(1)])


def reference_to_dual_lp(prog):
    """The reduced dual from Fraction entries, term by term: max -z over
    -z - sum_k multinomial(k) a_kt delta_k <= -c_t, one row per type t, with
    a_kt the entry of ``reference_to_lp``."""
    index = {t: i for i, t in enumerate(prog.types)}
    columns = []
    for rt in prog.row_types:
        column = [F(0)] * len(prog.types)
        for t, coeff in reference_row_polynomial(prog, rt).items():
            if t in index:
                column[index[t]] = coeff * multinomial(rt) / multinomial(t)
        columns.append(column)
    return LPProblem(objective=[F(-1)] + [F(0)] * len(columns),
                     a_ub=[[F(-1), *row] for row in zip(*columns)],
                     b_ub=[-reference_objective_coeff(prog, t)
                           for t in prog.types])


@pytest.mark.parametrize("key", BENCHMARK_FULL3)
def test_assembly_matches_reference_on_the_benchmark(key):
    d, n, parity, corner = key
    prog = build_purity_bound(n, d, parity, "full3", corner)
    assert prog.to_lp() == reference_to_lp(prog)
    dropped = drop_first_row(prog)
    assert dropped.to_lp() == reference_to_lp(dropped)


@pytest.mark.parametrize("n", [1, 8, 10, 12, 24, 48])
def test_assembly_matches_reference_on_the_limit(n):
    prog = build_purity_bound(n)
    assert prog.to_lp() == reference_to_lp(prog)
    if n <= 12:
        full = build_purity_bound(n, DINF, form="full3")
        assert full.to_lp() == reference_to_lp(full)
        dropped = drop_first_row(full)
        assert dropped.to_lp() == reference_to_lp(dropped)


entries = st.one_of(st.just(F(0)),
                    st.fractions(min_value=-4, max_value=4,
                                 max_denominator=12))


@st.composite
def symmetric_programmes(draw):
    s = draw(st.integers(min_value=2, max_value=3))
    num_rows = draw(st.integers(min_value=1, max_value=3))
    n = draw(st.integers(min_value=1, max_value=5))
    line = st.tuples(*[entries] * s)
    types = tuple(compositions(n, s))
    if draw(st.booleans()):           # parity filter on one symbol
        y = draw(st.integers(min_value=0, max_value=s - 1))
        types = tuple(t for t in types if t[y] % 2 == 0)
    return SymLP(n=n, symbols=tuple(range(s)), weights=draw(line),
                 rows=tuple(draw(line) for _ in range(num_rows)), types=types)


@given(symmetric_programmes())
@settings(max_examples=200, deadline=None, derandomize=True)
def test_assembly_matches_reference_on_random_data(prog):
    lp = prog.to_lp()
    assert lp == reference_to_lp(prog)
    assert_canonical(lp)
    dual = prog.to_dual_lp()
    assert dual == reference_to_dual_lp(prog)
    assert_canonical(dual)


# -- canonical integer storage of the assembled programmes ---------------------

def reference_dual_coeff(n: int, m: int, k: int) -> int:
    """Coefficient of the k-th per-string dual weight in the m-th row of the
    limit programme's reduced dual, as a Krawtchouk sum:

        sum_l (-2)^l C(m, l) C(n-m, k-l),  l from max(0, k+m-n) to min(k, m).

    The same numbers are the truncated primal constraint coefficients by the
    symmetry of the constraint matrix.
    """
    if not (0 <= m <= n and 0 <= k <= n):
        raise ValueError("require 0 <= m, k <= n")
    return sum((-2) ** l * math.comb(m, l) * math.comb(n - m, k - l)
               for l in range(max(0, k + m - n), min(k, m) + 1))


def reference_build_dual(n):
    """The limit programme's reduced dual from Fraction entries, term by
    term: -z + sum_k coeff(n,m,k) delta_k <= -(-2)^m / 2^n."""
    a_ub = [[F(-1)] + [F(reference_dual_coeff(n, m, k))
                       for k in range(n + 1)]
            for m in range(n + 1)]
    b_ub = [F(-((-1) ** m * 2 ** m), 2 ** n) for m in range(n + 1)]
    return LPProblem(objective=[F(-1)] + [F(0)] * (n + 1), a_ub=a_ub,
                     b_ub=b_ub)


def build_unreduced(n, d=DINF, form=None):
    """The same programme over all strings, without symmetry reduction, as
    int rows over one denominator each."""
    symbols, weights, rows = single_copy(d, form)
    strings = list(product(range(len(symbols)), repeat=n))
    weights, weight_den = _lowest_terms(weights)
    scaled = [_lowest_terms(row) for row in rows]
    c = [math.prod(weights[y] for y in w) for w in strings]
    patterns = list(product(scaled, repeat=n))
    a_ub = [[-math.prod(nums[y] for (nums, _), y in zip(rpat, w))
             for w in strings]
            for rpat in patterns]
    dens = [math.prod(den for _, den in rpat) for rpat in patterns]
    return _normalized_lp(c, weight_den ** n, a_ub, dens)


def reference_build_unreduced(n, d=DINF, form=None):
    """The unreduced programme from Fraction products over all strings."""
    symbols, weights, rows = single_copy(d, form)
    strings = list(product(range(len(symbols)), repeat=n))
    c = [math.prod((weights[y] for y in w), start=F(1)) for w in strings]
    a_ub = [[-math.prod((rows[r][y] for r, y in zip(rpat, w)), start=F(1))
             for w in strings]
            for rpat in product(range(len(rows)), repeat=n)]
    return LPProblem(objective=c, a_ub=a_ub, b_ub=[F(0)] * len(a_ub),
                     a_eq=[[F(1)] * len(c)], b_eq=[F(1)])


def assert_canonical(lp):
    """Every row and the objective in lowest terms over a positive int."""
    assert lp.obj_den > 0 and math.gcd(lp.obj_den, *lp.objective) == 1
    assert all(type(v) is int for v in lp.objective)
    for rows, rhs, dens in ((lp.a_ub, lp.b_ub, lp.ub_den),
                            (lp.a_eq, lp.b_eq, lp.eq_den)):
        assert len(rows) == len(rhs) == len(dens)
        for row, b, den in zip(rows, rhs, dens):
            assert den > 0 and math.gcd(den, b, *row) == 1
            assert all(type(v) is int for v in row + [b])


def from_stored_rationals(lp):
    """The same problem through the Fraction constructor, from the rationals
    that ``lp`` stores."""
    def rows(a, dens):
        return [[F(v, den) for v in row] for row, den in zip(a, dens)]
    return LPProblem(objective=[F(c, lp.obj_den) for c in lp.objective],
                     a_ub=rows(lp.a_ub, lp.ub_den),
                     b_ub=[F(b, den) for b, den in zip(lp.b_ub, lp.ub_den)],
                     a_eq=rows(lp.a_eq, lp.eq_den),
                     b_eq=[F(b, den) for b, den in zip(lp.b_eq, lp.eq_den)])


@pytest.mark.parametrize("build, reference", [
    (lambda: build_purity_bound(8, 4, form="full3").to_lp(),
     lambda: reference_to_lp(build_purity_bound(8, 4, form="full3"))),
    (lambda: build_purity_bound(8, 6, "even", "full3").to_lp(),
     lambda: reference_to_lp(build_purity_bound(8, 6, "even", "full3"))),
    (lambda: build_purity_bound(12).to_lp(),
     lambda: reference_to_lp(build_purity_bound(12))),
    (lambda: build_purity_bound(1).to_dual_lp(),
     lambda: reference_build_dual(1)),
    (lambda: build_purity_bound(24).to_dual_lp(),
     lambda: reference_build_dual(24)),
    (lambda: build_purity_bound(48).to_dual_lp(),
     lambda: reference_build_dual(48)),
    (lambda: build_unreduced(3, 4), lambda: reference_build_unreduced(3, 4)),
    (lambda: build_unreduced(4), lambda: reference_build_unreduced(4)),
    (lambda: build_unreduced(2, DINF, "full3"),
     lambda: reference_build_unreduced(2, DINF, "full3")),
], ids=["to_lp-full3-d4", "to_lp-full3-d6-even", "to_lp-truncated2",
        "to_dual_lp-1", "to_dual_lp-24", "to_dual_lp-48",
        "build_unreduced-d4", "build_unreduced-truncated2",
        "build_unreduced-full3-dinf"])
def test_int_storage_is_canonical_and_matches_the_fraction_constructor(
        build, reference):
    lp = build()
    assert_canonical(lp)
    assert lp == from_stored_rationals(lp) == reference()
    assert_canonical(reference())


def test_single_copy_data():
    symbols, weights, rows = single_copy()
    assert symbols == ((1, 1, 1, 1), (2, 2))
    assert weights == (F(-1), F(1, 2))
    assert rows == ((F(-2), F(1)), (F(1), F(1)))
    symbols, weights, rows = single_copy(3)
    assert symbols == ((2, 2), (2, 1, 1))
    assert len(rows) == 3 and all(len(r) == 2 for r in rows)
    assert single_copy(5, corner="alt")[2] != single_copy(5)[2]
    with pytest.raises(ValueError):
        single_copy(4, "truncated2")
    with pytest.raises(ValueError):
        single_copy(4, "bogus")


def relaxed(lp):
    """The copy of ``lp`` normalised by sum x <= 1: its eq row moved into the
    ub rows."""
    return LPProblem(lp.objective, lp.a_ub + lp.a_eq, lp.b_ub + lp.b_eq,
                     obj_den=lp.obj_den, ub_den=lp.ub_den + lp.eq_den)


@pytest.mark.parametrize("n, d, parity, form", [
    *[(n, DINF, "none", None) for n in GOLDEN],
    (3, DINF, "none", "full3"), (4, 3, "none", "full3"),
    (4, 4, "none", "full3"), (4, 6, "even", "full3"),
    (3, DINF, "even", "full3")])
def test_every_programme_has_homogeneous_rows_and_one_normalisation(
        n, d, parity, form):
    lp = build_purity_bound(n, d, parity, form).to_lp()
    assert lp.b_ub == [0] * len(lp.a_ub)
    assert lp.a_eq == [[1] * lp.num_vars]
    assert lp.b_eq == [1] and lp.eq_den == [1]
    value = simplex_solve(lp).value
    assert simplex_solve(relaxed(lp)).value == value > 0


def test_type_enumeration():
    types = list(compositions(3, 2))
    assert types == [(0, 3), (1, 2), (2, 1), (3, 0)]
    assert len(list(compositions(12, 3))) == 91
    assert multinomial((2, 1, 1)) == 12


def test_golden_truncated_values():
    for n, expected in GOLDEN.items():
        assert solve_purity_bound(n).value == expected, n


def test_two_copy_optimum_structure():
    # the optimum puts mass 1/3 on the doubled first shape, 2/3 on the second
    value, sol, prog = solve_purity_bound(2)
    assert value == F(1, 2)
    masses = type_masses(prog, sol)
    assert masses == {(2, 0): F(1, 3), (0, 2): F(2, 3)}


def test_single_copy_cases():
    value, sol, prog = solve_purity_bound(1)
    assert value == F(1, 2)
    assert type_masses(prog, sol) == {(0, 1): F(1)}
    assert solve_purity_bound(1, 17, form="full3").value == F(1, 2)


def test_dimension_three_powers_of_two():
    for n in range(1, 7):
        assert solve_purity_bound(n, 3).value == F(1, 2 ** n)


def test_full_form_matches_truncated_limit_for_small_n():
    for n in (1, 2, 3, 4):
        full = solve_purity_bound(n, DINF, form="full3").value
        trunc = solve_purity_bound(n, DINF, form="truncated2").value
        assert full <= trunc


def test_symmetry_reduction_soundness():
    for n in (1, 2, 3):
        for d in (3, 4, DINF):
            reduced = solve_purity_bound(n, d).value
            unreduced = simplex_solve(build_unreduced(n, d)).value
            assert reduced == unreduced, (n, d)
    # truncated form as well
    for n in (1, 2, 3):
        reduced = solve_purity_bound(n, DINF, form="truncated2").value
        unreduced = simplex_solve(build_unreduced(n, DINF,
                                                  form="truncated2")).value
        assert reduced == unreduced


@pytest.mark.parametrize("n, d, parity, form", [
    (6, DINF, "none", None), (3, DINF, "none", "full3"),
    (4, 4, "none", "full3"), (4, 3, "none", "full3"),
    (4, 6, "even", "full3")])
def test_dual_value_is_the_dual_objective_of_the_assembled_rows(n, d, parity,
                                                                form):
    bound = solve_purity_bound(n, d, parity, form)
    lp, sol = bound.program.to_lp(), bound.solution
    assembled = sum(y * F(b, den) for y, b, den in
                    zip(sol.y_ub + sol.y_eq, lp.b_ub + lp.b_eq,
                        lp.ub_den + lp.eq_den))
    assert dual_value(bound) == assembled == bound.value


def test_dual_value_moves_with_the_duals():
    for bound in (solve_purity_bound(4, 4, form="full3"),
                  solve_purity_bound(4)):                    # truncated2
        sol = bound.solution
        duals = sol.y_ub + sol.y_eq
        # the normalisation row comes last and has right-hand side one
        moved = duals[:-1] + [duals[-1] + F(1, 7)]
        split = len(sol.y_ub)
        solution = replace(sol, y_ub=moved[:split], y_eq=moved[split:])
        assert (dual_value(bound._replace(solution=solution))
                == bound.value + F(1, 7))
        # a homogeneous PPT row has right-hand side zero
        moved = [duals[0] + 5] + duals[1:]
        solution = replace(sol, y_ub=moved[:split], y_eq=moved[split:])
        assert dual_value(bound._replace(solution=solution)) == bound.value
        short = replace(sol, y_ub=sol.y_ub[1:])
        with pytest.raises(ValueError):
            dual_value(bound._replace(solution=short))


def test_parity_restriction_is_a_restriction():
    for n in (2, 3, 4):
        for d in (4, DINF):
            plain = solve_purity_bound(n, d, form="full3").value
            even = solve_purity_bound(n, d, parity="even", form="full3").value
            assert even <= plain
    prog = build_purity_bound(3, 4, parity="even", form="full3")
    tail = prog.symbols.index((2, 1, 1))
    assert all(t[tail] % 2 == 0 for t in prog.types)


def test_row_drop_monotone_and_tail_substitution():
    for n in range(1, 7):
        full = build_purity_bound(n, DINF, form="full3")
        dropped = drop_first_row(full)
        v_full = simplex_solve(full.to_lp()).value
        v_drop = simplex_solve(dropped.to_lp()).value
        v_trunc = solve_purity_bound(n, DINF, form="truncated2").value
        assert v_full <= v_drop
        assert v_drop == v_trunc


def test_tail_substitution_preserves_feasibility_and_value():
    n = 3
    full = build_purity_bound(n, DINF, form="full3")
    sol = simplex_solve(full.to_lp())
    masses3 = {t: v for t, v in zip(full.types, sol.x)}
    masses2 = substitute_tail_masses(masses3)
    assert sum(masses2.values()) == 1
    # same objective under the two-symbol weights (-1, 1/2)
    obj3 = sol.value
    obj2 = sum(m * F(-1) ** t[0] * F(1, 2) ** t[1] for t, m in masses2.items())
    assert obj2 == obj3
    # and the image satisfies the truncated constraints
    trunc = build_purity_bound(n, DINF, form="truncated2")
    for m in range(n + 1):
        total = F(0)
        for t, mass in masses2.items():
            total += reference_dual_coeff(n, m, t[0]) * mass / multinomial(t)
        assert total >= 0


def test_invalid_combinations():
    with pytest.raises(ValueError):
        build_purity_bound(2, 4, form="truncated2")
    with pytest.raises(ValueError):
        build_purity_bound(2, DINF, parity="even", form="truncated2")
    with pytest.raises(ValueError):
        build_purity_bound(0)
    with pytest.raises(ValueError):
        build_purity_bound(2, 2)


def test_corner_variant_effect():
    # the alternative corner entry perturbs one constraint coefficient but,
    # at the sizes probed, never the optimum: the affected row is slack there
    base_prog = build_purity_bound(3, 5, form="full3")
    alt_prog = build_purity_bound(3, 5, form="full3", corner="alt")
    assert base_prog.rows != alt_prog.rows
    for n in (2, 3):
        for d in (4, 5):
            base = solve_purity_bound(n, d, form="full3").value
            alt = solve_purity_bound(n, d, form="full3", corner="alt").value
            assert base == alt, (n, d)
    assert solve_purity_bound(3, DINF, corner="alt").value == \
        solve_purity_bound(3, DINF).value
    # at d=3 the alternative entry changes the programme, not its optimum
    assert build_purity_bound(2, 3, corner="alt").rows != \
        build_purity_bound(2, 3).rows
    for n in range(1, 7):
        assert solve_purity_bound(n, 3, corner="alt").value == F(1, 2 ** n)


# -- dual side ------------------------------------------------------------------

def test_dual_coeff_examples():
    assert reference_dual_coeff(2, 1, 1) == -1
    assert reference_dual_coeff(5, 2, 0) == 1
    for n in range(6):
        for k in range(n + 1):
            assert reference_dual_coeff(n, 0, k) == math.comb(n, k)


@given(st.integers(min_value=0, max_value=8), st.data())
@settings(max_examples=40, deadline=None)
def test_dual_coeff_generating_function(n, data):
    # coeff(n, m, k) is the x^k coefficient of (1-2x)^m (1+x)^(n-m)
    m = data.draw(st.integers(min_value=0, max_value=n))
    poly = [F(1)]
    for _ in range(m):
        poly = [a - 2 * b for a, b in zip(poly + [F(0)], [F(0)] + poly)]
    for _ in range(n - m):
        poly = [a + b for a, b in zip(poly + [F(0)], [F(0)] + poly)]
    assert poly == [reference_dual_coeff(n, m, k) for k in range(n + 1)]


def test_limit_dual_matches_the_krawtchouk_reference():
    for n in [*range(1, 49), 64, 96, 128]:
        assert build_purity_bound(n).to_dual_lp() == reference_build_dual(n), n


def test_analytic_dual_point_rejects_a_corrupted_row(monkeypatch):
    to_dual_lp = SymLP.to_dual_lp

    def corrupted(prog):
        lp = to_dual_lp(prog)
        lp.a_ub[2][3] += 1
        return lp

    analytic_dual_point(4)
    monkeypatch.setattr(SymLP, "to_dual_lp", corrupted)
    for gamma in (None, F(0)):
        with pytest.raises(ArithmeticError, match="closed form failed"):
            analytic_dual_point(4, gamma=gamma)


def test_analytic_dual_defaults():
    for n in range(1, 21):
        point = analytic_dual_point(n)
        assert point.feasible
        assert point.z == F(3, 4) ** n
        assert point.delta[n] == 0
        assert all(dk >= 0 for dk in point.delta)
        # z dominates every symmetrised constraint
        assert all(point.z >= v for v in point.constraint_values)


def test_analytic_dual_weak_duality():
    for n in range(1, 21):
        z = analytic_dual_point(n).z
        assert solve_purity_bound(n).value <= z


def test_analytic_dual_n1_closed_form():
    point = analytic_dual_point(1)
    assert point.z == F(3, 4)


def test_analytic_dual_custom_parameters():
    point = analytic_dual_point(2, beta=F(0), gamma=F(1, 4))
    assert point.feasible
    assert point.z == 1
    with pytest.raises(ValueError):
        analytic_dual_point(3, beta=F(1))
    with pytest.raises(ValueError):
        analytic_dual_point(3, beta=F(-1, 2))
    with pytest.raises(ValueError, match=r"^gamma must satisfy gamma >= 0$"):
        analytic_dual_point(3, gamma=F(-1))
    assert analytic_dual_point(3, gamma=F(0)).feasible


def test_dual_lp_equals_primal():
    for n in (1, 2, 3, 4, 6):
        assert solve_dual(n).value == solve_purity_bound(n).value


def test_dual_lp_examples():
    assert solve_dual(1).value == F(1, 2)
    assert solve_dual(2).value == F(1, 2)
    assert solve_dual(6).value == F(1, 7)
