"""Float-guided pricing: the basis guess changes pivots, never results."""

from fractions import Fraction as F
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from antisym import simplex
from antisym.programs import DINF, build_purity_bound
from antisym.simplex import LPProblem, simplex_solve

LIMIT_GOLDEN = {1: F(1, 2), 2: F(1, 2), 4: F(1, 4), 6: F(1, 7),
                8: F(5, 66), 10: F(12, 283), 12: F(26, 1119)}

# (d, n, parity, corner) -> certified optimum of the full3 programme
FULL3_GOLDEN = {
    (4, 8, "none", "derived"): F(353583877373, 27287445045248),
    (5, 8, "none", "derived"): F(1367088245599, 82274737024000),
    (8, 8, "none", "derived"): F(5216127907829977, 224295540141457408),
    (6, 8, "even", "derived"): F(77912758884985, 4023802263280896),
    (5, 7, "none", "alt"): F(9461123401, 344525363200),
    (3, 8, "none", "derived"): F(1, 2 ** 8),
    (3, 2, "none", "derived"): F(1, 4),
    (4, 4, "none", "derived"): F(161621, 1578496),
    (4, 3, "none", "derived"): F(571, 3392),
    (6, 2, "none", "derived"): F(335, 972),
    (4, 1, "none", "derived"): F(1, 2),
}
# full3 at d=4, n=12: the unperturbed float guess stalls on this programme
FULL3_D4_N12 = F(2806065471666149417, 1820578100724254113792)
# full3 at d=5, n = 10 and 12: E_C >= 0.73757 and 0.73717
FULL3_D5_N10 = F(3277751292407863, 544344989184000000)
FULL3_D5_N12 = F(69954461518155551, 32190537815449600000)
# the limit programme at n=48, equal to minus the reduced dual's optimum
LIMIT_48 = F(2388993967258874019200, 3528626791694247004721565133)

# Beale's example: cycles under most-negative pricing with a naive tie-break.
BEALE = LPProblem(objective=[F(3, 4), -20, F(1, 2), -6],
                  a_ub=[[F(1, 4), -8, -1, 9], [F(1, 2), -12, F(-1, 2), 3],
                        [0, 0, 1, 0]],
                  b_ub=[0, 0, 1])


def reference_certify(lp, x, y_ub, y_eq):
    """The certificate in Fractions, on Fraction rows rebuilt from the stored
    int numerators and denominators: the independent reference for the int
    ``simplex._certify``, with the same checks, order and messages."""
    SolverError = simplex.SolverError
    objective = [F(c, lp.obj_den) for c in lp.objective]
    a_ub = [[F(a, den) for a in row] for row, den in zip(lp.a_ub, lp.ub_den)]
    b_ub = [F(b, den) for b, den in zip(lp.b_ub, lp.ub_den)]
    a_eq = [[F(a, den) for a in row] for row, den in zip(lp.a_eq, lp.eq_den)]
    b_eq = [F(b, den) for b, den in zip(lp.b_eq, lp.eq_den)]
    slacks_ub = []
    for row, b in zip(a_ub, b_ub):
        s = b - sum(a * v for a, v in zip(row, x))
        if s < 0:
            raise SolverError("primal ub row violated")
        slacks_ub.append(s)
    for row, b in zip(a_eq, b_eq):
        if sum(a * v for a, v in zip(row, x)) != b:
            raise SolverError("primal eq row violated")
    if any(v < 0 for v in x):
        raise SolverError("primal sign constraint violated")
    if any(y < 0 for y in y_ub):
        raise SolverError("dual sign constraint violated")
    reduced = []
    for j in range(lp.num_vars):
        r = (sum(y * row[j] for y, row in zip(y_ub, a_ub))
             + sum(y * row[j] for y, row in zip(y_eq, a_eq))
             - objective[j])
        if r < 0:
            raise SolverError("dual row violated")
        reduced.append(r)
    primal = sum(c * v for c, v in zip(objective, x))
    dual = (sum(y * b for y, b in zip(y_ub, b_ub))
            + sum(y * b for y, b in zip(y_eq, b_eq)))
    if primal != dual:
        raise SolverError("nonzero duality gap")
    for y, s in zip(y_ub, slacks_ub):
        if y * s != 0:
            raise SolverError("complementary slackness (rows) violated")
    for v, r in zip(x, reduced):
        if v * r != 0:
            raise SolverError("complementary slackness (columns) violated")
    return primal


def certified(lp, sol):
    """The int certificate of ``sol``, checked against the reference."""
    value = simplex._certify(lp, sol.x, sol.y_ub, sol.y_eq)
    assert value == reference_certify(lp, sol.x, sol.y_ub, sol.y_eq)
    return value


def solve_with_guess(lp, guess=None):
    """Solve with the float guess replaced by ``guess`` (a list or an
    exception instance; None keeps the real guess), counting exact pivots."""
    def fake(*args):
        if isinstance(guess, Exception):
            raise guess
        return guess

    pivots = [0]
    original = simplex._Tableau.pivot

    def counting(tab, r, j):
        pivots[0] += 1
        original(tab, r, j)

    with mock.patch.object(simplex._Tableau, "pivot", counting):
        if guess is None:
            return simplex_solve(lp), pivots[0]
        with mock.patch.object(simplex, "_float_basis", fake):
            return simplex_solve(lp), pivots[0]


def spy_on(name):
    """Patch ``simplex.<name>`` to record every return value."""
    seen = []
    original = getattr(simplex, name)

    def spy(*args):
        seen.append(original(*args))
        return seen[-1]

    return mock.patch.object(simplex, name, spy), seen


def unguided(lp):
    return solve_with_guess(lp, [])[0]


def assert_same(guided, plain):
    assert guided.status == plain.status
    assert guided.value == plain.value


@pytest.mark.parametrize("n", range(1, 13))
def test_limit_programme_guided_equals_unguided(n):
    lp = build_purity_bound(n).to_lp()
    guided = simplex_solve(lp)
    assert_same(guided, unguided(lp))
    if n in LIMIT_GOLDEN:
        assert guided.value == LIMIT_GOLDEN[n] == certified(lp, guided)


@pytest.mark.parametrize("key", sorted(FULL3_GOLDEN))
def test_full3_guided_equals_unguided(key):
    d, n, parity, corner = key
    lp = build_purity_bound(n, d, parity, "full3", corner).to_lp()
    guided, guided_pivots = solve_with_guess(lp)
    plain, plain_pivots = solve_with_guess(lp, [])
    assert_same(guided, plain)
    assert guided.value == FULL3_GOLDEN[key] == certified(lp, guided)
    if n >= 7:      # the guess is in use: degenerate pivoting is cut
        assert guided_pivots * 5 < plain_pivots


@pytest.mark.parametrize("key", sorted(FULL3_GOLDEN))
def test_full3_dual_optimum_is_minus_the_primal_optimum(key):
    d, n, parity, corner = key
    prog = build_purity_bound(n, d, parity, "full3", corner)
    assert -simplex_solve(prog.to_dual_lp()).value == FULL3_GOLDEN[key]


@pytest.mark.parametrize("n", range(1, 7))
def test_full3_limit_dual_optimum_is_minus_the_primal_optimum(n):
    prog = build_purity_bound(n, DINF, form="full3")
    assert (-simplex_solve(prog.to_dual_lp()).value
            == simplex_solve(prog.to_lp()).value)


def test_reduced_dual_guided_equals_unguided():
    lp = build_purity_bound(24).to_dual_lp()
    assert_same(simplex_solve(lp), unguided(lp))


@pytest.mark.parametrize("build, golden, budget", [
    (lambda: build_purity_bound(48).to_dual_lp(), -LIMIT_48, 60),
    (lambda: build_purity_bound(48).to_lp(), LIMIT_48, 25),
    (lambda: build_purity_bound(10, 5, form="full3").to_lp(), FULL3_D5_N10,
     200),
], ids=["dual-48", "limit-48", "full3-d5-n10"])
def test_guessed_columns_are_rearmed_after_each_strict_improvement(
        build, golden, budget):
    # preferring each guessed column only once per phase took 258, 33 and
    # 638 exact pivots on these programmes
    lp = build()
    sol, pivots = solve_with_guess(lp)
    assert sol.value == golden == certified(lp, sol)
    assert pivots < budget


def test_full3_d5_n12_certifies():
    lp = build_purity_bound(12, 5, form="full3").to_lp()
    sol = simplex_solve(lp)
    assert sol.value == FULL3_D5_N12
    assert certified(lp, sol) == FULL3_D5_N12


def record_runs(lp, guess):
    """Solve with ``guess`` preferred; for each ``_Tableau.run`` call return
    its guessed columns, its barred columns and, per pivot, the entering
    column, the leaving row's right-hand side and the reduced costs."""
    runs = []
    original_run, original_pivot = simplex._Tableau.run, simplex._Tableau.pivot
    inside = [False]    # pivots between the phases drive artificials out

    def run(tab, barred):
        runs.append((sorted(tab.prefer - barred), barred, []))
        inside[0] = True
        try:
            return original_run(tab, barred)
        finally:
            inside[0] = False

    def pivot(tab, r, j):
        if inside[0]:
            runs[-1][2].append((j, tab.rhs[r], list(tab.obj)))
        original_pivot(tab, r, j)

    with mock.patch.object(simplex._Tableau, "run", run), \
            mock.patch.object(simplex._Tableau, "pivot", pivot), \
            mock.patch.object(simplex, "_float_basis", lambda *args: guess):
        return simplex_solve(lp), runs


def test_each_guessed_column_is_preferred_once_between_strict_improvements():
    # Beale's example with every column preferred: degenerate pivots, Bland
    # fallbacks and columns that re-enter between two strict improvements
    sol, runs = record_runs(BEALE, list(range(7)))
    assert sol.value == F(5, 4)
    preferred = bland = degenerate = 0
    for guessed, barred, pivots in runs:
        used = set()    # preferred since the last strictly improving pivot
        for enter, rhs, obj in pivots:
            armed = [j for j in guessed if j not in used and obj[j] < 0]
            if armed:
                assert enter == armed[0]
                used.add(enter)
                preferred += 1
            else:       # Bland: the lowest column that improves
                assert enter == min(j for j, v in enumerate(obj)
                                    if v < 0 and j not in barred)
                bland += 1
            if rhs > 0:
                used.clear()
            else:
                degenerate += 1
    assert preferred and bland and degenerate


@pytest.mark.parametrize("guess", [
    OverflowError("int too large to convert to float"),
    FloatingPointError("invalid value encountered"),
    ValueError("attempt to get argmin of an empty sequence"),
    [-1, -7, 10 ** 9, 2.5, "x", None, 0, 0, 3],
    list(range(500)),
    [0],
])
def test_failed_or_garbage_guess_still_certifies(guess):
    lp = build_purity_bound(4, 4, form="full3").to_lp()
    sol, _ = solve_with_guess(lp, guess)
    assert sol.status == "optimal"
    assert sol.value == FULL3_GOLDEN[(4, 4, "none", "derived")]
    assert simplex._certify(lp, sol.x, sol.y_ub, sol.y_eq) == sol.value
    lp = build_purity_bound(8).to_lp()
    assert solve_with_guess(lp, guess)[0].value == F(5, 66)


def test_float_guess_reports_failure_as_empty_list(monkeypatch):
    lp = build_purity_bound(4, 4, form="full3").to_lp()
    monkeypatch.setattr(simplex, "FLOAT_PIVOT_FACTOR", 0)   # cap reached
    patch, seen = spy_on("_float_basis")
    with patch:
        assert simplex_solve(lp).value == FULL3_GOLDEN[(4, 4, "none",
                                                        "derived")]
    assert seen == [[]]


def test_stalled_guess_is_retried_on_a_perturbed_rhs():
    # unperturbed, the float phase one cycles on degenerate rows up to its
    # pivot cap; the perturbed retry finds the basis and cuts the exact
    # pivots from thousands to a few hundred
    lp = build_purity_bound(12, 4, form="full3").to_lp()
    patch, attempts = spy_on("_float_solve")
    with patch:
        sol, pivots = solve_with_guess(lp)
    assert sol.value == FULL3_D4_N12 == certified(lp, sol)
    assert attempts[0] == [] and attempts[1]
    assert pivots < 1000


@pytest.mark.parametrize("lp, golden", [
    (build_purity_bound(8, 5, form="full3").to_lp(),
     FULL3_GOLDEN[(5, 8, "none", "derived")]),
    (build_purity_bound(12).to_lp(), LIMIT_GOLDEN[12]),
])
def test_retry_after_a_failed_first_attempt_certifies(lp, golden):
    # the first float run (phase one of the full3 programme, phase two of
    # the limit programme, which starts feasible) is made to fail
    original = simplex._float_run
    runs = []

    def fail_first(*args):
        runs.append(args)
        return len(runs) > 1 and original(*args)

    patch, guesses = spy_on("_float_basis")
    with patch, mock.patch.object(simplex, "_float_run", fail_first):
        sol = simplex_solve(lp)
    assert len(runs) > 1 and guesses[0]
    assert sol.value == golden
    assert simplex._certify(lp, sol.x, sol.y_ub, sol.y_eq) == golden


def test_coefficients_beyond_float_range_solve_exactly():
    big = 10 ** 400      # float(big) overflows inside the guess
    sol = simplex_solve(LPProblem(objective=[1, 1], a_ub=[[big, 1]],
                                  b_ub=[big]))
    assert sol.value == big and sol.x == [0, big]


def test_float_guess_on_a_tiny_lp():
    # max x: x + s1 = 1 starts on slack s1, x - s2 = b on an artificial
    rows, cost, start = [[1, 1, 0], [1, 0, -1]], [F(1), F(0), F(0)], [1, -1]
    assert sorted(simplex._float_basis(rows, [1, 0], cost, start)) == [0, 2]
    assert simplex._float_basis(rows, [1, 2], cost, start) == []  # infeasible


@pytest.mark.parametrize("guess", [[], [0], [3, 2, 1, 0], [1, 3, 5, 6],
                                   list(range(7))])
def test_beale_terminates_under_any_preference(guess):
    sol, _ = solve_with_guess(BEALE, guess)
    assert sol.status == "optimal"
    assert sol.value == F(5, 4)
    assert sol.value == simplex_solve(BEALE).value


small = st.integers(min_value=-3, max_value=3)


@st.composite
def small_lps(draw):
    n = draw(st.integers(min_value=1, max_value=4))
    m_ub = draw(st.integers(min_value=0, max_value=3))
    m_eq = draw(st.integers(min_value=0, max_value=2))
    row = st.lists(small, min_size=n, max_size=n)
    return LPProblem(
        objective=draw(row),
        a_ub=draw(st.lists(row, min_size=m_ub, max_size=m_ub)),
        b_ub=draw(st.lists(small, min_size=m_ub, max_size=m_ub)),
        a_eq=draw(st.lists(row, min_size=m_eq, max_size=m_eq)),
        b_eq=draw(st.lists(small, min_size=m_eq, max_size=m_eq)))


@given(small_lps(), st.lists(st.integers(min_value=-2, max_value=16),
                             max_size=12))
@settings(max_examples=150, deadline=None, derandomize=True)
def test_status_and_optimum_never_depend_on_the_preference(lp, guess):
    plain = unguided(lp)
    assert_same(simplex_solve(lp), plain)
    assert_same(solve_with_guess(lp, guess)[0], plain)


def perturbed(sol, data):
    """x, y_ub and y_eq of ``sol`` with one numerator moved by +-1."""
    vectors = [list(sol.x), list(sol.y_ub), list(sol.y_eq)]
    which = data.draw(st.sampled_from([k for k in range(3) if vectors[k]]))
    i = data.draw(st.integers(min_value=0, max_value=len(vectors[which]) - 1))
    v = vectors[which][i]
    vectors[which][i] = F(v.numerator + data.draw(st.sampled_from([-1, 1])),
                          v.denominator)
    return vectors


def outcome(certify, lp, vectors):
    try:
        return certify(lp, *vectors)
    except simplex.SolverError as exc:
        return f"SolverError: {exc}"


@pytest.fixture(scope="module")
def solved_goldens():
    lps = {"beale": BEALE, "limit-8": build_purity_bound(8).to_lp(),
           "full3-d4-n4": build_purity_bound(4, 4, form="full3").to_lp(),
           "full3-d6-n8-even": build_purity_bound(8, 6, "even",
                                                  "full3").to_lp(),
           "dual-12": build_purity_bound(12).to_dual_lp()}
    return [(lp, simplex_solve(lp)) for _, lp in sorted(lps.items())]


@given(st.integers(min_value=0, max_value=4), st.data())
@settings(max_examples=150, deadline=None, derandomize=True)
def test_certificate_agrees_with_the_reference_on_perturbed_goldens(
        solved_goldens, k, data):
    lp, sol = solved_goldens[k]
    vectors = perturbed(sol, data)
    assert (outcome(simplex._certify, lp, vectors)
            == outcome(reference_certify, lp, vectors))


fractions = st.fractions(min_value=-3, max_value=3, max_denominator=4)


@st.composite
def bounded_lps(draw):
    """Rational LPs with an optimum: every row holds at a drawn point x0, and
    box rows |x_j| <= 3 bound the feasible set."""
    n = draw(st.integers(min_value=1, max_value=4))
    x0 = [draw(st.integers(min_value=0, max_value=2)) for _ in range(n)]
    row = st.lists(fractions, min_size=n, max_size=n)
    a_ub = draw(st.lists(row, max_size=3))
    a_eq = draw(st.lists(row, max_size=2))
    b_ub = [sum(a * v for a, v in zip(r, x0))
            + draw(st.fractions(min_value=0, max_value=2, max_denominator=3))
            for r in a_ub]
    for j in range(n):
        for sign in (1, -1):
            a_ub.append([sign * (i == j) for i in range(n)])
            b_ub.append(3)
    return LPProblem(objective=draw(row), a_ub=a_ub, b_ub=b_ub, a_eq=a_eq,
                     b_eq=[sum(a * v for a, v in zip(r, x0)) for r in a_eq])


@given(bounded_lps(), st.data())
@settings(max_examples=150, deadline=None, derandomize=True)
def test_certificate_agrees_with_the_reference_on_random_lps(lp, data):
    sol = simplex_solve(lp)
    assert sol.status == "optimal"
    assert certified(lp, sol) == sol.value
    vectors = perturbed(sol, data)
    assert (outcome(simplex._certify, lp, vectors)
            == outcome(reference_certify, lp, vectors))
