"""Exact simplex: statuses, certificates, and a brute-force vertex oracle."""

from fractions import Fraction as F
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from antisym.simplex import LPProblem, simplex_solve


def solve(c, a_ub=(), b_ub=(), a_eq=(), b_eq=()):
    lp = LPProblem(objective=list(c),
                   a_ub=[list(r) for r in a_ub], b_ub=list(b_ub),
                   a_eq=[list(r) for r in a_eq], b_eq=list(b_eq))
    return lp, simplex_solve(lp)


def test_single_variable_box():
    _, sol = solve([1], a_ub=[[1]], b_ub=[1])
    assert sol.status == "optimal" and sol.value == 1 and sol.x == [1]
    assert sol.y_ub == [1]


def test_two_copy_instance_restricted_to_one_parameter():
    # max x + (1-x)/4 subject to -2x + (1-x) >= 0 and 0 <= x <= 1,
    # i.e. max 1/4 + (3/4) x with x <= 1/3; optimum x = 1/3, value 1/2.
    _, sol = solve([F(3, 4)], a_ub=[[3], [1]], b_ub=[1, 1])
    assert sol.x[0] == F(1, 3)
    assert sol.value + F(1, 4) == F(1, 2)


def test_degenerate_redundant_rows_terminate():
    _, sol = solve([1, 1],
                   a_ub=[[1, 1], [1, 1], [2, 2], [1, 0]],
                   b_ub=[2, 2, 4, 1])
    assert sol.status == "optimal"
    assert sol.value == 2


def test_infeasible():
    _, sol = solve([1], a_ub=[[1], [-1]], b_ub=[1, -2])
    assert sol.status == "infeasible"


def test_unbounded():
    _, sol = solve([1, 0], a_ub=[[0, 1]], b_ub=[1])
    assert sol.status == "unbounded"


def test_equality_constraints_and_duals():
    lp, sol = solve([2, 3], a_eq=[[1, 1]], b_eq=[1])
    assert sol.value == 3 and sol.x == [0, 1]
    assert (sol.y_eq[0] * 1) == sol.value   # dual of the only row


def test_negative_rhs_rows():
    # x >= 2 encoded as -x <= -2, maximise -x
    _, sol = solve([-1], a_ub=[[-1]], b_ub=[-2])
    assert sol.status == "optimal" and sol.x == [2]


@pytest.mark.parametrize("kwargs, status, value", [
    (dict(objective=[], a_ub=[[]], b_ub=[0]), "optimal", 0),
    (dict(objective=[], a_ub=[[]], b_ub=[1]), "optimal", 0),
    (dict(objective=[], a_ub=[[]], b_ub=[-1]), "infeasible", None),
    (dict(objective=[], a_eq=[[]], b_eq=[0]), "optimal", 0),
    (dict(objective=[], a_eq=[[]], b_eq=[-1]), "infeasible", None),
    (dict(objective=[]), "optimal", 0),
    (dict(objective=[-1, 0]), "optimal", 0),
    (dict(objective=[1]), "unbounded", None),
    (dict(objective=[1, 1], a_ub=[[0, 0]], b_ub=[-1]), "infeasible", None),
    (dict(objective=[-1], a_ub=[[0]], b_ub=[1]), "optimal", 0),
    (dict(objective=[-1, -1], a_eq=[[0, 0]], b_eq=[0]), "optimal", 0),
    (dict(objective=[1], a_eq=[[0]], b_eq=[1]), "infeasible", None),
    (dict(objective=[1], a_ub=[[1]], b_ub=[2], a_eq=[[0]], b_eq=[0]),
     "optimal", 2),
    (dict(objective=[1], a_eq=[[3]], b_eq=[1]), "optimal", F(1, 3)),
    (dict(objective=[F(1, 2)], a_eq=[[F(-3, 2)]], b_eq=[F(1, 2)]),
     "infeasible", None),
], ids=["no-vars-b0", "no-vars-b1", "no-vars-b-neg", "no-vars-eq0",
        "no-vars-eq-neg", "nothing", "no-rows-optimal",
        "no-rows-unbounded", "zero-ub-row-b-neg",
        "zero-ub-row", "zero-eq-row", "zero-eq-row-b1", "zero-eq-row-with-ub",
        "free-only-eq", "free-only-eq-rational"])
def test_edge_case_statuses(kwargs, status, value):
    sol = simplex_solve(LPProblem(**kwargs))
    assert sol.status == status
    assert sol.value == value
    if status == "optimal":
        assert len(sol.y_ub) == len(kwargs.get("a_ub", []))
        assert len(sol.y_eq) == len(kwargs.get("a_eq", []))
        rhs = kwargs.get("b_ub", []) + kwargs.get("b_eq", [])
        assert sum(y * b for y, b in zip(sol.y_ub + sol.y_eq, rhs)) == value


@pytest.mark.parametrize("kwargs, error, message", [
    (dict(objective=[1.0]), TypeError, "got float"),
    (dict(objective=[1], a_ub=[[0.5]], b_ub=[1]), TypeError, "got float"),
    (dict(objective=[1], a_ub=[[1]], b_ub=[1.0]), TypeError, "got float"),
    (dict(objective=["1"]), TypeError, "got str"),
    (dict(objective=[1], a_ub=[[1, 2]], b_ub=[1]), ValueError, "row length"),
    (dict(objective=[1], a_ub=[[1]], b_ub=[1, 2]), ValueError, "count"),
    (dict(objective=[1], a_eq=[[1]], b_eq=[]), ValueError, "count"),
    (dict(objective=[1], a_eq=[[1, 2]], b_eq=[1]), ValueError, "row length"),
    (dict(objective=[1], a_ub=[[1, 2]], b_ub=[]), ValueError, "row length"),
    (dict(objective=[1], a_ub=[[1]], b_ub=[1, 2.0]), TypeError, "got float"),
    # a short denominator list must not drop rows
    (dict(objective=[1], a_ub=[[1], [2]], b_ub=[1, 1], ub_den=[2]),
     ValueError, "count"),
    (dict(objective=[1], a_eq=[[1]], b_eq=[1], eq_den=[1, 1]), ValueError,
     "count"),
    (dict(objective=[1], obj_den=0), ValueError, "positive"),
    (dict(objective=[1], a_ub=[[1]], b_ub=[1], ub_den=[-2]), ValueError,
     "positive"),
    (dict(objective=[1], obj_den=F(1, 2)), ValueError, "positive"),
])
def test_constructor_rejects_bad_data(kwargs, error, message):
    with pytest.raises(error, match=message):
        LPProblem(**kwargs)


def test_constructor_stores_lowest_terms():
    # objective (4/6, 2/6); rows (2x + 4y <= 6)/4 and (3x = 9)/3
    lp = LPProblem([4, 2], [[2, 4]], [6], [[3, 0]], [9], obj_den=6,
                   ub_den=[4], eq_den=[3])
    assert (lp.objective, lp.obj_den) == ([2, 1], 3)
    assert (lp.a_ub, lp.b_ub, lp.ub_den) == ([[1, 2]], [3], [2])
    assert (lp.a_eq, lp.b_eq, lp.eq_den) == ([[1, 0]], [3], [1])
    assert lp == LPProblem(objective=[F(2, 3), F(1, 3)],
                           a_ub=[[F(1, 2), 1]], b_ub=[F(3, 2)],
                           a_eq=[[1, 0]], b_eq=[3])
    assert simplex_solve(lp).value == F(2, 3) * 3    # x = 3, y = 0


def brute_force_value(c, a_ub, b_ub):
    """Enumerate all basic points of {A x <= b, x >= 0} exactly.

    Only valid when the feasible polytope is bounded; callers add box rows.
    """
    n = len(c)
    rows = [list(r) for r in a_ub] + [[-F(i == j) for j in range(n)]
                                      for i in range(n)]
    rhs = list(b_ub) + [F(0)] * n
    best = None
    for subset in combinations(range(len(rows)), n):
        mat = [rows[i][:] + [rhs[i]] for i in subset]
        x = _gauss_solve(mat, n)
        if x is None:
            continue
        if all(sum(a * v for a, v in zip(row, x)) <= b
               for row, b in zip(rows, rhs)):
            val = sum(ci * xi for ci, xi in zip(c, x))
            if best is None or val > best:
                best = val
    return best


def _gauss_solve(mat, n):
    mat = [row[:] for row in mat]
    for col in range(n):
        piv = next((r for r in range(col, n) if mat[r][col] != 0), None)
        if piv is None:
            return None
        mat[col], mat[piv] = mat[piv], mat[col]
        inv = 1 / mat[col][col]
        mat[col] = [v * inv for v in mat[col]]
        for r in range(n):
            if r != col and mat[r][col] != 0:
                f = mat[r][col]
                mat[r] = [a - f * b for a, b in zip(mat[r], mat[col])]
    return [mat[r][n] for r in range(n)]


small_int = st.integers(min_value=-3, max_value=3)


@given(st.integers(min_value=1, max_value=3), st.data())
@settings(max_examples=60, deadline=None)
def test_against_vertex_enumeration(n, data):
    m = data.draw(st.integers(min_value=0, max_value=3))
    c = [F(data.draw(small_int)) for _ in range(n)]
    a_ub = [[F(data.draw(small_int)) for _ in range(n)] for _ in range(m)]
    b_ub = [F(data.draw(st.integers(min_value=0, max_value=4)))
            for _ in range(m)]
    # box rows keep the polytope bounded and x = 0 stays feasible
    for i in range(n):
        a_ub.append([F(1 if j == i else 0) for j in range(n)])
        b_ub.append(F(3))
    _, sol = solve(c, a_ub=a_ub, b_ub=b_ub)
    assert sol.status == "optimal"
    assert sol.value == brute_force_value(c, a_ub, b_ub)
    assert sum(y * b for y, b in zip(sol.y_ub, b_ub)) == sol.value
