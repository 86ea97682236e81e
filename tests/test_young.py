"""Partitions, tableau counting, Schur evaluation, plethysm identities."""

from fractions import Fraction as F
from itertools import permutations
from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from antisym.young import (plethysm_check, plethysm_dimensions, schur_eval,
                           ssyt_count, weyl_dimension)

rational = st.fractions(min_value=-3, max_value=3, max_denominator=5)
# ints, and Fractions of either sign over different denominators
mixed = st.one_of(st.integers(min_value=-4, max_value=4), rational)


def brute_force_schur(shape, values):
    """Tableau generating sum: over every semistandard filling of ``shape``
    with entries 1..len(values), found by direct filling with constraint
    checks, the product of the variables its entries index."""
    shape = tuple(shape)
    boxes = [(r, c) for r, row_len in enumerate(shape) for c in range(row_len)]

    def rec(i, filling):
        if i == len(boxes):
            yield dict(filling)
            return
        r, c = boxes[i]
        for v in range(1, len(values) + 1):
            if c > 0 and filling[(r, c - 1)] > v:
                continue
            if r > 0 and filling[(r - 1, c)] >= v:
                continue
            filling[(r, c)] = v
            yield from rec(i + 1, filling)
            del filling[(r, c)]

    return sum((prod((values[v - 1] for v in filling.values()), start=F(1))
                for filling in rec(0, {})), F(0))


def brute_force_ssyt(shape, d):
    """Independent count of the semistandard fillings."""
    return brute_force_schur(shape, [1] * d)


def all_partitions_up_to(n):
    out = [()]
    def parts(total, maxpart):
        if total == 0:
            yield ()
            return
        for first in range(min(total, maxpart), 0, -1):
            for rest in parts(total - first, first):
                yield (first,) + rest
    for k in range(1, n + 1):
        out.extend(parts(k, k))
    return out


def test_weyl_dimension_at_a_large_dimension():
    # the closed forms of plethysm_dimensions, evaluated directly
    d = 10 ** 6
    assert weyl_dimension((1, 1, 1, 1), d) == d * (d - 1) * (d - 2) * (d - 3) // 24
    assert weyl_dimension((2, 2), d) == (d + 1) * d * d * (d - 1) // 12
    assert weyl_dimension((2, 1, 1), d) == (d + 1) * d * (d - 1) * (d - 2) // 8
    assert plethysm_dimensions(d).dim_22 == weyl_dimension((2, 2), d)


def test_weyl_examples():
    assert weyl_dimension((1, 1), 3) == 3
    assert weyl_dimension((1, 1, 1, 1), 3) == 0
    assert weyl_dimension((2, 2), 4) == 20   # (d+1) d^2 (d-1) / 12 at d=4
    assert weyl_dimension((2, 1, 1), 3) == 3
    assert weyl_dimension((0, 0), 5) == 1


def test_fundamental_is_binomial():
    from math import comb
    for d in range(1, 7):
        for k in range(1, d + 1):
            assert weyl_dimension((1,) * k, d) == comb(d, k)


def test_ssyt_examples():
    assert ssyt_count((2, 1, 1), 3) == 3
    assert ssyt_count((5,), 1) == 1
    assert ssyt_count((2, 2), 3) == 6        # brute force: six fillings
    assert brute_force_ssyt((2, 2), 3) == 6


def test_ssyt_equals_weyl_exhaustively():
    for shape in all_partitions_up_to(6):
        for d in range(1, 7):
            assert ssyt_count(shape, d) == weyl_dimension(shape, d), (shape, d)
            if sum(shape) <= 6:
                assert ssyt_count(shape, d) == brute_force_ssyt(shape, d)


def test_ssyt_count_with_many_entries():
    # one variable at a time, without a recursion as deep as max_entry
    for shape in ((2, 1), (2, 2), (1, 1, 1, 1)):
        assert ssyt_count(shape, 2000) == weyl_dimension(shape, 2000)


def test_schur_examples():
    assert schur_eval((1, 1), [1, 1, 1]) == 3
    assert schur_eval((1, 1), [1, 2, 3]) == 11      # e_2(1,2,3)
    assert schur_eval((4,), [1, 1]) == 5            # h_4 in two variables
    assert schur_eval((2, 2), [F(1), F(1, 2)]) == F(1, 4)


def test_schur_at_ones_is_dimension():
    for shape in ((2, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1), (3, 1)):
        for d in range(1, 6):
            assert schur_eval(shape, [F(1)] * d) == weyl_dimension(shape, d)


@given(st.sampled_from([s for s in all_partitions_up_to(5) if len(s) <= 4]),
       st.lists(mixed, min_size=0, max_size=4))
@settings(max_examples=80, deadline=None, derandomize=True)
def test_schur_matches_brute_force_tableau_sum(shape, values):
    got = schur_eval(shape, values)
    assert type(got) is F
    assert got == brute_force_schur(shape, values)


def test_schur_edge_cases():
    # no variables: only the empty shape gives 1
    assert schur_eval((), []) == 1 and schur_eval((2, 1), []) == 0
    assert type(schur_eval((), [])) is F
    # more rows than variables
    assert schur_eval((1, 1, 1), [F(2, 3), -5]) == 0
    # s_(2,1,1) = e_3 e_1 in exactly three variables
    assert schur_eval((2, 1, 1), [F(1, 2), F(-1, 3), 7]) == F(-301, 36)
    # a zero value drops every tableau that uses it
    point = [F(3, 4), 0, F(-2, 5)]
    for shape in ((2,), (2, 1), (1, 1)):
        assert schur_eval(shape, point) == brute_force_schur(shape, point)
        assert schur_eval(shape, point) == schur_eval(shape, point[::2])
    assert schur_eval((1, 1, 1), point) == 0


@given(st.lists(rational, min_size=3, max_size=5))
@settings(max_examples=40, deadline=None)
def test_schur_is_symmetric(values):
    base = schur_eval((2, 1), values)
    for perm in permutations(values):
        assert schur_eval((2, 1), list(perm)) == base


def test_plethysm_dimension_table():
    assert plethysm_dimensions(3) == (6, 0, 6, 3)
    assert plethysm_dimensions(4) == (21, 1, 20, 15)
    dims5 = plethysm_dimensions(5)
    assert dims5.sym2_total == 55 and dims5.dim_1111 == 5
    assert dims5.dim_22 == 50 and dims5.dim_211 == 45
    with pytest.raises(ValueError):
        plethysm_dimensions(2)


def test_plethysm_check_examples():
    lhs, rhs, equal = plethysm_check("sym2", 4, [1, 1, 1, 1])
    assert equal and lhs == rhs == 21
    assert plethysm_check("alt2", 3, [F(1), F(-2, 3), F(5, 7)]).equal
    res = plethysm_check("sym2", 3, [1, 2, 3])
    assert res.equal and res.lhs == res.rhs
    with pytest.raises(ValueError):
        plethysm_check("sym2", 2, [1, 1])
    with pytest.raises(ValueError):
        plethysm_check("cube", 3, [1, 1, 1])


@given(st.integers(min_value=3, max_value=5),
       st.data())
@settings(max_examples=30, deadline=None)
def test_plethysm_random_points(d, data):
    values = data.draw(st.lists(rational, min_size=d, max_size=d))
    assert plethysm_check("sym2", d, values).equal
    assert plethysm_check("alt2", d, values).equal
