"""Acceptance criteria, one test per criterion, at the stated tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.
"""

import math
import random
import time
from fractions import Fraction as F

from antisym.bounds import (analytic_cost_bound, cost_bound_from_purity,
                            relent_lower_bound, relent_ppt_value,
                            squashed_upper_bound)
from antisym.programs import (DINF, analytic_dual_point, solve_dual,
                              solve_purity_bound)
from antisym.projectors import (PairBasis, YOUNG_SHAPES, flip_matrix,
                                invariant_projectors, overlap_closed_forms,
                                ppt_overlap_table, present_shapes,
                                reduced_pair_state, young_projector_element)
from antisym.seesaw import purity_seesaw
from antisym.simplex import simplex_solve
from antisym.young import plethysm_check, weyl_dimension

GOLDEN = {1: F(1, 2), 2: F(1, 2), 4: F(1, 4), 6: F(1, 7),
          8: F(5, 66), 10: F(12, 283), 12: F(26, 1119)}


def report(k, message):
    print(f"ACCEPTANCE {k}: PASS - {message}")


def dual_objective(lp, sol):
    """b.y for the dual vector of ``sol``: the bound that vector certifies."""
    return sum(y * F(b, den) for y, b, den in
               zip(sol.y_ub + sol.y_eq, lp.b_ub + lp.b_eq,
                   lp.ub_den + lp.eq_den))


def test_criterion_1_golden_lp_values():
    start = time.monotonic()
    solutions = {}
    for n, expected in GOLDEN.items():
        value, sol, _ = solve_purity_bound(n, DINF, form="truncated2")
        assert value == expected, (n, value, expected)
        solutions[n] = sol
    elapsed = time.monotonic() - start
    assert elapsed < 30.0
    report(1, f"seven golden limit-programme values exact ({elapsed:.2f}s)")


def test_criterion_2_analytic_dual_certificate():
    start = time.monotonic()
    for n in range(1, 21):
        point = analytic_dual_point(n)
        assert point.feasible, n
        assert point.z == F(3, 4) ** n, n
    for n, zeta in GOLDEN.items():
        assert F(3, 4) ** n >= zeta, n
    for n in range(1, 13):
        zeta = solve_purity_bound(n, DINF, form="truncated2").value
        assert analytic_dual_point(n).z >= zeta, n
    elapsed = time.monotonic() - start
    assert elapsed < 5.0
    report(2, f"geometric dual exactly feasible, value (3/4)^n, n <= 20 "
              f"({elapsed:.2f}s)")


def test_criterion_3_cost_bounds():
    analytic = analytic_cost_bound(9)
    expected = math.log2(4.0) - math.log2(3.0)
    assert abs(analytic.log2_value - expected) <= 1e-9
    assert abs(analytic.log2_value - 0.415037) <= 1e-6
    lp = cost_bound_from_purity(solve_purity_bound(12, DINF).value, 12, DINF)
    assert lp.exact_core == F(26, 1119)
    expected_lp = (math.log2(1119) - math.log2(26)) / 12
    assert abs(lp.log2_value - expected_lp) <= 1e-9
    assert abs(lp.log2_value - 0.4523) <= 5e-4
    report(3, "analytic cost bound log2(4/3) and the n=12 cap 0.4523 match")


def test_criterion_4_dimension_three_values():
    for n in range(1, 7):
        value, sol, _ = solve_purity_bound(n, 3, form="full3")
        assert value == F(1, 2 ** n), n
        bound = cost_bound_from_purity(value, n, 3)
        assert bound.log2_value == 1.0, n     # formation bound n * 1 = n
    report(4, "three-dimensional programme gives 2^-n exactly for n <= 6")


def test_criterion_5_squashed_closed_forms():
    for d in range(4, 21, 2):
        rep = squashed_upper_bound(d)
        assert rep.params["argmin_k"] == d // 2 + 1, d
        assert rep.exact_core == F(d + 2, d)
        assert rep.params["min_ratio"] == F(d + 2, d) ** 2
    for d in range(3, 22, 2):
        rep = squashed_upper_bound(d)
        assert rep.params["argmin_k"] == (d + 1) // 2, d
        assert rep.exact_core == F(d + 3, d - 1)
        assert rep.params["min_ratio"] == F(d + 3, d - 1)
    report(5, "key-rate closed forms and minimisers exact for d in 3..21")


def test_criterion_6_exact_operator_verification():
    start = time.monotonic()
    for d in (3, 4, 5):
        basis = PairBasis(d)
        mats = {}
        for s in YOUNG_SHAPES:
            elem = young_projector_element(s)
            assert elem * elem == elem
            mat = basis.restricted_element(elem)
            assert mat @ mat == mat, (d, s)
            assert mat.trace() == weyl_dimension(s, d), (d, s)
            mats[s] = mat
        shapes = list(YOUNG_SHAPES)
        for i in range(3):
            for j in range(i + 1, 3):
                assert (mats[shapes[i]] @ mats[shapes[j]]).is_zero(), (d, i, j)

        flips = {s: reduced_pair_state(s, d).trace_product(flip_matrix(d))
                 for s in present_shapes(d)}
        expected = {(1, 1, 1, 1): F(-1), (2, 2): F(1, 2), (2, 1, 1): F(0)}
        assert flips == {s: expected[s] for s in present_shapes(d)}

        bell, adjoint, tail = invariant_projectors(d)
        assert bell @ bell == bell and adjoint @ adjoint == adjoint
        assert tail @ tail == tail
        assert (bell @ adjoint).is_zero() and (bell @ tail).is_zero()
        assert (adjoint @ tail).is_zero()
        m = d * (d - 1) // 2
        assert (bell.trace(), adjoint.trace(), tail.trace()) == \
            (1, d * d - 1, m * m - d * d)
        assert bell + adjoint + tail == basis.identity()

        table = ppt_overlap_table(d)
        assert table == overlap_closed_forms(d), d
        assert all(sum(column) == 1 for column in zip(*table))
    elapsed = time.monotonic() - start
    assert elapsed < 120.0
    report(6, f"exact operator identities hold at d in 3..5 ({elapsed:.2f}s)")


def test_criterion_7_plethysm_random_points():
    start = time.monotonic()
    rng = random.Random(20110927)
    for d in (3, 4, 5, 6):
        for _ in range(50):
            point = [F(rng.randint(-9, 9), rng.randint(1, 9))
                     for _ in range(d)]
            for kind in ("sym2", "alt2"):
                check = plethysm_check(kind, d, point)
                assert check.equal, (kind, d, point)
    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    report(7, f"plethysm characters agree at 50 random points per d "
              f"({elapsed:.2f}s)")


def test_criterion_8_seesaw_sandwich():
    for d in (3, 4, 5, 6):
        value = purity_seesaw(1, d, restarts=6, iterations=100, seed=2)
        assert abs(value - 0.5) <= 1e-6, d
        zeta = solve_purity_bound(1, d, form="full3").value
        assert value <= float(zeta) + 1e-6, d
    value = purity_seesaw(2, 3, restarts=20, iterations=500, seed=7)
    assert abs(value - 0.25) <= 1e-5
    zeta = solve_purity_bound(2, 3, form="full3").value
    assert value <= float(zeta) + 1e-6
    report(8, "see-saw oracle reproduces 1/2 and 1/4 and stays below the LP")


def test_criterion_9_relative_entropy_bounds():
    analytic = relent_lower_bound(analytic_cost_bound(7))
    expected = (math.log2(4.0) - math.log2(3.0)) / 2
    assert abs(analytic.log2_value - expected) <= 1e-9
    assert abs(analytic.log2_value - 0.207518) <= 1e-6
    for d in (4, 6, 10):
        contrast = relent_ppt_value(d)
        assert contrast.exact_core == F(d + 2, d)
        assert abs(contrast.log2_value
                   - (math.log2(d + 2) - math.log2(d))) <= 1e-12
    report(9, "relative-entropy bound 0.2075 and the PPT contrast value match")


def test_criterion_10_strong_duality_everywhere():
    for n in GOLDEN:
        value, sol, program = solve_purity_bound(n, DINF, form="truncated2")
        assert dual_objective(program.to_lp(), sol) == value, n
        dual_value, dual_sol = solve_dual(n)
        assert dual_value == value, n
        assert dual_objective(program.to_dual_lp(), dual_sol) == -dual_value, n
    for n in range(1, 7):
        value, sol, program = solve_purity_bound(n, 3, form="full3")
        assert dual_objective(program.to_lp(), sol) == value, n
        assert -simplex_solve(program.to_dual_lp()).value == value, n
    report(10, "primal and dual optima agree exactly on all instances")
