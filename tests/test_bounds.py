"""Bound calculators: extension CMI, squashed/key bound, cost and relative-
entropy bounds."""

import math
from fractions import Fraction as F

import pytest

from antisym.bounds import (analytic_cost_bound, cost_bound_from_purity,
                            extension_cmi, log2_fraction, relent_lower_bound,
                            relent_ppt_value, squashed_upper_bound)
from antisym.programs import solve_purity_bound
from antisym.seesaw import ResourceLimitError


def test_extension_cmi_examples():
    assert extension_cmi(4, 3).ratio == F(9, 4)
    assert extension_cmi(4, 2).ratio == F(8, 3)
    assert extension_cmi(5, 3).ratio == 2
    assert extension_cmi(5, 3).bits == 1.0
    with pytest.raises(ValueError):
        extension_cmi(4, 1)
    with pytest.raises(ValueError):
        extension_cmi(4, 5)


def test_extension_cmi_is_weakly_unimodal():
    for d in range(3, 41):
        ratios = [extension_cmi(d, k).ratio for k in range(2, d + 1)]
        pivot = ratios.index(min(ratios))
        assert all(ratios[i] >= ratios[i + 1] for i in range(pivot))
        assert all(ratios[i] <= ratios[i + 1] for i in range(pivot, len(ratios) - 1))


def test_squashed_upper_bound_even():
    report = squashed_upper_bound(4)
    assert report.exact_core == F(3, 2)
    assert report.params["argmin_k"] == 3
    assert abs(report.log2_value - math.log2(1.5)) < 1e-15


def test_squashed_upper_bound_odd():
    report = squashed_upper_bound(5)
    assert report.exact_core == F(2)
    assert report.params["argmin_k"] == 3
    assert report.log2_value == 0.5


def test_squashed_upper_bound_large_d():
    report = squashed_upper_bound(100)
    assert report.exact_core == F(102, 100)
    assert abs(report.log2_value - math.log2(1.02)) < 1e-15
    # falls under the asymptotic envelope 2 log2(e) / (d - 1)
    assert report.log2_value <= 2 * math.log2(math.e) / 99


def test_squashed_scan_guard_is_inclusive(monkeypatch):
    from antisym import bounds

    monkeypatch.setattr(bounds, "SCAN_GUARD", 6)
    assert squashed_upper_bound(6).exact_core == F(8, 6)
    with pytest.raises(ResourceLimitError, match="^d = 7 exceeds the guard 6$"):
        squashed_upper_bound(7)


def test_even_bound_is_half_the_central_cmi():
    for d in (4, 8, 14):
        report = squashed_upper_bound(d)
        central = extension_cmi(d, d // 2 + 1)
        assert report.params["min_ratio"] == central.ratio
        assert abs(report.log2_value - central.bits / 2) < 1e-12


def test_squashed_argmin_ranges():
    for d in range(4, 21, 2):
        assert squashed_upper_bound(d).params["argmin_k"] == d // 2 + 1
    for d in range(3, 22, 2):
        assert squashed_upper_bound(d).params["argmin_k"] == (d + 1) // 2


def lp_cost_bound(n, d=math.inf):
    return cost_bound_from_purity(solve_purity_bound(n, d).value, n, d)


def test_cost_lower_bound_analytic():
    report = analytic_cost_bound(8)
    assert report.exact_core == F(4, 3)
    assert report.params["certificate"] == F(3, 4) ** 8
    assert abs(report.log2_value - 0.41503749927884376) < 1e-12


def test_cost_lower_bound_lp():
    report = lp_cost_bound(12)
    assert report.exact_core == F(26, 1119)
    expected = -log2_fraction(F(26, 1119)) / 12
    assert abs(report.log2_value - expected) < 1e-15
    assert abs(report.log2_value - 0.4523) < 5e-4


def test_cost_lower_bound_dimension_three():
    report = lp_cost_bound(4, 3)
    assert report.exact_core == F(1, 16)
    assert report.log2_value == 1.0


def test_relent_lower_bounds():
    analytic = relent_lower_bound(analytic_cost_bound(5))
    assert abs(analytic.log2_value - 0.2075187496394219) < 1e-12
    lp1 = relent_lower_bound(lp_cost_bound(1))
    assert lp1.exact_core == F(1, 2)
    assert lp1.log2_value == 0.5
    # halving is exact in binary floating point, so the decimal computed
    # from the halved coefficient is bit for bit half the cost decimal
    costs = [analytic_cost_bound(3)] + [lp_cost_bound(n) for n in range(1, 9)]
    for cost in costs:
        assert relent_lower_bound(cost).log2_value == cost.log2_value / 2.0


def test_relent_ppt_reference():
    report = relent_ppt_value(4)
    assert report.exact_core == F(3, 2)
    assert abs(report.log2_value - 0.5849625007211562) < 1e-12


def test_log2_fraction_handles_huge_values():
    big = F(math.comb(100, 50)) ** 2
    assert abs(log2_fraction(big) - 2 * math.log2(math.comb(100, 50))) < 1e-9
    with pytest.raises(ValueError):
        log2_fraction(F(0))
