"""Entanglement-bound calculators assembled from closed forms and the LPs.

Every bound carries its exact rational core wherever one exists; base-two
logarithms are rendered in double precision only at the reporting edge.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import NamedTuple

from .programs import DINF, analytic_dual_point
from .seesaw import ResourceLimitError

# The largest d whose extension scan (d binomials of ~d bits each) is run.
SCAN_GUARD = 2 ** 12


def log2_fraction(value: Fraction) -> float:
    """Base-two log of a positive rational, safe for huge numerators."""
    if value <= 0:
        raise ValueError("logarithm of a non-positive rational")
    return math.log2(value.numerator) - math.log2(value.denominator)


@dataclass(frozen=True)
class BoundReport:
    """A bound ``core_coeff * log2(exact_core)``: an exact rational core and
    coefficient, rendered in double precision by ``log2_value``."""
    exact_core: Fraction
    core_coeff: Fraction
    params: dict = field(default_factory=dict)
    source: str = ""

    @property
    def log2_value(self) -> float:
        return float(self.core_coeff) * log2_fraction(self.exact_core)


class ExtensionCmi(NamedTuple):
    ratio: Fraction
    bits: float


def extension_cmi(d: int, k: int) -> ExtensionCmi:
    """Conditional mutual information across one pair of a k-fold
    antisymmetric extension, as an exact ratio and in bits.

    Computed both as a ratio of binomial coefficients C(d,k-1)^2 /
    (C(d,k-2) C(d,k)) and via the telescoped closed form
    (k/(k-1)) ((d-k+2)/(d-k+1)); the two must agree exactly.
    """
    if d < 3:
        raise ValueError("d must be at least 3")
    if not 2 <= k <= d:
        raise ValueError(f"k must lie in 2..{d}")
    binom_form = Fraction(math.comb(d, k - 1) ** 2,
                          math.comb(d, k - 2) * math.comb(d, k))
    closed_form = Fraction(k, k - 1) * Fraction(d - k + 2, d - k + 1)
    if binom_form != closed_form:
        raise ArithmeticError("extension CMI closed form mismatch")
    return ExtensionCmi(binom_form, log2_fraction(binom_form))


def squashed_upper_bound(d: int) -> BoundReport:
    """Upper bound on squashed entanglement (hence on distillable key).

    Half the minimum extension CMI over k; the exact minimiser is k = d/2 + 1
    for even d with value log2((d+2)/d), and k = (d+1)/2 for odd d with value
    (1/2) log2((d+3)/(d-1)).  The explicit scan and the closed form are
    compared exactly; a d over ``SCAN_GUARD`` is refused before the scan.
    """
    if d < 3:
        raise ValueError("d must be at least 3")
    if d > SCAN_GUARD:
        raise ResourceLimitError(f"d = {d} exceeds the guard {SCAN_GUARD}")
    best_k = None
    best_ratio = None
    for k in range(2, d + 1):
        ratio = extension_cmi(d, k).ratio
        if best_ratio is None or ratio < best_ratio:
            best_ratio = ratio
            best_k = k
    if d % 2 == 0:
        expected_k = d // 2 + 1
        core = Fraction(d + 2, d)
        coeff = Fraction(1)
        if best_ratio != core * core:
            raise ArithmeticError("even-d closed form does not match the scan")
    else:
        expected_k = (d + 1) // 2
        core = Fraction(d + 3, d - 1)
        coeff = Fraction(1, 2)
        if best_ratio != core:
            raise ArithmeticError("odd-d closed form does not match the scan")
    if best_k != expected_k:
        raise ArithmeticError(f"minimiser k={best_k}, expected {expected_k}")
    return BoundReport(
        exact_core=core,
        core_coeff=coeff,
        params={"d": d, "argmin_k": best_k, "min_ratio": best_ratio},
        source="squashed entanglement of the antisymmetric extension",
    )


def analytic_cost_bound(n: int) -> BoundReport:
    """Lower bound log2(4/3) on the entanglement cost, for every n: the
    geometric dual certificate (3/4)^n of the n-copy purity programme."""
    point = analytic_dual_point(n)
    if not point.feasible or point.z != Fraction(3, 4) ** n:
        raise ArithmeticError("geometric dual point failed")
    return BoundReport(
        exact_core=Fraction(4, 3),
        core_coeff=Fraction(1),
        params={"n": n, "certificate": point.z},
        source="dual certificate of the purity programme",
    )


def cost_bound_from_purity(value: Fraction, n: int, d=DINF) -> BoundReport:
    """The cost bound -(1/n) log2(value) of an n-copy purity bound ``value``
    (an optimum of the programme at dimension d)."""
    return BoundReport(
        exact_core=value,
        core_coeff=Fraction(-1, n),
        params={"n": n, "d": d},
        source="exact purity programme optimum",
    )


def relent_lower_bound(cost: BoundReport) -> BoundReport:
    """Lower bound on the regularised relative entropy of entanglement with
    respect to separable states: half the cost bound ``cost`` (from
    ``analytic_cost_bound`` or ``cost_bound_from_purity``), via the sup-norm
    <= square root of the purity."""
    return BoundReport(
        exact_core=cost.exact_core,
        core_coeff=cost.core_coeff / 2,
        params=dict(cost.params),
        source="square root of the purity bound",
    )


def relent_ppt_value(d: int) -> BoundReport:
    """Reference value of the regularised relative entropy with respect to
    PPT states, log2((d+2)/d), reported for contrast."""
    if d < 3:
        raise ValueError("d must be at least 3")
    core = Fraction(d + 2, d)
    return BoundReport(
        exact_core=core,
        core_coeff=Fraction(1),
        params={"d": d},
        source="known closed form for the antisymmetric state",
    )


__all__ = [
    "BoundReport", "ExtensionCmi", "analytic_cost_bound",
    "cost_bound_from_purity", "extension_cmi", "log2_fraction",
    "relent_lower_bound", "relent_ppt_value", "squashed_upper_bound",
]
