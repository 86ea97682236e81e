"""Four-factor operators: group algebra, Young projectors, overlap tables."""

import math
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from antisym import cli
from antisym.linalg import SparseRMatrix
from antisym.projectors import (COSET_REPS, DINF, S4, GroupAlgebraElement,
                                PairBasis, Perm4, YOUNG_SHAPES, coset_table,
                                constraint_columns, flip_matrix,
                                flip_overlaps, invariant_projectors,
                                overlap_closed_forms, pair_basis,
                                pair_flip_signs, pair_projector_element,
                                ppt_overlap_table,
                                present_shapes, reduced_pair_state,
                                symbolic_overlap_table, werner_mixture,
                                young_projector_element, young_state_element)
from antisym.young import weyl_dimension
from full_space import (one_phi, partial_trace, phi_phi,
                        reference_to_operator, reference_young_state,
                        restrict)

B4 = (1, 1, 1, 1)
SQ = (2, 2)
TAIL = (2, 1, 1)


def perm_operator(perm, d):
    """The operator permuting the tensor factors of (C^d)^{x4} by ``perm``."""
    return reference_to_operator(GroupAlgebraElement.of(perm), d)


def projector_operator(shape, d):
    """The Young projector on (C^d)^{x4} as a sparse operator."""
    return reference_to_operator(young_projector_element(shape), d)


# -- permutations and their operators -----------------------------------------

def test_perm_composition_convention():
    a = Perm4.from_cycles((1, 2))
    b = Perm4.from_cycles((2, 3))
    # (a*b)(k) = a(b(k)): 1 -> 1 -> 2, 2 -> 3, 3 -> 2 -> 1
    assert (a * b).images == (2, 3, 1, 4)
    assert a * a.inverse() == Perm4.identity()
    assert Perm4.from_cycles((1, 2, 3, 4)).sign() == -1
    assert Perm4.from_cycles((1, 3), (2, 4)).cycle_count() == 2


def test_perm_operator_traces():
    assert perm_operator(Perm4.identity(), 3).trace() == 81
    assert perm_operator(Perm4.from_cycles((1, 3)), 4).trace() == 64
    assert perm_operator(Perm4.from_cycles((1, 2, 3, 4)), 5).trace() == 5


def test_perm_operator_is_representation():
    d = 3
    for a in (Perm4.from_cycles((1, 2)), Perm4.from_cycles((1, 3, 2))):
        for b in (Perm4.from_cycles((2, 4)), Perm4.from_cycles((1, 2, 3, 4))):
            lhs = perm_operator(a, d) @ perm_operator(b, d)
            assert lhs == perm_operator(a * b, d)


def test_cycle_trace_matches_matrix_trace():
    for perm in (Perm4.identity(), Perm4.from_cycles((1, 2)),
                 Perm4.from_cycles((1, 2, 3)), Perm4.from_cycles((1, 3), (2, 4))):
        for d in (2, 3):
            assert perm_operator(perm, d).trace() == d ** perm.cycle_count()


# -- Young projectors ----------------------------------------------------------

# Expansion of the (2,2) projector into the 24 permutations (coefficients x24).
SQUARE_PROJECTOR_EXPANSION = {
    (): 2, ((1, 2),): -2, ((3, 4),): -2,
    ((1, 3),): 1, ((1, 4),): 1, ((2, 3),): 1, ((2, 4),): 1,
    ((1, 2), (3, 4)): 2, ((1, 3), (2, 4)): 2, ((1, 4), (2, 3)): 2,
    ((1, 2, 3),): -1, ((1, 3, 2),): -1, ((1, 2, 4),): -1, ((1, 4, 2),): -1,
    ((1, 3, 4),): -1, ((1, 4, 3),): -1, ((2, 3, 4),): -1, ((2, 4, 3),): -1,
    ((1, 2, 3, 4),): 1, ((1, 2, 4, 3),): 1, ((1, 3, 4, 2),): 1,
    ((1, 4, 3, 2),): 1, ((1, 3, 2, 4),): -2, ((1, 4, 2, 3),): -2,
}


def test_square_projector_expansion_is_frozen():
    elem = young_projector_element(SQ)
    assert elem.den == 24
    assert elem.nums == {Perm4.from_cycles(*cycles): c
                         for cycles, c in SQUARE_PROJECTOR_EXPANSION.items()}


def test_projector_elements_algebra():
    elems = {s: young_projector_element(s) for s in YOUNG_SHAPES}
    for s, e in elems.items():
        assert e * e == e, s
        assert e.adjoint() == e, s
    assert (elems[B4] * elems[SQ]).is_zero()
    assert (elems[B4] * elems[TAIL]).is_zero()
    assert (elems[SQ] * elems[TAIL]).is_zero()
    assert elems[B4] + elems[SQ] + elems[TAIL] == pair_projector_element()


def test_projector_traces_match_dimensions():
    for d in (3, 4, 5, 6):
        for s in YOUNG_SHAPES:
            assert (young_projector_element(s).trace_in_dimension(d)
                    == weyl_dimension(s, d))
        assert (pair_projector_element().trace_in_dimension(d)
                == (d * (d - 1) // 2) ** 2)
    # the antisymmetriser vanishes at d = 3, by either route
    elem = young_projector_element(B4)
    assert elem.trace_in_dimension(3) == projector_operator(B4, 3).trace() == 0


def test_dense_projectors_idempotent_at_d3():
    # Full-space route, independent of the pair-subspace restriction.
    for s in (SQ, TAIL):
        p = projector_operator(s, 3)
        assert p @ p == p
        assert p.trace() == weyl_dimension(s, 3)
    assert projector_operator(B4, 3).is_zero()


def test_trace_of_tail_projector_example():
    assert projector_operator(TAIL, 3).trace() == 3  # (d+1)d(d-1)(d-2)/8 at d=3
    assert projector_operator(B4, 4).trace() == 1    # d(d-1)(d-2)(d-3)/24 at d=4


def test_young_state_normalisation_and_errors():
    assert reference_young_state(SQ, 5).trace() == 1
    assert (reference_young_state(TAIL, 3)
            == projector_operator(TAIL, 3).scale(F(1, 3)))
    for shape, d in ((B4, 3), (SQ, 2)):
        with pytest.raises(ValueError):
            reference_young_state(shape, d)
        with pytest.raises(ValueError):
            reduced_pair_state(shape, d)


def _reference_operator(elem: GroupAlgebraElement, d: int) -> SparseRMatrix:
    """sum_p c_p U_p, one permutation operator at a time."""
    out = SparseRMatrix(d ** 4, {})
    for p, v in elem.nums.items():
        out = out + perm_operator(p, d).scale(F(v, elem.den))
    return out


# mixed denominators and negative coefficients, as {Perm4: Fraction} dicts
fraction_coeffs = st.dictionaries(
    st.sampled_from(S4),
    st.fractions(min_value=-3, max_value=3, max_denominator=12),
    max_size=8)
group_elements = fraction_coeffs.map(GroupAlgebraElement)


@given(group_elements, st.fractions(min_value=-2, max_value=2,
                                    max_denominator=5),
       st.sampled_from((2, 3)))
@settings(max_examples=60, deadline=None, derandomize=True)
def test_to_operator_matches_term_by_term_sum(elem, a, d):
    op = reference_to_operator(elem, d)
    assert op == _reference_operator(elem, d)
    assert op.n == d ** 4
    assert all(v != 0 for v in op.nums.values())
    # the antisymmetriser of four factors vanishes for d < 4, so adding any
    # multiple of it cancels entry by entry and leaves the operator unchanged
    shifted = reference_to_operator(
        elem + young_projector_element(B4).scale(a), d)
    assert shifted == op
    assert all(v != 0 for v in shifted.nums.values())


def test_to_operator_of_cancelling_elements_stores_no_zero():
    assert projector_operator(B4, 3).nums == {}
    assert reference_to_operator(GroupAlgebraElement(), 3).is_zero()
    e = GroupAlgebraElement.unit()
    t = GroupAlgebraElement.of(Perm4.from_cycles((1, 2)))
    # (e - t)(e + t) = e - t^2 = 0 in the group algebra already
    assert reference_to_operator((e - t) * (e + t), 3).is_zero()


def reference_product(a: dict, b: dict) -> dict:
    """The convolution product of two {Perm4: Fraction} dicts, one Fraction
    term at a time, without its zero coefficients."""
    out = {}
    for p, x in a.items():
        for q, y in b.items():
            out[p * q] = out.get(p * q, F(0)) + x * y
    return {p: c for p, c in out.items() if c}


def assert_lowest_terms(elem):
    assert elem.den > 0 and all(type(v) is int for v in elem.nums.values())
    assert all(elem.nums.values())
    assert math.gcd(elem.den, *elem.nums.values()) == 1


@given(fraction_coeffs, fraction_coeffs)
@settings(max_examples=80, deadline=None, derandomize=True)
def test_int_product_matches_reference_product(a, b):
    got = GroupAlgebraElement(a) * GroupAlgebraElement(b)
    assert got == GroupAlgebraElement(reference_product(a, b))
    assert_lowest_terms(got)
    assert_lowest_terms(GroupAlgebraElement(a) + GroupAlgebraElement(b))
    assert_lowest_terms(GroupAlgebraElement(a).scale(F(-6, 5)))


@given(fraction_coeffs, st.sampled_from(
    [Perm4.from_cycles((i, j)) for i in range(1, 5) for j in range(i + 1, 5)]))
@settings(max_examples=40, deadline=None, derandomize=True)
def test_int_products_that_cancel_are_zero(a, t):
    ident = Perm4.identity()
    minus, plus = {ident: 1, t: -1}, {ident: 1, t: 1}
    x = GroupAlgebraElement(a)
    # (e - t)(e + t) = e - t^2 = 0, whatever stands before it
    zero = x * GroupAlgebraElement(minus) * GroupAlgebraElement(plus)
    assert zero.is_zero() and zero.den == 1 and zero == GroupAlgebraElement()
    assert reference_product(reference_product(a, minus), plus) == {}
    # the antisymmetriser is central and annihilates the (2,2) projector
    assert (young_projector_element(B4) * x
            * young_projector_element(SQ)).is_zero()


@given(group_elements, st.sampled_from(S4), st.sampled_from((3, 4, 5)))
@settings(max_examples=15, deadline=None, derandomize=True)
def test_traces_match_the_operator_route(elem, perm, d):
    op = reference_to_operator(elem, d)
    assert elem.trace_in_dimension(d) == op.trace()
    assert elem.trace_with(perm, d) == op.trace_product(perm_operator(perm, d))


def test_full_space_operators_are_sparse():
    assert isinstance(projector_operator(SQ, 3), SparseRMatrix)
    assert isinstance(reference_young_state(SQ, 3), SparseRMatrix)
    basis = PairBasis(3)
    small = basis.restricted_element(young_projector_element(SQ))
    assert isinstance(small, SparseRMatrix)
    assert all(isinstance(x, SparseRMatrix) for x in invariant_projectors(3))


def test_full_verification_builds_no_dense_full_space_matrix(monkeypatch):
    # every operator, the maximally entangled pairs included, is built on
    # the pair subspace (m^2 x m^2), no larger matrix is ever formed, and
    # every matrix, built directly or by an operation, passes through
    # __init__
    d = 5
    stored = []
    init = SparseRMatrix.__init__

    def spy(self, *args, **kwargs):
        init(self, *args, **kwargs)
        stored.append((self.n, len(self.nums)))

    monkeypatch.setattr(SparseRMatrix, "__init__", spy)
    invariant_projectors.cache_clear()
    for name, check in cli._verification_checks(d, "full"):
        assert check(), name
    m = d * (d - 1) // 2
    assert max(n for n, _ in stored) == m * m
    # the spy saw the pair-subspace and reduced matrices
    assert {m * m, d * d} <= {n for n, _ in stored}


def test_full_verification_builds_each_phi_operator_once(monkeypatch):
    # the invariant-projector check and the overlap table share one build
    calls = {}
    for name in ("restricted_phi_phi", "restricted_one_phi"):
        def counted(self, _build=getattr(PairBasis, name), _name=name):
            calls[_name] = calls.get(_name, 0) + 1
            return _build(self)
        monkeypatch.setattr(PairBasis, name, counted)
    invariant_projectors.cache_clear()
    for name, check in cli._verification_checks(5, "full"):
        assert check(), name
    assert calls == {"restricted_phi_phi": 1, "restricted_one_phi": 1}


# -- the double-coset route against the full-space reference -------------------

H = {Perm4.identity(): 1, Perm4.from_cycles((1, 2)): -1,
     Perm4.from_cycles((3, 4)): -1, Perm4.from_cycles((1, 2), (3, 4)): 1}


def test_coset_table_covers_s4_once_with_consistent_signs():
    table = coset_table()
    assert set(table) == set(S4)
    cosets = [{p for p, (k, _) in table.items() if k == i} for i in range(3)]
    assert [len(c) for c in cosets] == [4, 4, 16]
    for k, q in enumerate(COSET_REPS):
        # every way of writing p = h q h' gives the same sign
        for h, s in H.items():
            for g, t in H.items():
                assert table[h * q * g] == (k, s * t)
    # a sign that differs from the restriction's would show here: U_h b =
    # chi(h) b for every pair basis vector b
    basis = PairBasis(3)
    for p, (k, s) in table.items():
        assert (basis.restricted_element(GroupAlgebraElement.of(p))
                == basis.restricted_element(
                    GroupAlgebraElement.of(COSET_REPS[k])).scale(s))


@pytest.mark.parametrize("d", [3, 4, 5, 6])
def test_restricted_permutations_match_the_full_space(d):
    basis = PairBasis(d)
    for p in S4:
        elem = GroupAlgebraElement.of(p)
        assert (basis.restricted_element(elem)
                == restrict(basis, reference_to_operator(elem, d))), p


@pytest.mark.parametrize("d", [3, 4, 5, 6, 7])
def test_restricted_phi_operators_match_the_full_space(d):
    basis = PairBasis(d)
    assert basis.restricted_phi_phi() == restrict(basis, phi_phi(d))
    assert basis.restricted_one_phi() == restrict(basis, one_phi(d))


integer_elements = st.builds(
    GroupAlgebraElement,
    st.dictionaries(st.sampled_from(S4), st.integers(-6, 6), max_size=24),
    st.integers(1, 12))


@given(integer_elements, st.sampled_from((3, 4, 5, 6)))
@settings(max_examples=40, deadline=None, derandomize=True)
def test_restricted_elements_match_the_full_space(elem, d):
    basis = pair_basis(d)
    got = basis.restricted_element(elem)
    assert got == restrict(basis, reference_to_operator(elem, d))
    assert all(got.nums.values())


@pytest.mark.parametrize("d", [3, 4, 5, 6, 7])
def test_reduced_pair_states_match_the_full_space(d):
    for s in present_shapes(d):
        full = partial_trace(reference_young_state(s, d), (d,) * 4, (0, 2))
        assert reduced_pair_state(s, d) == full, s


def test_restriction_is_multiplicative():
    d = 3
    basis = PairBasis(d)
    x = young_projector_element(SQ) + pair_projector_element().scale(F(2, 7))
    y = young_projector_element(TAIL) - young_projector_element(SQ).scale(3)
    lhs = restrict(basis, reference_to_operator(x * y, d))
    rhs = (restrict(basis, reference_to_operator(x, d))
           @ restrict(basis, reference_to_operator(y, d)))
    assert lhs == rhs == basis.restricted_element(x * y)
    # traces survive the restriction
    assert basis.restricted_element(x).trace() == x.trace_in_dimension(d)
    assert basis.restricted_element(pair_projector_element()) == \
        basis.identity()


def test_restricted_transpose_matches_full_transpose():
    for d in (3, 4):
        basis = PairBasis(d)
        rho = reference_young_state(SQ, d)
        # transposing the second factor of the (d^2, d^2) split transposes
        # factors 2 and 3 of (d, d, d, d)
        full = restrict(basis, rho.partial_transpose(d * d))
        small = restrict(basis, rho).partial_transpose(basis.m)
        assert full == small


# -- reductions, flips and signs ------------------------------------------------

def test_flip_overlaps_are_dimension_free():
    for d in (4, 5, 6):
        got = flip_overlaps(d)
        assert got == {B4: F(-1), SQ: F(1, 2), TAIL: F(0)}
    assert flip_overlaps(3) == {SQ: F(1, 2), TAIL: F(0)}


def test_flip_overlaps_matrix_route():
    for d in (3, 4, 5):
        flip = flip_matrix(d)
        matrix = {s: reduced_pair_state(s, d).trace_product(flip)
                  for s in present_shapes(d)}
        assert flip_overlaps(d) == matrix


def test_reduced_states_are_werner_mixtures():
    for d in (3, 4, 5):
        weights = {B4: F(1), SQ: F(1, 4), TAIL: F(1, 2)}
        for s in present_shapes(d):
            assert reduced_pair_state(s, d) == werner_mixture(weights[s], d)


def test_reduced_antisymmetric_state_flip_value():
    # tracing the fully antisymmetric state down to AA' gives flip value -1
    rho = reduced_pair_state(B4, 4)
    assert rho.trace() == 1
    assert flip_overlaps(4)[B4] == -1
    assert rho == werner_mixture(F(1), 4)


def test_pair_flip_signs():
    for d in (3, 4, 5):
        expected = {B4: F(1), SQ: F(1), TAIL: F(-1)}
        got = pair_flip_signs(d)
        assert got == {s: expected[s] for s in present_shapes(d)}
        both = perm_operator(Perm4.from_cycles((1, 3), (2, 4)), d)
        assert got == {s: (reference_young_state(s, d) @ both).trace()
                       for s in present_shapes(d)}


# -- the invariant projectors and overlap table ---------------------------------

def test_invariant_projector_traces():
    bell, adjoint, tail = invariant_projectors(3)
    assert (bell.trace(), adjoint.trace(), tail.trace()) == (1, 8, 0)
    bell, adjoint, tail = invariant_projectors(4)
    assert (bell.trace(), adjoint.trace(), tail.trace()) == (1, 15, 20)
    with pytest.raises(ValueError):
        invariant_projectors(2)


def test_invariant_projector_algebra():
    for d in (3, 4, 5):
        bell, adjoint, tail = invariant_projectors(d)
        ident = PairBasis(d).identity()
        assert bell @ bell == bell
        assert adjoint @ adjoint == adjoint
        assert tail @ tail == tail
        assert (bell @ adjoint).is_zero()
        assert (bell @ tail).is_zero()
        assert (adjoint @ tail).is_zero()
        assert bell + adjoint + tail == ident


def test_states_keep_unit_trace_under_transpose():
    for d in (3, 4):
        basis = PairBasis(d)
        for s in present_shapes(d):
            rho = basis.restricted_element(young_state_element(s, d))
            assert rho.trace() == 1
            assert rho.partial_transpose(basis.m).trace() == 1


def test_overlap_table_matches_closed_forms():
    for d in (3, 4, 5):
        closed = overlap_closed_forms(d)
        assert len(closed) == 3
        assert all(len(row) == len(present_shapes(d)) for row in closed)
        for route in (symbolic_overlap_table, ppt_overlap_table):
            table = route(d)
            assert table == closed, (d, route.__name__)
            assert all(sum(column) == 1 for column in zip(*table))


def test_overlap_examples():
    bell, adjoint, _ = ppt_overlap_table(4)   # columns B4, SQ, TAIL
    assert bell[2] == F(-1, 6)
    assert adjoint[0] == F(-5, 4)
    assert ppt_overlap_table(5)[1][1] == F(1, 5)
    assert present_shapes(3) == (SQ, TAIL)
    assert [len(row) for row in ppt_overlap_table(3)] == [2, 2, 2]


# -- constraint matrices ---------------------------------------------------------

def test_constraint_matrix_values():
    assert overlap_closed_forms(4)[0] == (F(1, 6), F(1, 6), F(-1, 6))
    cols, rescaled = constraint_columns(4)
    assert cols == YOUNG_SHAPES
    assert rescaled[0] == (F(1), F(1), F(-1))
    assert rescaled[1] == (F(-5), F(1), F(1))
    assert constraint_columns(10)[1][1][0] == F(-11, 4)
    assert constraint_columns(DINF) == (YOUNG_SHAPES, ((1, 1, -1), (-2, 1, 0),
                                                       (1, 1, 1)))
    assert constraint_columns(3)[0] == (SQ, TAIL)


def test_constraint_matrix_rejects_small_d():
    for d in (2, 3.5):
        with pytest.raises(ValueError):
            constraint_columns(d)


def test_constraint_matrix_limit_distance():
    tinf = constraint_columns(DINF)[1]
    for d in (10, 100, 1000):
        td = constraint_columns(d)[1]
        bound = F(8, d)
        for i in range(3):
            for j in range(3):
                assert abs(td[i][j] - tinf[i][j]) <= bound, (d, i, j)


def test_corner_variant():
    derived = constraint_columns(5)[1]
    alt = constraint_columns(5, corner="alt")[1]
    assert derived[2][2] == 1 - F(2, 5 * 4 * 3)
    assert alt[2][2] == 1 - F(2 * 5 - 3, 5 * 4 * 3)
    for i in range(3):
        for j in range(3):
            if (i, j) != (2, 2):
                assert derived[i][j] == alt[i][j]


def test_corner_variant_at_dimension_three():
    # at d=3 the (1,1,1,1) column is dropped and (2,1,1) is column 1
    cols, derived = constraint_columns(3)
    alt = constraint_columns(3, corner="alt")[1]
    assert cols.index((2, 1, 1)) == 1
    assert (derived[2][1], alt[2][1]) == (F(2, 3), F(1, 2))
    assert derived[:2] == alt[:2] and derived[2][0] == alt[2][0]
