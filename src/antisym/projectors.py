"""Exact operators on (C^d)^{x4}: permutation actions, Young projectors,
the three pair-subspace states, partial-transpose overlap tables and the
PPT constraint matrices.  An overlap table is a tuple of three rows (bell,
adjoint, tail) over the columns ``present_shapes(d)``.

Tensor factors are ordered A, B, A', B' (indices 0..3).  The primed pair is
factors 2 and 3; the partial transpose across the AB:A'B' cut transposes
those two factors.

Group-algebra elements are stored as ``SparseRMatrix`` is: int numerators
over one int denominator, in lowest terms.  Sums, convolution products,
adjoints, traces and pair-subspace restrictions run in ints; only the
traces come back as ``Fraction``s.

Each quantity has one route here.  Two kinds of route exist, and the
``verify rep`` battery checks one against the other:

* symbolic traces via the cycle count of a permutation (the trace of a
  permutation operator on (C^d)^{x4} is d to the number of cycles):
  ``flip_overlaps``, ``pair_flip_signs`` and ``symbolic_overlap_table``;
* explicit exact matrices, all ``SparseRMatrix`` (int numerators over one
  int denominator), built on the pair subspace wedge2 x wedge2, where all
  operators of interest are supported, as m^2 x m^2 matrices:
  ``PairBasis.restricted_element``, ``reduced_pair_state``,
  ``invariant_projectors`` and ``ppt_overlap_table``.  A group-algebra
  element restricts to one combination of three blocks, one per double
  coset of H = <(12),(34)> in S4, each enumerated once per dimension from
  the four signed computational terms of every basis vector; the reduced
  two-factor states are traced from the same terms, and no d^4 x d^4
  operator is ever formed.  The maximally entangled pairs Phi x Phi and
  1 x Phi, which ``invariant_projectors`` combine, are Gram sums over groups
  of the same terms.  The restriction is an algebra isomorphism onto that
  subspace, so products, idempotence and traces proven there hold for the
  full-space operators.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import combinations, permutations

from .linalg import RationalLike, SparseRMatrix, _frac, _lowest_terms
from .young import Partition, weyl_dimension

YOUNG_SHAPES: tuple[Partition, ...] = ((1, 1, 1, 1), (2, 2), (2, 1, 1))

DINF = math.inf


class Perm4:
    """A permutation of the four tensor slots {1,2,3,4}."""

    __slots__ = ("images",)

    def __init__(self, images: tuple[int, int, int, int]):
        if sorted(images) != [1, 2, 3, 4]:
            raise ValueError(f"not a bijection on 1..4: {images}")
        self.images = tuple(images)

    @classmethod
    def identity(cls) -> "Perm4":
        return cls((1, 2, 3, 4))

    @classmethod
    def from_cycles(cls, *cycles: tuple[int, ...]) -> "Perm4":
        img = list(range(1, 5))
        for cyc in cycles:
            for i, x in enumerate(cyc):
                img[x - 1] = cyc[(i + 1) % len(cyc)]
        return cls(tuple(img))

    def __mul__(self, other: "Perm4") -> "Perm4":
        """Composition: (self * other)(k) = self(other(k))."""
        return Perm4(tuple(self.images[other.images[k] - 1] for k in range(4)))

    def inverse(self) -> "Perm4":
        inv = [0] * 4
        for k in range(4):
            inv[self.images[k] - 1] = k + 1
        return Perm4(tuple(inv))

    def sign(self) -> int:
        s = 1
        im = self.images
        for i in range(4):
            for j in range(i + 1, 4):
                if im[i] > im[j]:
                    s = -s
        return s

    def cycle_count(self) -> int:
        seen = [False] * 4
        count = 0
        for k in range(4):
            if not seen[k]:
                count += 1
                j = k
                while not seen[j]:
                    seen[j] = True
                    j = self.images[j] - 1
        return count

    def __eq__(self, other) -> bool:
        return isinstance(other, Perm4) and self.images == other.images

    def __hash__(self):
        return hash(self.images)

    def __repr__(self) -> str:
        return f"Perm4{self.images}"


S4: tuple[Perm4, ...] = tuple(Perm4(p) for p in permutations((1, 2, 3, 4)))


# the position in S4 of each image tuple, and that of p * q at byte
# 24 * position(p) + position(q)
_POSITION: dict[tuple[int, ...], int] = {p.images: i for i, p in enumerate(S4)}
_PRODUCTS = bytes(_POSITION[(p * q).images] for p in S4 for q in S4)


class GroupAlgebraElement:
    """Finitely supported rational combination of S4 permutations: int
    numerators ``{Perm4: int}`` over one positive int ``den``, canonical as
    in ``SparseRMatrix`` (no zero numerator, ``gcd(den, *nums) == 1``), so
    equal elements have equal ``nums`` and ``den``."""

    __slots__ = ("nums", "den")

    def __init__(self, coeffs: dict[Perm4, RationalLike] | None = None,
                 den: int = 1):
        """The element sum_p (coeffs[p] / den) p, from int or Fraction
        coefficients, zeros allowed, over a positive int ``den``."""
        coeffs = coeffs or {}
        nums, self.den = _lowest_terms(list(coeffs.values()), den)
        self.nums = {p: v for p, v in zip(coeffs, nums) if v}

    @classmethod
    def unit(cls) -> "GroupAlgebraElement":
        return cls({Perm4.identity(): 1})

    @classmethod
    def of(cls, perm: Perm4) -> "GroupAlgebraElement":
        return cls({perm: 1})

    def __add__(self, other: "GroupAlgebraElement") -> "GroupAlgebraElement":
        den = math.lcm(self.den, other.den)
        f, g = den // self.den, den // other.den
        out = {p: f * v for p, v in self.nums.items()}
        for p, v in other.nums.items():
            out[p] = out.get(p, 0) + g * v
        return GroupAlgebraElement(out, den)

    def __sub__(self, other: "GroupAlgebraElement") -> "GroupAlgebraElement":
        return self + other.scale(-1)

    def scale(self, r: RationalLike) -> "GroupAlgebraElement":
        r = _frac(r)
        return GroupAlgebraElement(
            {p: r.numerator * v for p, v in self.nums.items()},
            self.den * r.denominator)

    def __mul__(self, other: "GroupAlgebraElement") -> "GroupAlgebraElement":
        """Convolution product; matches composition of the operators.  The
        numerator products are summed over ``self.den * other.den`` and the
        sum is reduced once."""
        right = [(_POSITION[q.images], b) for q, b in other.nums.items()]
        out: dict[int, int] = {}
        for p, a in self.nums.items():
            row = 24 * _POSITION[p.images]
            for j, b in right:
                pq = _PRODUCTS[row + j]
                out[pq] = out.get(pq, 0) + a * b
        return GroupAlgebraElement({S4[k]: v for k, v in out.items()},
                                   self.den * other.den)

    def adjoint(self) -> "GroupAlgebraElement":
        return GroupAlgebraElement(
            {p.inverse(): v for p, v in self.nums.items()}, self.den)

    def is_zero(self) -> bool:
        return not self.nums

    def trace_in_dimension(self, d: int) -> Fraction:
        """Trace of the represented operator on (C^d)^{x4}."""
        return self.trace_with(Perm4.identity(), d)

    def trace_with(self, perm: Perm4, d: int) -> Fraction:
        """tr(U_self U_perm), evaluated by cycle counting."""
        return Fraction(sum(v * d ** (p * perm).cycle_count()
                            for p, v in self.nums.items()), self.den)

    def __eq__(self, other) -> bool:
        return (isinstance(other, GroupAlgebraElement)
                and self.den == other.den and self.nums == other.nums)

    def __repr__(self) -> str:
        return f"GroupAlgebraElement({len(self.nums)} terms)"


# -- Young projectors --------------------------------------------------------

def _e() -> GroupAlgebraElement:
    return GroupAlgebraElement.unit()


def _t(a: int, b: int) -> GroupAlgebraElement:
    return GroupAlgebraElement.of(Perm4.from_cycles((a, b)))


@lru_cache(maxsize=None)
def young_projector_element(shape: Partition) -> GroupAlgebraElement:
    """Group-algebra projector onto the copy of the irrep inside wedge2 x wedge2.

    The three components: the four-fold antisymmetrizer for (1,1,1,1); a
    six-factor sandwich for (2,2); and the complement of both inside the
    projector onto wedge2 x wedge2 for (2,1,1).
    """
    if shape == (1, 1, 1, 1):
        out = GroupAlgebraElement(
            {p: Fraction(p.sign(), 24) for p in S4})
        return out
    if shape == (2, 2):
        e = _e()
        prod_elem = ((e - _t(1, 2)) * (e - _t(3, 4)) * (e + _t(1, 3))
                     * (e + _t(2, 4)) * (e - _t(1, 2)) * (e - _t(3, 4)))
        return prod_elem.scale(Fraction(1, 48))
    if shape == (2, 1, 1):
        return (pair_projector_element()
                - young_projector_element((1, 1, 1, 1))
                - young_projector_element((2, 2)))
    raise ValueError(f"unsupported shape {shape}")


@lru_cache(maxsize=None)
def pair_projector_element() -> GroupAlgebraElement:
    """Projector onto wedge2(AB) x wedge2(A'B') as a group-algebra element."""
    e = _e()
    return ((e - _t(1, 2)) * (e - _t(3, 4))).scale(Fraction(1, 4))


def young_state_element(shape: Partition, d: int) -> GroupAlgebraElement:
    """Normalised Young projector (trace one) as a group-algebra element."""
    dim = weyl_dimension(shape, d)
    if dim == 0:
        raise ValueError(f"state for {shape} is degenerate at d={d} "
                         "(zero-dimensional component)")
    return young_projector_element(shape).scale(Fraction(1, dim))


def present_shapes(d: int) -> tuple[Partition, ...]:
    """The Young shapes whose component is nonzero at this dimension."""
    return tuple(s for s in YOUNG_SHAPES if weyl_dimension(s, d) > 0)


# -- the pair-subspace restriction -------------------------------------------

# H = <(12), (34)> with its character chi, -1 on (12) and on (34): the pair
# basis B below satisfies U_h B = chi(h) B, so the restriction R(X) =
# (1/4) B^T X B obeys R(U_{h q h'}) = chi(h) chi(h') R(U_q)
_H = ((Perm4.identity(), 1), (Perm4.from_cycles((1, 2)), -1),
      (Perm4.from_cycles((3, 4)), -1), (Perm4.from_cycles((1, 2), (3, 4)), 1))

# one representative q of each H-double coset: H (4 permutations),
# H(13)(24)H (4) and H(23)H (16)
COSET_REPS = (Perm4.identity(), Perm4.from_cycles((1, 3), (2, 4)),
              Perm4.from_cycles((2, 3)))


@lru_cache(maxsize=None)
def coset_table() -> dict[Perm4, tuple[int, int]]:
    """Each p = h q h' of S4 as (k, chi(h) chi(h')), with q = COSET_REPS[k]."""
    return {h * q * g: (k, s * t) for k, q in enumerate(COSET_REPS)
            for h, s in _H for g, t in _H}


class PairBasis:
    """Orthogonal basis of wedge2(C^d) x wedge2(C^d) inside (C^d)^{x4}.

    Basis vectors are (|ij> - |ji>) x (|kl> - |lk>) for i<j, k<l (squared norm
    4); the restriction map R(X) = (1/4) B^T X B is an algebra isomorphism on
    operators supported on the subspace, preserves traces, and intertwines the
    partial transpose of factors {2,3} with the partial transpose of the
    second pair factor.  R is never applied to a d^4 x d^4 matrix: every
    restricted operator is built from the signed terms of the basis vectors.
    The tables below are built on first use.
    """

    def __init__(self, d: int):
        if d < 2:
            raise ValueError("d must be at least 2")
        self.d = d
        self.pairs = list(combinations(range(d), 2))
        self.m = len(self.pairs)

    @cached_property
    def terms(self) -> list[tuple[tuple[int, int, int, int, int], ...]]:
        """The four signed computational terms (a, b, a', b', sign) of each
        basis vector, in basis order."""
        return [((i, j, k, l, 1), (j, i, k, l, -1), (i, j, l, k, -1),
                 (j, i, l, k, 1))
                for i, j in self.pairs for k, l in self.pairs]

    @cached_property
    def index(self) -> list[tuple[int, int] | None]:
        """(basis index, sign) of |a b a' b'> at index ((a d + b) d + a') d
        + b'; None off the pair subspace."""
        d = self.d
        index: list[tuple[int, int] | None] = [None] * d ** 4
        for c, terms in enumerate(self.terms):
            for a, b, x, y, s in terms:
                index[((a * d + b) * d + x) * d + y] = (c, s)
        return index

    @cached_property
    def coset_blocks(self) -> tuple[dict[tuple[int, int], int], ...]:
        """4 R(U_q) as int numerators for each q in ``COSET_REPS``: entry
        (r, c) sums the signs of the terms of b_c that U_q sends onto b_r."""
        d, index = self.d, self.index
        blocks = []
        for q in COSET_REPS:
            w0, w1, w2, w3 = (d ** (4 - i) for i in q.images)
            out: dict[tuple[int, int], int] = {}
            for c, terms in enumerate(self.terms):
                for a, b, x, y, s in terms:
                    hit = index[a * w0 + b * w1 + x * w2 + y * w3]
                    if hit is not None:
                        key = (hit[0], c)
                        out[key] = out.get(key, 0) + s * hit[1]
            blocks.append(out)
        return tuple(blocks)

    def restricted_element(self, elem: GroupAlgebraElement) -> SparseRMatrix:
        """R(U_elem) = alpha I + beta R(U_(13)(24)) + gamma R(U_(23)): the
        numerators of ``elem`` collect into one coefficient per H-double
        coset, signed by ``coset_table``."""
        coeffs = [0] * len(COSET_REPS)
        table = coset_table()
        for p, v in elem.nums.items():
            k, s = table[p]
            coeffs[k] += s * v
        out: dict[tuple[int, int], int] = {}
        for coeff, block in zip(coeffs, self.coset_blocks):
            if coeff:
                for key, v in block.items():
                    out[key] = out.get(key, 0) + coeff * v
        return SparseRMatrix(self.m ** 2, out, elem.den * 4)

    def reduce(self, rho: SparseRMatrix) -> SparseRMatrix:
        """tr_{BB'} of the operator (1/4) B rho B^T, whose restriction is
        ``rho``, as a d^2 x d^2 operator on A x A'.  A term of b_r and one of
        b_c meet in the trace when they agree on B and B'; each basis vector
        has one term per (b, b')."""
        d = self.d
        traced = [{(b, y): (a * d + x, s) for a, b, x, y, s in terms}
                  for terms in self.terms]
        out: dict[tuple[int, int], int] = {}
        for (r, c), v in rho.nums.items():
            col = traced[c]
            for key, (i, s) in traced[r].items():
                hit = col.get(key)
                if hit is not None:
                    j, t = hit
                    out[i, j] = out.get((i, j), 0) + (v if s == t else -v)
        return SparseRMatrix(d * d, out, rho.den * 4)

    # compressed building blocks ------------------------------------------

    def identity(self) -> SparseRMatrix:
        return SparseRMatrix.identity(self.m ** 2)

    def _gram(self, group, den: int) -> SparseRMatrix:
        """R(X) for X = (4/den) sum_g w_g w_g^T, w_g the sum of the
        computational vectors |a b a' b'> that ``group`` maps to g (None:
        to no group): R(X) = (1/den) sum_g u_g u_g^T with u_g = B^T w_g,
        whose entry c sums the signs of the terms of b_c in group g."""
        vectors: dict = {}
        for c, terms in enumerate(self.terms):
            for a, b, x, y, s in terms:
                g = group(a, b, x, y)
                if g is not None:
                    u = vectors.setdefault(g, {})
                    u[c] = u.get(c, 0) + s
        out: dict[tuple[int, int], int] = {}
        for u in vectors.values():
            for r, v in u.items():
                for c, w in u.items():
                    out[r, c] = out.get((r, c), 0) + v * w
        return SparseRMatrix(self.m ** 2, out, den)

    def restricted_phi_phi(self) -> SparseRMatrix:
        """R(Phi_{AA'} x Phi_{BB'}) (maximally entangled pairs): Phi x Phi =
        v v^T / d^2 with v the sum of |a b a b>, so R = (B^T v)(B^T v)^T /
        (4 d^2)."""
        return self._gram(lambda a, b, x, y: 0 if (a, b) == (x, y) else None,
                          4 * self.d ** 2)

    def restricted_one_phi(self) -> SparseRMatrix:
        """R(1_{AA'} x Phi_{BB'}): 1 x Phi = sum_{a,a'} v v^T / d with v the
        sum over b of |a b a' b>, so R sums (B^T v)(B^T v)^T / (4 d) over
        (a, a')."""
        return self._gram(lambda a, b, x, y: (a, x) if b == y else None,
                          4 * self.d)


@lru_cache(maxsize=None)
def pair_basis(d: int) -> PairBasis:
    """The ``PairBasis`` of dimension d, shared so that its tables are
    enumerated once per dimension."""
    return PairBasis(d)


# -- the three invariant projectors across the AB:A'B' cut --------------------

@lru_cache(maxsize=None)
def invariant_projectors(d: int) -> tuple[SparseRMatrix, ...]:
    """The three orthogonal projectors (bell, adjoint, tail) spanning the
    commutant on the pair space.

    With P the pair projector, Phi maximally entangled:

        bell    = (2d/(d-1)) P (Phi x Phi) P
        adjoint = (4d/(d-2)) P ((1 - Phi) x Phi) P
        tail    = P - bell - adjoint

    Traces are 1, d^2 - 1 and (d(d-1)/2)^2 - d^2.  All three are returned
    restricted to the pair subspace (m^2 x m^2 with m = d(d-1)/2), built
    once per dimension and shared by every caller, which must not change them.
    """
    if d < 3:
        raise ValueError("d must be at least 3 (the tail component is "
                         "degenerate below that)")
    basis = pair_basis(d)
    phi_phi = basis.restricted_phi_phi()
    one_phi = basis.restricted_one_phi()
    bell = phi_phi.scale(Fraction(2 * d, d - 1))
    adjoint = (one_phi - phi_phi).scale(Fraction(4 * d, d - 2))
    tail = basis.identity() - bell - adjoint
    return bell, adjoint, tail


# -- flip expectations and partial-transpose overlaps -------------------------

_FLIP_AA = Perm4.from_cycles((1, 3))          # F_{A:A'} x 1
_FLIP_BB = Perm4.from_cycles((2, 4))          # 1 x F_{B:B'}
_FLIP_BOTH = Perm4.from_cycles((1, 3), (2, 4))


def flip_overlaps(d: int) -> dict[Partition, Fraction]:
    """tr(rho~_y F_{A:A'}) for each present shape, rho~ the reduction to AA'.

    Equals (-1, 1/2, 0) for the three shapes, independently of d.  Computed
    by cycle counting; the matrix value is
    ``reduced_pair_state(shape, d).trace_product(flip_matrix(d))``.
    """
    return {shape: young_state_element(shape, d).trace_with(_FLIP_AA, d)
            for shape in present_shapes(d)}


def pair_flip_signs(d: int) -> dict[Partition, Fraction]:
    """tr(rho_y (F_{A:A'} x F_{B:B'})) by cycle counting; +1 on the
    symmetric-square shapes, -1 on the alternating-square shape."""
    return {shape: young_state_element(shape, d).trace_with(_FLIP_BOTH, d)
            for shape in present_shapes(d)}


def flip_matrix(d: int) -> SparseRMatrix:
    """The swap operator F|ij> = |ji> on C^d x C^d."""
    swap = {(j * d + i, i * d + j): 1 for i in range(d) for j in range(d)}
    return SparseRMatrix(d * d, swap)


def reduced_pair_state(shape: Partition, d: int) -> SparseRMatrix:
    """Exact reduction tr_{BB'} rho_y, a Werner state on A x A' (d^2 x d^2),
    from the restricted state."""
    if d < 3:
        raise ValueError("d must be at least 3")
    basis = pair_basis(d)
    return basis.reduce(basis.restricted_element(young_state_element(shape, d)))


def werner_mixture(p: Fraction, d: int) -> SparseRMatrix:
    """p * (antisymmetric state) + (1-p) * (symmetric state) on C^d x C^d."""
    p = Fraction(p)
    flip = flip_matrix(d)
    ident = SparseRMatrix.identity(d * d)
    anti = (ident - flip).scale(Fraction(1, d * (d - 1)))
    sym = (ident + flip).scale(Fraction(1, d * (d + 1)))
    return anti.scale(p) + sym.scale(1 - p)


Rows = tuple[tuple[Fraction, ...], ...]


def overlap_closed_forms(d: int) -> Rows:
    """The closed-form overlap table for dimension d >= 3.

    Its rows are the expectations of the PSD operator triple (bell,
    adjoint/2, remainder) against the partially transposed states
    rho_y^Gamma.  The triple resolves the pair projector, so each column
    sums to exactly 1; the rows are the functionals whose tensor powers
    express the PPT constraint of the symmetrised states as a linear
    programme.  (Halving the adjoint projector only rescales a row, and any
    positive rescaling of a row yields the same constraints.)
    """
    if d < 3:
        raise ValueError("d must be at least 3")
    cols = present_shapes(d)
    two = Fraction(2, d * (d - 1))
    bell = {(1, 1, 1, 1): two, (2, 2): two, (2, 1, 1): -two}
    adjoint = {(1, 1, 1, 1): Fraction(-2 * (d + 1), d * (d - 2)),
               (2, 2): Fraction(1, d),
               (2, 1, 1): Fraction(2, d * (d - 2))}
    return (tuple(bell[s] for s in cols),
            tuple(adjoint[s] for s in cols),
            tuple(1 - bell[s] - adjoint[s] for s in cols))


def ppt_overlap_table(d: int) -> Rows:
    """Overlap table from explicit matrices (not the closed forms).

    The ``invariant_projectors`` (adjoint halved) are paired with the exact
    states on the pair subspace; the partial transpose acts on the second
    pair factor.
    """
    if d < 3:
        raise ValueError("d must be at least 3")
    basis = pair_basis(d)
    bell, adjoint, tail = invariant_projectors(d)
    half_adjoint = adjoint.scale(Fraction(1, 2))
    ops = (bell, half_adjoint, tail + half_adjoint)
    rows = [[], [], []]
    for shape in present_shapes(d):
        rho = basis.restricted_element(young_state_element(shape, d))
        rho_pt = rho.partial_transpose(basis.m)
        for row, op in zip(rows, ops):
            row.append(rho_pt.trace_product(op))
    return tuple(tuple(r) for r in rows)


def symbolic_overlap_table(d: int) -> Rows:
    """Overlap table from cycle-count traces (not the closed forms).

    Phi^Gamma = F/d reduces every entry to permutation traces:
    tr(rho^G (Phi x Phi)) = tr(rho F_bothpairs)/d^2 and
    tr(rho^G (1 x Phi)) = tr(rho (1 x F))/d, since transposing a factor of
    Phi yields F/d and the transpose cancels against rho^G.
    """
    if d < 3:
        raise ValueError("d must be at least 3")
    rows = [[], [], []]
    for shape in present_shapes(d):
        elem = young_state_element(shape, d)
        f_both = elem.trace_with(_FLIP_BOTH, d)
        f_single = elem.trace_with(_FLIP_BB, d)
        bell = Fraction(2 * d, d - 1) * f_both / (d * d)
        adjoint = Fraction(2 * d, d - 2) * (f_single / d - f_both / (d * d))
        rows[0].append(bell)
        rows[1].append(adjoint)
        rows[2].append(1 - bell - adjoint)
    return tuple(tuple(r) for r in rows)


# -- PPT constraint matrix -----------------------------------------------------

CORNER_VARIANTS = ("derived", "alt")


def constraint_columns(d, corner: str = "derived"
                       ) -> tuple[tuple[Partition, ...], Rows]:
    """Rescaled constraint matrix restricted to the shapes present at d.

    Rows are indexed (bell, adjoint, tail), columns by the present Young
    shapes among (1,1,1,1), (2,2), (2,1,1).  The overlap rows are multiplied
    by (d(d-1)/2, d, 1), which keeps all entries finite and nonzero as d
    grows.  ``corner="alt"`` substitutes an alternative value
    1 - (2d-3)/(d(d-1)(d-2)) for the (tail, (2,1,1)) entry; the
    overlap-derived value is 1 - 2/(d(d-1)(d-2)).  Both agree in the limit;
    the flag exists for sensitivity checks.  At d = 3 the (1,1,1,1)
    component is zero-dimensional and its column is dropped.
    """
    if corner not in CORNER_VARIANTS:
        raise ValueError(f"corner must be one of {CORNER_VARIANTS}")
    if d == DINF:   # the d -> infinity limit of the rescaled rows
        limit = ((1, 1, -1), (-2, 1, 0), (1, 1, 1))
        return YOUNG_SHAPES, tuple(tuple(map(Fraction, r)) for r in limit)
    if not isinstance(d, int) or d < 3:
        raise ValueError("d must be an integer >= 3 or infinity")
    cols = present_shapes(d)
    scales = (Fraction(d * (d - 1), 2), Fraction(d), Fraction(1))
    rows = [[s * v for v in row]
            for s, row in zip(scales, overlap_closed_forms(d))]
    if corner == "alt":
        rows[2][cols.index((2, 1, 1))] = (
            1 - Fraction(2 * d - 3, d * (d - 1) * (d - 2)))
    return cols, tuple(tuple(row) for row in rows)
