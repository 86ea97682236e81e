"""The full-space route on (C^d)^{x4}, kept as the reference that the
pair-subspace route of ``antisym.projectors`` is checked against:
group-algebra elements as d^4 x d^4 operators, the normalised Young states,
and the partial trace."""

from itertools import product
from math import prod

from antisym.linalg import SparseRMatrix, _digits, _from_digits
from antisym.projectors import young_state_element


def perm_pairs(images, d):
    """The (row, col) positions of the ones of the operator sending slot k's
    content to slot images[k]."""
    # column digits run in lexicographic order; slot k's digit lands in
    # slot images[k] of the row, whose place value is d^(4 - images[k])
    w0, w1, w2, w3 = (d ** (4 - i) for i in images)
    return zip((a * w0 + b * w1 + x * w2 + y * w3
                for a, b, x, y in product(range(d), repeat=4)),
               range(d ** 4))


def reference_to_operator(elem, d) -> SparseRMatrix:
    """Sparse operator on (C^d)^{x4}: the numerators summed as integers over
    the element's denominator."""
    sums = {}
    for p, v in elem.nums.items():
        for key in perm_pairs(p.images, d):
            sums[key] = sums.get(key, 0) + v
    return SparseRMatrix(d ** 4, sums, elem.den)


def reference_young_state(shape, d) -> SparseRMatrix:
    """Normalised Young projector (trace one) as a sparse operator on
    (C^d)^{x4}."""
    if d < 3:
        raise ValueError("d must be at least 3")
    return reference_to_operator(young_state_element(shape, d), d)


def partial_trace(op: SparseRMatrix, dims, keep) -> SparseRMatrix:
    """Trace out all tensor factors not in ``keep`` (0-based indices) of the
    split of ``op`` into factors of dimensions ``dims``.

    Only stored entries are visited: an entry contributes when its row and
    column agree on every traced factor.
    """
    dims, keep = op._factors(dims, keep)
    drop = [k for k in range(len(dims)) if k not in keep]
    kdims = tuple(dims[k] for k in keep)
    # each index in use -> (its digits on the traced factors, its index on
    # the kept ones)
    split = {}
    for index in {i for key in op.nums for i in key}:
        digits = _digits(index, dims)
        split[index] = (tuple(digits[k] for k in drop),
                        _from_digits([digits[k] for k in keep], kdims))
    out = {}
    for (r, c), v in op.nums.items():
        rdrop, rr = split[r]
        cdrop, cc = split[c]
        if rdrop == cdrop:
            out[(rr, cc)] = out.get((rr, cc), 0) + v
    return SparseRMatrix(prod(kdims), out, op.den)

