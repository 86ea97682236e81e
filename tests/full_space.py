"""The full-space route on (C^d)^{x4}, kept as the reference that the
pair-subspace route of ``antisym.projectors`` is checked against:
group-algebra elements as d^4 x d^4 operators, the normalised Young states,
the maximally entangled pairs, the restriction to the pair subspace and the
partial trace."""

from itertools import product
from math import prod

from antisym.linalg import ShapeError, SparseRMatrix
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


def phi_phi(d) -> SparseRMatrix:
    """Phi_{AA'} x Phi_{BB'} on (C^d)^{x4}, factors ordered A, B, A', B'."""
    diagonal = [((i * d + j) * d + i) * d + j
                for i in range(d) for j in range(d)]
    return SparseRMatrix(d ** 4, {(r, c): 1 for r in diagonal
                                  for c in diagonal}, d * d)


def one_phi(d) -> SparseRMatrix:
    """1_{AA'} x Phi_{BB'} on (C^d)^{x4}."""
    data = {}
    for a in range(d):
        for x in range(d):
            for j in range(d):
                for l in range(d):
                    data[((a * d + j) * d + x) * d + j,
                         ((a * d + l) * d + x) * d + l] = 1
    return SparseRMatrix(d ** 4, data, d)


def restrict(basis, op: SparseRMatrix) -> SparseRMatrix:
    """R(op) = (1/4) B^T op B for the pair basis B of ``basis``, entry by
    entry: an entry counts when its row and column lie on the subspace."""
    index = basis.index
    out = {}
    for (r, c), v in op.nums.items():
        row, col = index[r], index[c]
        if row is not None and col is not None:
            key = (row[0], col[0])
            out[key] = out.get(key, 0) + row[1] * col[1] * v
    return SparseRMatrix(basis.m ** 2, out, op.den * 4)


def _digits(index, dims):
    out = []
    for f in reversed(dims):
        index, r = divmod(index, f)
        out.append(r)
    return tuple(reversed(out))


def _from_digits(digits, dims):
    index = 0
    for x, f in zip(digits, dims):
        index = index * f + x
    return index


def partial_trace(op: SparseRMatrix, dims, keep) -> SparseRMatrix:
    """Trace out all tensor factors not in ``keep`` (0-based indices) of the
    split of ``op`` into factors of dimensions ``dims``.

    Only stored entries are visited: an entry contributes when its row and
    column agree on every traced factor.
    """
    dims = tuple(dims)
    if any(f <= 0 for f in dims):
        raise ShapeError(f"factor dimensions must be positive, got {dims}")
    if prod(dims) != op.n:
        raise ShapeError(f"product of factor dims {dims} != {op.n} rows")
    keep = sorted(set(keep))
    if any(k < 0 or k >= len(dims) for k in keep):
        raise ShapeError(f"factor indices {keep} out of range for {dims}")
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

