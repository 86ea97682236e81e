"""Floating-point see-saw oracle for the maximum purity.

This is the only module whose floating-point results are reported (the
simplex's float basis guess only steers exact pivoting).  Its result is a
floating-point estimate from below, not certified (see the exact sandwich in
ROADMAP.md), of the maximum purity of the A-side reduction over unit vectors in
the n-fold tensor power of the antisymmetric pair subspace; cf. the LP bounds.

A state is m^n coefficients over products of the m = d(d-1)/2 pair vectors
(e_i e_j - e_j e_i)/sqrt(2), i < j.  The isometry onto (d^n, d^n) amplitude
matrices is one scatter (``_lift``) and its adjoint one gather (``_project``)
through index maps built once per call and shared by its restarts, which run
one after another.  Each sweep's top eigenvector is found by a Lanczos
iteration, one matrix-vector product (``_project`` after ``_lift``) per
Krylov step.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np

DIMENSION_GUARD = 2 ** 16

STALL_TOLERANCE = 1e-12
EIGEN_TOLERANCE = 1e-13
MATVEC_BUDGET = 20_000
KRYLOV_DIM = 40

IndexMaps = tuple[np.ndarray, np.ndarray]


class ResourceLimitError(RuntimeError):
    """Problem size exceeds the configured memory guard."""


def _pair_isometry(d: int, n: int) -> IndexMaps:
    """Index maps of the isometry W^{(x)n} from pair coordinates.

    ``(index, weight)``, each (2^n, m^n): the flat (d^n, d^n) positions and
    entries +-2^(-n/2) of a coefficient's image, one per orientation of its
    n pairs (coefficients in big-endian pair order).
    """
    i, j = np.array(list(combinations(range(d), 2))).T
    # flat offset of one copy's pair, per orientation: index -> index*d + step
    step = np.array([i * d ** n + j, j * d ** n + i])
    index = np.zeros((1, 1), dtype=np.intp)
    r = 1.0 / np.sqrt(2.0)
    scale = np.ones(1)
    for _ in range(n):
        index = (index[:, None, :, None] * d
                 + step[None, :, None, :]).reshape(2 * len(index), -1)
        scale = np.outer(scale, [r, -r]).ravel()
    return index, np.broadcast_to(scale[:, None], index.shape)


def _lift(u: np.ndarray, w: IndexMaps, n: int, d: int) -> np.ndarray:
    """Coefficient vector -> amplitude matrix of shape (d^n, d^n)."""
    index, weight = w
    out = np.zeros(d ** (2 * n))
    out[index] = weight * u
    return out.reshape(d ** n, d ** n)


def _project(mat: np.ndarray, w: IndexMaps, n: int, d: int) -> np.ndarray:
    """Adjoint of ``_lift``: amplitude matrix -> coefficient vector."""
    index, weight = w
    return (mat.ravel()[index] * weight).sum(axis=0)


def _top_eigenvector(matvec, start: np.ndarray, rng: np.random.Generator
                     ) -> np.ndarray:
    """Lanczos iteration for the top eigenvector of a PSD map.

    Builds an orthonormal Krylov basis from ``start`` (each new vector
    orthogonalised twice against the whole basis) and returns the top Ritz
    vector of the tridiagonal projection once the top Ritz value changes by
    less than ``EIGEN_TOLERANCE`` (relative) or the next basis vector is below
    that tolerance (an invariant subspace).  A full basis restarts from its
    top Ritz vector.  A start whose first image is zero is replaced by a
    Gaussian draw from ``rng``.  At most ``MATVEC_BUDGET`` images are taken.
    """
    basis = np.empty((KRYLOV_DIM, start.shape[0]))
    tri = np.zeros((KRYLOV_DIM, KRYLOV_DIM))
    v = start / np.linalg.norm(start)
    k, theta, y = 0, 0.0, np.ones(1)
    for _ in range(MATVEC_BUDGET):
        basis[k] = v
        nxt = matvec(v)
        if k == 0 and np.linalg.norm(nxt) < 1e-300:
            # start vector orthogonal to the support; reseed deterministically
            v = rng.standard_normal(v.shape[0])
            v /= np.linalg.norm(v)
            continue
        span = basis[:k + 1]
        coeff = span @ nxt
        nxt -= span.T @ coeff
        nxt -= span.T @ (span @ nxt)
        tri[k, k] = coeff[k]
        values, vectors = np.linalg.eigh(tri[:k + 1, :k + 1])
        top, y = values[-1], vectors[:, -1]
        beta = np.linalg.norm(nxt)
        if (top - theta < EIGEN_TOLERANCE * top
                or beta < EIGEN_TOLERANCE * top):
            break
        if k + 1 == KRYLOV_DIM:
            # restart from the top Ritz vector
            v = y @ basis
            v /= np.linalg.norm(v)
            k = 0
            continue
        tri[k, k + 1] = tri[k + 1, k] = beta
        v = nxt / beta
        k, theta = k + 1, top
    u = y @ basis[:len(y)]
    return u / np.linalg.norm(u)


def _run_restart(n: int, d: int, w: IndexMaps, iterations: int,
                 seed: int) -> tuple[float, list[float]]:
    """(best purity, purity after each sweep) of one restart on maps ``w``;
    each sweep's final state and comparison matrix open the next sweep."""
    rng = np.random.default_rng(seed)
    m = d * (d - 1) // 2
    u = rng.standard_normal(m ** n)
    u /= np.linalg.norm(u)
    history: list[float] = []
    best = 0.0
    mat = _lift(u, w, n, d)
    rho = mat @ mat.T
    for _ in range(iterations):
        def matvec(v: np.ndarray) -> np.ndarray:
            return _project(rho @ _lift(v, w, n, d), w, n, d)

        u = _top_eigenvector(matvec, u, rng)
        mat = _lift(u, w, n, d)
        rho = mat @ mat.T
        purity = float(np.sum(rho * rho))
        history.append(purity)
        if purity < best + STALL_TOLERANCE:
            best = max(best, purity)
            break
        best = purity
    return best, history


def purity_seesaw(n: int, d: int, restarts: int = 10, iterations: int = 200,
                  seed: int = 0) -> float:
    """Alternating maximisation of the reduced-state purity.

    Each restart draws a normalised Gaussian start (generator seeded with
    seed + restart index), then alternates between fixing the comparison
    state and taking the top eigenvector of the projected operator.  The
    per-restart purity sequence is non-decreasing; the restarts run one
    after another and the best purity over all of them is returned.
    """
    if n < 1 or d < 2:
        raise ValueError("need n >= 1 and d >= 2")
    if restarts < 1 or iterations < 1:
        raise ValueError("restarts and iterations must be positive")
    if d ** (2 * n) > DIMENSION_GUARD:
        raise ResourceLimitError(
            f"d^(2n) = {d ** (2 * n)} exceeds the guard {DIMENSION_GUARD}")
    w = _pair_isometry(d, n)
    value = max(_run_restart(n, d, w, iterations, seed + r)[0]
                for r in range(restarts))
    if value > 1.0 + 1e-9:
        raise ArithmeticError(f"purity {value} exceeds one")
    return min(value, 1.0)
