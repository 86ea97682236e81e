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
one after another.  Each sweep moves the state u to the top Ritz vector on
span{u, Q u} of the projected operator Q v = ``_project(rho @ _lift(v))``:
two matrix-vector products, the first reusing the sweep's lifted state.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np

DIMENSION_GUARD = 2 ** 16

STALL_TOLERANCE = 1e-12

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


def _ritz_step(u: np.ndarray, image: np.ndarray, matvec) -> np.ndarray:
    """Top Ritz vector of a symmetric map A on span{u, Au}.

    ``u`` is a unit vector and ``image`` is Au.  The image is orthogonalised
    twice against u; a zero remainder (u is an eigenvector) returns u itself.
    Otherwise ``matvec`` takes one more image and the top eigenvector of the
    2x2 compression gives the unit result, whose Rayleigh quotient is at least
    u.Au: steepest ascent of the quotient with the best step length.
    """
    alpha = u @ image
    r = image - alpha * u
    r -= (u @ r) * u
    beta = np.linalg.norm(r)
    if beta == 0.0:
        return u
    v = r / beta
    _, vectors = np.linalg.eigh([[alpha, beta], [beta, v @ matvec(v)]])
    x = vectors[0, -1] * u + vectors[1, -1] * v
    return x / np.linalg.norm(x)


def _run_restart(n: int, d: int, w: IndexMaps, iterations: int,
                 seed: int) -> tuple[float, list[float]]:
    """(best purity, purity after each sweep) of one restart on maps ``w``;
    each sweep's final state and comparison matrix open the next sweep."""
    m = d * (d - 1) // 2
    u = np.random.default_rng(seed).standard_normal(m ** n)
    u /= np.linalg.norm(u)
    history: list[float] = []
    best = 0.0
    mat = _lift(u, w, n, d)
    rho = mat @ mat.T
    for _ in range(iterations):
        def matvec(v: np.ndarray) -> np.ndarray:
            return _project(rho @ _lift(v, w, n, d), w, n, d)

        u = _ritz_step(u, _project(rho @ mat, w, n, d), matvec)
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
    state and taking one Rayleigh-Ritz step of the projected operator on the
    span of the state and its image.  That span holds the state, so the
    step's quotient is at least the purity and, by Cauchy-Schwarz, the
    per-restart purity sequence is non-decreasing; the restarts run one
    after another and the best purity over all of them is returned.
    """
    if n < 1 or d < 2:
        raise ValueError("need n >= 1 and d >= 2")
    if restarts < 1 or iterations < 1:
        raise ValueError("restarts and iterations must be positive")
    if seed < 0:
        raise ValueError("seed must be non-negative")
    if d ** (2 * n) > DIMENSION_GUARD:
        raise ResourceLimitError(
            f"d^(2n) = {d ** (2 * n)} exceeds the guard {DIMENSION_GUARD}")
    w = _pair_isometry(d, n)
    value = max(_run_restart(n, d, w, iterations, seed + r)[0]
                for r in range(restarts))
    if value > 1.0 + 1e-9:
        raise ArithmeticError(f"purity {value} exceeds one")
    return min(value, 1.0)
