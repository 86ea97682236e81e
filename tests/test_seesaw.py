"""Floating-point see-saw oracle: known values, monotonicity, determinism."""

from itertools import combinations

import numpy as np
import pytest

from antisym import seesaw
from antisym.programs import solve_purity_bound
from antisym.seesaw import (ResourceLimitError, _lift, _pair_isometry,
                            _project, _ritz_step, _run_restart, purity_seesaw)

# Every (d, n) with d^(2n) <= 4096, plus the benchmark's largest d=4 n=4.
ISOMETRY_CASES = ([(d, n) for n in range(1, 7) for d in range(2, 65)
                   if d ** (2 * n) <= 4096] + [(4, 4)])


# -- reference isometry: one tensordot per copy -------------------------------

def reference_pair_isometry(d):
    """(d, d, m) tensor: pair coordinates -> antisymmetric two-tensors."""
    pairs = list(combinations(range(d), 2))
    w = np.zeros((d, d, len(pairs)))
    r = 1.0 / np.sqrt(2.0)
    for p, (i, j) in enumerate(pairs):
        w[i, j, p] = r
        w[j, i, p] = -r
    return w


def reference_lift(u, w, n, d):
    m = w.shape[2]
    t = u.reshape((m,) * n)
    for _ in range(n):
        t = np.tensordot(t, w, axes=([0], [2]))
    # axes now (a_1, b_1, ..., a_n, b_n); group the a's before the b's
    order = list(range(0, 2 * n, 2)) + list(range(1, 2 * n, 2))
    return t.transpose(order).reshape(d ** n, d ** n)


def reference_project(mat, w, n, d):
    order = [None] * (2 * n)
    for k in range(n):
        order[2 * k] = k
        order[2 * k + 1] = n + k
    t = mat.reshape((d,) * (2 * n)).transpose(order)
    for _ in range(n):
        t = np.tensordot(t, w, axes=([0, 1], [0, 1]))
    return t.reshape(-1)


@pytest.mark.parametrize("d,n", ISOMETRY_CASES)
def test_index_maps_match_reference_isometry(d, n):
    rng = np.random.default_rng(1000 * d + n)
    index, weight = w = _pair_isometry(d, n)
    ref = reference_pair_isometry(d)
    m = d * (d - 1) // 2
    assert index.shape == weight.shape == (2 ** n, m ** n)
    flat = index.ravel()
    assert len(np.unique(flat)) == flat.size
    assert flat.min() >= 0 and flat.max() < d ** (2 * n)
    assert np.allclose(np.abs(weight), 2.0 ** (-n / 2), rtol=1e-15, atol=0)
    u = rng.standard_normal(m ** n)
    u /= np.linalg.norm(u)
    x = rng.standard_normal((d ** n, d ** n))
    x /= np.linalg.norm(x)
    lifted = _lift(u, w, n, d)
    assert np.max(np.abs(lifted - reference_lift(u, ref, n, d))) <= 1e-15
    assert np.max(np.abs(_project(x, w, n, d)
                         - reference_project(x, ref, n, d))) <= 1e-15
    assert abs(np.linalg.norm(lifted) - 1.0) <= 1e-14
    assert np.array_equal(lifted.T, (-1) ** n * lifted)
    assert abs(np.sum(lifted * x) - u @ _project(x, w, n, d)) <= 1e-14


@pytest.mark.parametrize("d,n", [(3, 2), (4, 3), (6, 2)])
@pytest.mark.parametrize("seed", [0, 17])
def test_restart_trajectory_matches_reference_route(d, n, seed, monkeypatch):
    best, history = _run_restart(n, d, _pair_isometry(d, n), 200, seed)
    monkeypatch.setattr(seesaw, "_lift", reference_lift)
    monkeypatch.setattr(seesaw, "_project", reference_project)
    ref_best, ref_history = _run_restart(n, d, reference_pair_isometry(d),
                                         200, seed)
    assert len(history) == len(ref_history)
    assert np.allclose(history, ref_history, rtol=0, atol=1e-12)
    assert abs(best - ref_best) <= 1e-12


# -- the Ritz step against np.linalg.eigh --------------------------------------
# The test_top_eigenvector_* names are those of the per-sweep eigensolver
# these tests replaced, kept so that the same test ids keep running.

def random_psd(size, top, seed):
    """Q diag(top, rest) Q^T: the given top eigenvalues over a rest in
    [0, 1/2), with a seeded random orthogonal Q."""
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((size, size)))
    spectrum = np.concatenate([top, rng.uniform(0.0, 0.5, size - len(top))])
    return (q * spectrum) @ q.T


def step(a, u):
    """(result, matvec count) of one Ritz step of ``a`` from unit ``u``."""
    images = []

    def matvec(v):
        images.append(v)
        return a @ v

    return _ritz_step(u, matvec(u), matvec), len(images)


def gaussian_start(size, seed):
    u = np.random.default_rng(seed).standard_normal(size)
    return u / np.linalg.norm(u)


def check_ritz_step(a, seed):
    """One step from a Gaussian start: two matvecs, and a unit vector in
    span{u, Au} whose Rayleigh quotient is the top eigenvalue of the
    compression of ``a`` to that span (orthonormal basis by QR, then eigh)
    and at least u.Au."""
    u = gaussian_start(a.shape[0], seed)
    x, matvecs = step(a, u)
    assert matvecs == 2
    assert abs(np.linalg.norm(x) - 1.0) <= 1e-14
    q, _ = np.linalg.qr(np.column_stack([u, a @ u]))
    assert np.linalg.norm(x - q @ (q.T @ x)) <= 1e-12
    top = np.linalg.eigh(q.T @ a @ q)[0][-1]
    quotient = x @ a @ x
    assert abs(quotient - top) <= 1e-12
    assert quotient >= u @ a @ u


SOLVER_CASES = [(size, seed) for size in (5, 30, 100, 300) for seed in (0, 1)]


@pytest.mark.parametrize("size,seed", SOLVER_CASES)
def test_top_eigenvector_separated_top(size, seed):
    check_ritz_step(random_psd(size, [1.0], seed), seed)


@pytest.mark.parametrize("size,seed", SOLVER_CASES)
def test_top_eigenvector_near_degenerate_top(size, seed):
    check_ritz_step(random_psd(size, [1.0, 1.0 - 1e-6], seed), seed)


@pytest.mark.parametrize("size,seed", SOLVER_CASES)
def test_top_eigenvector_repeated_top(size, seed):
    check_ritz_step(random_psd(size, [1.0, 1.0], seed), seed)


@pytest.mark.parametrize("size", [5, 300])
def test_top_eigenvector_rank_one_breaks_down_at_step_two(size):
    # span{u, Au} of a rank-1 map A = e e^T holds e: one step reaches it
    e = gaussian_start(size, size)
    x, matvecs = step(np.outer(e, e), gaussian_start(size, size + 1))
    assert matvecs == 2
    assert abs(abs(x @ e) - 1.0) <= 1e-14


@pytest.mark.parametrize("size,seed", SOLVER_CASES)
def test_top_eigenvector_restarts_a_full_basis(size, seed):
    # repeated steps are steepest ascent of the Rayleigh quotient: the
    # quotient never falls and reaches a separated top eigenvalue
    a = random_psd(size, [1.0], seed)
    values, vectors = np.linalg.eigh(a)
    x = gaussian_start(size, seed)
    quotients = [x @ a @ x]
    for _ in range(200):
        x, _ = step(a, x)
        quotients.append(x @ a @ x)
    assert all(b >= q - 1e-15 for q, b in zip(quotients, quotients[1:]))
    assert abs(values[-1] - quotients[-1]) <= 1e-12
    assert 1.0 - abs(x @ vectors[:, -1]) <= 1e-12


def test_top_eigenvector_reseeds_from_a_start_in_the_kernel():
    # an eigenvector start (here beta = 0 exactly) comes back unchanged
    # after one matvec, whether its eigenvalue is zero or the top one
    a = np.diag([3.0, 2.0, 1.0, 0.0, 0.0])
    for k in (3, 0, 1):
        u = np.zeros(5)
        u[k] = 1.0
        x, matvecs = step(a, u)
        assert matvecs == 1
        assert np.array_equal(x, u)


def test_matvec_budget_of_a_seesaw_run(monkeypatch):
    # two matvecs per sweep, 316 here; a converged eigensolve per sweep
    # (Lanczos) made about 800, power iteration 1874
    calls = []

    def counted(mat, w, n, d):
        calls.append(None)
        return _project(mat, w, n, d)

    monkeypatch.setattr(seesaw, "_project", counted)
    purity_seesaw(3, 4, restarts=10, iterations=200, seed=5)
    assert 0 < len(calls) < 500


@pytest.mark.parametrize("d,n", [(4, 2), (4, 3), (5, 2), (3, 3)])
@pytest.mark.parametrize("seed", range(5))
def test_seesaw_reaches_the_product_state_purity(d, n, seed):
    # product states of antisymmetric pairs have purity 2^-n
    value = purity_seesaw(n, d, restarts=4, iterations=200, seed=seed)
    assert value >= 2.0 ** -n - 1e-12


def test_single_copy_purity_is_half():
    for d in (3, 4, 5, 6):
        value = purity_seesaw(1, d, restarts=5, iterations=100, seed=11)
        assert abs(value - 0.5) < 1e-9, d


def test_two_copies_dimension_three():
    value = purity_seesaw(2, 3, restarts=20, iterations=500, seed=7)
    assert abs(value - 0.25) < 1e-6


def test_monotone_within_restart():
    w = _pair_isometry(3, 2)
    _, history = _run_restart(2, 3, w, iterations=100, seed=13)
    for a, b in zip(history, history[1:]):
        assert b >= a - 1e-10


def test_result_metadata():
    # the oracle returns the bare float; its inputs are not echoed back
    result = purity_seesaw(1, 3, restarts=2, iterations=50, seed=5)
    assert type(result) is float
    assert 0.0 <= result <= 1.0


def test_deterministic_given_seed_and_thread_count():
    # restarts run one after another; there is no thread count to pass
    a = purity_seesaw(2, 3, restarts=4, iterations=50, seed=42)
    b = purity_seesaw(2, 3, restarts=4, iterations=50, seed=42)
    assert a == b
    with pytest.raises(TypeError):
        purity_seesaw(2, 3, restarts=4, iterations=50, seed=42, threads=3)


def test_value_is_the_best_restart():
    # restart r is seeded with seed + r, one after another
    w = _pair_isometry(3, 2)
    best = max(_run_restart(2, 3, w, 50, 42 + r)[0] for r in range(4))
    assert purity_seesaw(2, 3, restarts=4, iterations=50, seed=42) == best


# purity_seesaw of the benchmark's oracle ops (d, n, restarts, iters) at seeds
# 0 and 1, as computed with each sweep's eigenproblem solved to 1e-13
PINNED_VALUES = {
    (3, 2, 20, 500): (0.24999999999998138, 0.24999999999998138),
    (4, 4, 4, 200): (0.06249999999997981, 0.06249999999997981),
    (4, 3, 10, 200): (0.12499999999998028, 0.12499999999998028),
    (6, 2, 10, 200): (0.24999999999997108, 0.24999999999997108),
    (4, 1, 10, 200): (0.5000000000000002, 0.5000000000000002),
}


@pytest.mark.parametrize("d,n,restarts,iters", PINNED_VALUES)
@pytest.mark.parametrize("seed", [0, 1])
def test_oracle_values_are_pinned(d, n, restarts, iters, seed):
    value = purity_seesaw(n, d, restarts=restarts, iterations=iters,
                          seed=seed)
    assert abs(value - PINNED_VALUES[d, n, restarts, iters][seed]) <= 1e-12
    # every restart finds the same maximum
    w = _pair_isometry(d, n)
    for r in range(restarts):
        best, _ = _run_restart(n, d, w, iters, seed + r)
        assert abs(best - value) <= 1e-9


def test_dimension_guard():
    with pytest.raises(ResourceLimitError):
        purity_seesaw(3, 8, restarts=1, iterations=1, seed=0)


def test_bad_arguments():
    with pytest.raises(ValueError):
        purity_seesaw(0, 3)
    with pytest.raises(ValueError):
        purity_seesaw(1, 3, restarts=0)
    # the seed is checked before the size guard, so no work is done
    with pytest.raises(ValueError, match="^seed must be non-negative$"):
        purity_seesaw(3, 8, seed=-1)


def test_sandwich_against_exact_bounds():
    cases = [(1, 3), (1, 4), (1, 5), (2, 3), (2, 4)]
    for n, d in cases:
        oracle = purity_seesaw(n, d, restarts=6, iterations=100, seed=3)
        exact = solve_purity_bound(n, d, form="full3").value
        assert oracle <= float(exact) + 1e-6, (n, d)
