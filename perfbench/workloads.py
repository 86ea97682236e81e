"""The four workloads: their operations, how a seed orders them, and the
checks every output must pass.

A pass runs a workload's fixed list of operations.  The seed (with the pass
index) shuffles their order and draws the see-saw seeds, so the same seed
gives the same passes.  Checks compare against exact values: the paper's
goldens, identities between operations of one pass, and the optima the
certified solver returned at the commit that defined this benchmark.

Known defects that the roadmap plans to fix are deliberately not pinned, so
that fixing them is not counted as a failure: the d-label of the ``bounds``
LP rows, the 1e-6 slack of the see-saw sandwich, and the absence of a
resource guard on the exact LPs (no operation here is large enough to trip a
reasonable guard).
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction as F
from typing import Callable

DINF = "inf"


@dataclass(frozen=True)
class Op:
    id: str
    argv: tuple[str, ...]
    check: Callable[[str], list[str]]     # stdout -> problems


@dataclass(frozen=True)
class Workload:
    name: str
    ops: tuple[Op, ...]
    largest: str                          # id of the heaviest operation
    # outputs by op id -> (op ids, problem) for failed identities between ops
    cross: Callable[[dict[str, str]], list[tuple[tuple[str, ...], str]]] = \
        lambda outs: []


# -- parsing -------------------------------------------------------------------

def _rows(text: str) -> list[dict]:
    rows = json.loads(text)["results"]
    for r in rows:
        e = r["exact"]
        r["exact"] = None if e is None else F(int(e["num"]), int(e["den"]))
    return rows


def _by_quantity(rows: list[dict]) -> dict[str, dict]:
    return {r["quantity"]: r for r in rows}


def _value(text: str) -> F:
    v = json.loads(text)
    return F(int(v["num"]), int(v["den"]))


def _close(a: float, b: float, rel: float = 1e-12) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b), 1e-300)


# -- per-operation checks --------------------------------------------------------

def lp_primal_check(n: int, d, golden: F | None = None,
                    at_most: F | None = None):
    """The optimum equals ``golden`` (or is at most ``at_most``); the dual
    optimum equals the primal; every row names the (n, d) requested."""
    def check(text: str) -> list[str]:
        rows = _rows(text)
        q = _by_quantity(rows)
        value = q["purity_bound"]["exact"]
        bad = []
        if golden is not None and value != golden:
            bad.append(f"purity_bound {value} != {golden}")
        if at_most is not None and not 0 < value <= at_most:
            bad.append(f"purity_bound {value} not in (0, {at_most}]")
        if q["dual_value"]["exact"] != value:
            bad.append("dual optimum differs from primal optimum")
        for name in ("ec_lower", "er_lower"):
            if q[name]["exact"] != value:
                bad.append(f"{name} exact core differs from the optimum")
        ec = (math.log2(value.denominator) - math.log2(value.numerator)) / n
        if not _close(q["ec_lower"]["decimal"], ec, 1e-9):
            bad.append("ec_lower decimal is not -(1/n) log2 of the optimum")
        if any(r["n"] != n or r["d"] != d for r in rows):
            bad.append(f"a row is not labelled n={n} d={d}")
        return bad
    return check


def solve_dual_check(n: int):
    def check(text: str) -> list[str]:
        value = _value(text)
        limit = F(3, 4) ** n
        return [] if 0 < value <= limit else [f"dual {value} not in (0, (3/4)^{n}]"]
    return check


def lp_dual_check(n: int):
    def check(text: str) -> list[str]:
        q = _by_quantity(_rows(text))
        bad = []
        if q["feasible"]["exact"] != 1:
            bad.append("geometric dual point not feasible")
        if q["dual_bound_z"]["exact"] != F(3, 4) ** n:
            bad.append(f"dual bound != (3/4)^{n}")
        if sum(1 for name in q if name.startswith("delta_")) != n + 1:
            bad.append("wrong number of dual weights")
        return bad
    return check


VERIFY_FAST = ("plethysm_dimensions", "plethysm_characters",
               "projector_group_algebra", "projector_traces",
               "flip_expectations", "pair_flip_signs",
               "transpose_overlaps_(symbolic)")
VERIFY_FULL = VERIFY_FAST + ("projector_matrices_(restricted)",
                             "reduced_pair_states", "invariant_projectors",
                             "transpose_overlaps_(matrix)")


def verify_check(d: int, level: str):
    expected = VERIFY_FULL if level == "full" else VERIFY_FAST

    def check(text: str) -> list[str]:
        rows = _rows(text)
        bad = [f"{r['quantity']} = {r['exact']}" for r in rows if r["exact"] != 1]
        missing = set(expected) - {r["quantity"] for r in rows}
        if missing:
            bad.append(f"missing checks {sorted(missing)}")
        if any(r["d"] != d for r in rows):
            bad.append(f"a row is not labelled d={d}")
        return bad
    return check


def purity_check(n: int, d: int, lp_value: F, exact_seesaw: float | None):
    """Sandwich holds, the LP side is the certified optimum, and the
    see-saw hits its known value where one is known (n = 1, 2)."""
    def check(text: str) -> list[str]:
        q = _by_quantity(_rows(text))
        bad = []
        seesaw = q["purity_seesaw"]["decimal"]
        if q["purity_lp_bound"]["exact"] != lp_value:
            bad.append(f"purity_lp_bound {q['purity_lp_bound']['exact']} != {lp_value}")
        if q["sandwich_ok"]["exact"] != 1:
            bad.append("sandwich_ok is not 1")
        if not 0 < seesaw <= float(lp_value) + 1e-6:
            bad.append(f"see-saw value {seesaw} outside (0, LP bound]")
        if exact_seesaw is not None and abs(seesaw - exact_seesaw) > 1e-9:
            bad.append(f"see-saw value {seesaw} != {exact_seesaw}")
        return bad
    return check


def squashed_check(d: int):
    def check(text: str) -> list[str]:
        q = _by_quantity(_rows(text))
        bad = []
        core = F(d + 2, d) if d % 2 == 0 else F(d + 3, d - 1)
        if q["key_upper_bound"]["exact"] != core:
            bad.append("key_upper_bound closed form mismatch")
        if q["argmin_k"]["exact"] != (d // 2 + 1 if d % 2 == 0 else (d + 1) // 2):
            bad.append("argmin_k mismatch")
        for k in range(2, d + 1):
            row = q.get(f"cmi_k{k}")
            want = F(k, k - 1) * F(d - k + 2, d - k + 1)
            if row is None or row["exact"] != want:
                bad.append(f"cmi_k{k} != {want}")
            elif not _close(row["decimal"], math.log2(want)):
                bad.append(f"cmi_k{k} decimal != log2 of its ratio")
        return bad
    return check


def bounds_check(d: int, n: int, finite_value: F):
    """Closed-form rows are exact.  The LP rows may hold the limit optimum
    or the finite-d optimum (the d-label defect is not pinned)."""
    def check(text: str) -> list[str]:
        rows = _rows(text)
        q = _by_quantity(rows)
        bad = []
        kd = F(d + 2, d) if d % 2 == 0 else F(d + 3, d - 1)
        for name, want in (("kd_upper", kd), ("ec_lower_analytic", F(4, 3)),
                           ("er_lower_analytic", F(4, 3)),
                           ("er_ppt_reference", F(d + 2, d))):
            if name not in q or q[name]["exact"] != want:
                bad.append(f"{name} != {want}")
        lp_rows = [r for r in rows if r["quantity"].startswith(("ec_lower_lp",
                                                                "er_lower_lp"))]
        if not lp_rows:
            bad.append("no LP rows")
        for r in lp_rows:
            allowed = {LIMIT_GOLDEN[n]} if r["d"] == DINF else {LIMIT_GOLDEN[n],
                                                               finite_value}
            if r["exact"] not in allowed:
                bad.append(f"{r['quantity']} d={r['d']} holds {r['exact']}")
        return bad
    return check


# -- the workloads -------------------------------------------------------------

# Exact optima returned (and certified) at the commit defining the benchmark.
FULL3_GOLDEN = {
    (4, 8, "none", "derived"): F(353583877373, 27287445045248),
    (5, 8, "none", "derived"): F(1367088245599, 82274737024000),
    (8, 8, "none", "derived"): F(5216127907829977, 224295540141457408),
    (6, 8, "even", "derived"): F(77912758884985, 4023802263280896),
    (5, 7, "none", "alt"): F(9461123401, 344525363200),
    (3, 8, "none", "derived"): F(1, 2 ** 8),          # 2^-n at d = 3
    (3, 2, "none", "derived"): F(1, 4),
    (4, 4, "none", "derived"): F(161621, 1578496),
    (4, 3, "none", "derived"): F(571, 3392),
    (6, 2, "none", "derived"): F(335, 972),
    (4, 1, "none", "derived"): F(1, 2),
}
# The paper's limit-programme optima.
LIMIT_GOLDEN = {8: F(5, 66), 10: F(12, 283), 12: F(26, 1119)}


def _full3(d: int, n: int, parity: str = "none", corner: str = "derived") -> Op:
    argv = ["lp", "primal", "--n", str(n), "--d", str(d), "--form", "full3"]
    name = f"full3 d={d} n={n}"
    if parity != "none":
        argv += ["--parity", parity]
        name += f" {parity}"
    if corner != "derived":
        argv += ["--corner", corner]
        name += f" {corner}"
    return Op(name, tuple(argv + ["--format", "json"]),
              lp_primal_check(n, d, FULL3_GOLDEN[(d, n, parity, corner)]))


def _limit(n: int) -> Op:
    return Op(f"limit n={n}",
              ("lp", "primal", "--n", str(n), "--dinf", "--format", "json"),
              lp_primal_check(n, DINF, LIMIT_GOLDEN.get(n),
                              at_most=F(3, 4) ** n))


def _limit_cross(outs: dict[str, str]) -> list[tuple[tuple[str, ...], str]]:
    bad = []
    for n in (24, 48):
        ids = (f"limit n={n}", f"solve_dual n={n}")
        primal = _by_quantity(_rows(outs[ids[0]]))["purity_bound"]["exact"]
        if primal != _value(outs[ids[1]]):
            bad.append((ids, f"primal and reduced-dual optima differ at n={n}"))
    return bad


def _verify(d: int, level: str) -> Op:
    return Op(f"verify d={d} {level}",
              ("verify", "rep", "--d", str(d), "--level", level,
               "--format", "json"),
              verify_check(d, level))


def _purity(d: int, n: int, restarts: int, iters: int) -> Op:
    known = 0.5 if n == 1 else 0.25 if (d, n) == (3, 2) else None
    return Op(f"purity d={d} n={n}",
              ("purity", "--d", str(d), "--n", str(n), "--restarts",
               str(restarts), "--iters", str(iters), "--format", "json"),
              purity_check(n, d, FULL3_GOLDEN[(d, n, "none", "derived")],
                           known))


WORKLOADS = {w.name: w for w in (
    Workload("finite-lp", (
        _full3(4, 8), _full3(5, 8), _full3(8, 8), _full3(6, 8, parity="even"),
        _full3(5, 7, corner="alt"), _full3(3, 8)),
        largest="full3 d=8 n=8"),
    Workload("limit-lp", (
        _limit(10), _limit(12), _limit(24), _limit(48),
        Op("solve_dual n=24", ("solve_dual", "24"), solve_dual_check(24)),
        Op("solve_dual n=48", ("solve_dual", "48"), solve_dual_check(48)),
        Op("lp dual n=20", ("lp", "dual", "--n", "20", "--format", "json"),
           lp_dual_check(20))),
        largest="solve_dual n=48", cross=_limit_cross),
    Workload("rep-verify", (
        _verify(4, "full"), _verify(5, "full"), _verify(6, "fast"),
        _verify(7, "fast")),
        largest="verify d=5 full"),
    Workload("oracle", (
        _purity(3, 2, 20, 500), _purity(4, 4, 4, 200), _purity(4, 3, 10, 200),
        _purity(6, 2, 10, 200), _purity(4, 1, 10, 200),
        Op("squashed d=64", ("squashed", "--d", "64", "--all-k",
                             "--format", "json"), squashed_check(64)),
        Op("bounds d=4 n=8", ("bounds", "--d", "4", "--n", "8",
                              "--format", "json"),
           bounds_check(4, 8, FULL3_GOLDEN[(4, 8, "none", "derived")]))),
        largest="purity d=4 n=4"),
)}


def plan(workload: str, seed: int, pass_index: int) -> list[dict]:
    """The ops of one pass, in seeded order, with seeded see-saw seeds."""
    rng = random.Random(f"{workload}/{seed}/{pass_index}")
    ops = list(WORKLOADS[workload].ops)
    rng.shuffle(ops)
    out = []
    for op in ops:
        argv = list(op.argv)
        if argv[0] == "purity":
            argv += ["--seed", str(rng.randrange(2 ** 31))]
        out.append({"id": op.id, "argv": argv})
    return out


def check_pass(workload: str, ops: list[dict]) -> dict[str, list[str]]:
    """Problems per op id for one pass's results (empty list: passed).

    An op fails if it raised, exited non-zero, or its output fails a check.
    A failed cross-operation identity fails the ops it relates.
    """
    w = WORKLOADS[workload]
    checks = {op.id: op.check for op in w.ops}
    problems: dict[str, list[str]] = {}
    outs = {}
    for op in ops:
        bad = []
        if op["error"] is not None:
            bad.append(op["error"])
        elif op["code"] != 0:
            bad.append(f"exit code {op['code']}: {op['stderr'].strip()}")
        else:
            try:
                bad = checks[op["id"]](op["stdout"])
            except Exception as exc:      # a wrong output can raise anything
                bad = [f"unreadable output: {type(exc).__name__}: {exc}"]
            outs[op["id"]] = op["stdout"]
        problems[op["id"]] = bad
    if len(outs) == len(w.ops):
        try:
            cross = w.cross(outs)
        except Exception as exc:      # a wrong output can raise anything
            cross = [(tuple(outs), f"unreadable output: {type(exc).__name__}: {exc}")]
        for ids, msg in cross:
            for op_id in ids:
                problems[op_id].append(msg)
    return problems
