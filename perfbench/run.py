"""Benchmark of the antisym exact solvers, end to end and layer by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
``src/``.  Workloads (see workloads.py): finite-lp, limit-lp, rep-verify,
oracle.  Each pass runs the workload's operations in a fresh interpreter
(``worker.py``), in process, through ``antisym.cli.main`` or
``antisym.programs.solve_dual``, and every output is checked.

``--trace 0`` measures, for ``--seconds`` seconds, closed-loop passes one
after another, and reports medians over passes of the end-to-end metrics:

    pass_s        wall time of one pass (after import)
    largest_op_s  wall time of the workload's heaviest operation
    setup_s       fresh interpreter -> antisym imported (median over
                  SETUP_SAMPLES spawns and every pass's own worker)
    peak_rss_mb   peak resident memory of the pass's interpreter
    ok_ratio      operations that passed / operations attempted

``--trace 1`` runs pairs of passes with the same inputs, untraced then
traced, and reports the per-layer metrics of the traced pass (medians over
pairs) and the tracing overhead.  It also runs the benchmark's self-tests and
reports ``correct: false`` if one fails: identical outputs traced and
untraced (a difference also fails the operation), every layer metric that
predictions.json expects on this workload non-zero, and self times that add
up to each operation's wall time.

The last line of stdout is the JSON result; the line before it holds the run
metadata.  A record of the run, with every sample (and the spans of the last
traced pass), is written to ``.perfbench-out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench-out"

SETUP_SAMPLES = 7
RUN_LIMIT_S = 170          # every worker is killed after this much run time
DIFFERS = "traced output differs from untraced"


class BenchError(RuntimeError):
    """The benchmark cannot run here (no program, or it cannot start)."""


def worker_env() -> dict:
    env = dict(os.environ)
    env["ANTISYM_THREADS"] = "1"          # the CLI's default, made explicit
    env.pop("PYTHONPATH", None)
    return env


def spawn_worker(args: list[str], plan: str | None, deadline: float):
    """Run a worker; returns (seconds to "ready", stdout after it, stderr,
    exit code).  The worker prints "ready" once ``antisym`` is imported,
    before it reads the plan, so the first figure is one set-up sample."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), str(SRC)] + args,
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        env=worker_env(), text=True)
    killer = threading.Timer(max(1.0, deadline - time.monotonic()), proc.kill)
    killer.start()
    try:
        line = proc.stdout.readline()
        ready = time.perf_counter() - start
        out, err = proc.communicate(plan)
    finally:
        killer.cancel()
    if line.strip() != "ready":
        return None, "", err, proc.returncode
    return ready, out, err, proc.returncode


def setup_sample(deadline: float) -> float:
    """Seconds from spawning an interpreter to ``antisym`` imported."""
    ready, _, err, code = spawn_worker(["--setup"], None, deadline)
    if ready is None or code != 0:
        raise BenchError(f"antisym failed to import: {err.strip()[-500:]}")
    return ready


def run_pass(ops: list[dict], trace: bool, deadline: float) -> dict | None:
    """One pass in a fresh worker; None if the worker died or timed out."""
    ready, out, err, code = spawn_worker(
        [], json.dumps({"trace": trace, "ops": ops}), deadline)
    if ready is None or code != 0:
        print(f"worker failed: {err.strip()[-2000:]}", file=sys.stderr)
        return None
    result = json.loads(out.splitlines()[-1])
    result["setup_s"] = ready
    return result


def failed_pass(ops: list[dict]) -> dict:
    return {"pass_s": None, "rss_mb": None, "ops": [
        {"id": op["id"], "wall_s": None, "code": None,
         "error": "worker died or timed out", "stdout": "", "stderr": ""}
        for op in ops]}


def metadata(args) -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = "unknown"
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        commit = ref
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            if ref_file.is_file():
                commit = ref_file.read_text().strip()
    return {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "cpu_model": cpu, "nproc": os.cpu_count(),
            "python": platform.python_version(), "commit": commit}


def timed_passes(args, start: float, deadline: float):
    """Untraced passes until the next one would overrun ``--seconds``
    counted from ``start``."""
    passes, problems = [], []
    while True:
        ops = workloads.plan(args.workload, args.seed, len(passes))
        began = time.monotonic()
        result = run_pass(ops, False, deadline) or failed_pass(ops)
        took = time.monotonic() - began
        passes.append(result)
        problems.append(workloads.check_pass(args.workload, result["ops"]))
        if result["pass_s"] is None or \
                time.monotonic() - start + took > args.seconds:
            return passes, problems


def traced_pairs(args, deadline: float):
    """Pairs (untraced, traced) with the same inputs, while time remains."""
    pairs, problems = [], []
    start = time.monotonic()
    while True:
        ops = workloads.plan(args.workload, args.seed, len(pairs))
        began = time.monotonic()
        plain = run_pass(ops, False, deadline) or failed_pass(ops)
        traced = run_pass(ops, True, deadline) or failed_pass(ops)
        took = time.monotonic() - began
        bad = workloads.check_pass(args.workload, plain["ops"])
        for a, b in zip(plain["ops"], traced["ops"]):
            if (a["code"], a["stdout"]) != (b["code"], b["stdout"]):
                bad[a["id"]].append(DIFFERS)
        pairs.append((plain, traced))
        problems.append(bad)
        if traced["pass_s"] is None or \
                time.monotonic() - start + took > args.seconds:
            return pairs, problems


def median(values):
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else None


def layer_report(args, pairs, problems) -> tuple[dict, dict]:
    """Per-layer metrics (medians over traced passes) and self-test results."""
    import tracing
    predictions = json.loads((HERE / "predictions.json").read_text())
    per_pass, overheads, accounting, op_gaps = [], [], [], []
    for plain, traced in pairs:
        if traced["pass_s"] is None or plain["pass_s"] is None:
            continue
        per_pass.append(tracing.layer_metrics(traced["spans"],
                                              traced["counters"]))
        overheads.append(traced["pass_s"] - plain["pass_s"])
        accounting.append(tracing.accounting_error(traced["spans"]))
        selfs = tracing.self_times(traced["spans"])
        sums = {}
        for span, t in zip(traced["spans"], selfs):
            sums[span[4]] = sums.get(span[4], 0.0) + t
        for k, op in enumerate(traced["ops"]):
            op_gaps.append(abs(sums.get(k, 0.0) - op["wall_s"]))
    if not per_pass:
        return {}, {"ok": False, "reason": "no traced pass completed"}
    metrics = {name: median([m[name] for m in per_pass])
               for name in per_pass[0]}
    overhead = median(overheads)
    metrics["trace.overhead_s"] = overhead
    metrics["trace.untraced_pass_s"] = median(
        [p["pass_s"] for p, _ in pairs if p["pass_s"] is not None])
    metrics["trace.traced_pass_s"] = median(
        [t["pass_s"] for _, t in pairs if t["pass_s"] is not None])

    sites = pairs[-1][1].get("sites", {})
    absent = {t for t, n in sites.items() if n == 0}
    targets = tracing.metric_targets()
    zero = [name for name, pred in predictions["layers"].items()
            if args.workload in pred["nonzero_on"] and not metrics.get(name)
            # exempt when the program no longer has any of the code
            and not all(t in absent for t in targets[name])]
    # Self times must add up to each op's wall time in the traced pass, to
    # within the tracing overhead.  The untraced pass runs in another
    # interpreter, whose time for the same op differs by up to a third on a
    # shared machine, so it would test the machine rather than the spans.
    op_gap = max(op_gaps)
    differ = sum(DIFFERS in bad for p in problems for bad in p.values())
    selftest = {"outputs_differing": differ, "zero_layers": zero,
                "accounting_error_s": max(accounting),
                "worst_op_gap_s": op_gap,
                "absent_functions": sorted(absent)}
    selftest["ok"] = (not differ and not zero and max(accounting) < 1e-6
                      and op_gap <= abs(overhead) + 1e-3)
    return metrics, selftest


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + RUN_LIMIT_S

    if not (SRC / "antisym" / "__init__.py").is_file():
        print(f"error: no antisym sources under {SRC}", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    meta = metadata(args)
    record = {"meta": meta}
    try:
        if args.trace:
            pairs, problems = traced_pairs(args, deadline)
            metrics, selftest = layer_report(args, pairs, problems)
            meta["selftest"] = selftest
            record.update(samples=[
                {"untraced_pass_s": p["pass_s"], "traced_pass_s": t["pass_s"]}
                for p, t in pairs], spans=pairs[-1][1].get("spans"))
            units = {m["name"]: m["unit"] for m in bench["per_layer"]}
        else:
            start = time.monotonic()
            setups = [setup_sample(deadline) for _ in range(SETUP_SAMPLES)]
            passes, problems = timed_passes(args, start, deadline)
            largest = workloads.WORKLOADS[args.workload].largest
            metrics = {
                "pass_s": median([p["pass_s"] for p in passes]),
                "largest_op_s": median([op["wall_s"] for p in passes
                                        for op in p["ops"]
                                        if op["id"] == largest]),
                "setup_s": median(setups + [p.get("setup_s") for p in passes]),
                "peak_rss_mb": median([p["rss_mb"] for p in passes]),
            }
            record.update(samples=[
                {"pass_s": p["pass_s"], "rss_mb": p["rss_mb"],
                 "setup_s": p.get("setup_s"),
                 "ops": {op["id"]: op["wall_s"] for op in p["ops"]}}
                for p in passes], setup_samples=setups)
            units = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    first = (pairs[0][0] if args.trace else passes[0])
    meta.update(first.get("versions", {}), thread_env=first.get("env"))
    attempted = sum(len(p) for p in problems)
    failed = sum(1 for p in problems for bad in p.values() if bad)
    meta["fail_ratio"] = failed / attempted
    if not args.trace:
        metrics["ok_ratio"] = (attempted - failed) / attempted
    for p in problems:
        for op_id, bad in p.items():
            for msg in bad:
                print(f"FAIL {op_id}: {msg}", file=sys.stderr)
    correct = (failed == 0 and all(metrics.get(n) is not None for n in units)
               and (not args.trace or meta["selftest"]["ok"]))
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": metrics.get(name), "unit": unit}
                          for name, unit in units.items()}}
    record["result"] = result
    OUT_DIR.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT_DIR / name).write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps({"meta": meta}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
