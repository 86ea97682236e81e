"""The benchmark's traced self-test, one traced pass per workload.

A change that makes a workload's output fail its check, or that zeroes a
layer metric the benchmark expects to be non-zero, fails here before it
fails ``perfbench/run.py --trace 1``.  The pass runs in a fresh worker
exactly as the benchmark spawns it, on the first plan of seed 1.
"""

import json
import sys
import time
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.append(str(PERFBENCH))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

PREDICTIONS = json.loads((PERFBENCH / "predictions.json").read_text())


def zero_layers(workload: str, traced: dict) -> list[str]:
    """Layers that ``run.layer_report`` reports as zero on one traced pass:
    expected non-zero on ``workload``, read as zero, and with at least one
    of their functions still bound somewhere in the program."""
    metrics = tracing.layer_metrics(traced["spans"], traced["counters"])
    absent = {t for t, n in traced["sites"].items() if n == 0}
    targets = tracing.metric_targets()
    return [name for name, pred in PREDICTIONS["layers"].items()
            if workload in pred["nonzero_on"] and not metrics.get(name)
            and not all(t in absent for t in targets[name])]


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_traced_pass_passes_the_benchmark_self_test(workload):
    plan = {"trace": True, "ops": workloads.plan(workload, 1, 0)}
    ready, out, err, code = run.spawn_worker(
        [], json.dumps(plan), time.monotonic() + run.RUN_LIMIT_S)
    assert ready is not None and code == 0, err
    traced = json.loads(out.splitlines()[-1])
    problems = workloads.check_pass(workload, traced["ops"])
    assert not any(problems.values()), problems
    assert zero_layers(workload, traced) == []
