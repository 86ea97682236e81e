"""One benchmark pass in a fresh interpreter.

    python3 perfbench/worker.py SRC --setup    import antisym, print "ready"
    python3 perfbench/worker.py SRC < PLAN     the same, then run the pass PLAN

PLAN is {"trace": bool, "ops": [{"id": str, "argv": [str, ...]}, ...]}.
An op's argv is either a CLI command line for ``antisym.cli.main`` or
["solve_dual", N] for ``antisym.programs.solve_dual``.  The pass runs the
ops in order, in process, and prints one more JSON line with their outputs and
wall times, the pass wall time, peak RSS and, when traced, the spans and
counters.
"""

import sys
import time


def main() -> int:
    src = sys.argv[1]
    sys.path.insert(0, src)
    import antisym.cli                            # the cost setup_s measures
    sys.stdout.write("ready\n")
    sys.stdout.flush()
    if "--setup" in sys.argv[2:]:
        return 0

    import contextlib
    import io
    import json
    import os
    import resource

    if not os.path.abspath(antisym.__file__).startswith(os.path.abspath(src)):
        print(f"antisym imported from {antisym.__file__}, not {src}",
              file=sys.stderr)
        return 2
    plan = json.load(sys.stdin)
    tracer = None
    if plan["trace"]:
        import tracing
        tracer = tracing.Tracer()
        tracing.install(tracer)
    cli = antisym.cli
    programs = antisym.programs

    ops = []
    pass_start = time.perf_counter()
    for k, op in enumerate(plan["ops"]):
        argv = op["argv"]
        out, err = io.StringIO(), io.StringIO()
        code, error, value = 0, None, None
        if tracer is not None:
            tracer.op = k
            root = tracer.open(tracing.OP_SPAN)
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                if argv[0] == "solve_dual":
                    value = programs.solve_dual(int(argv[1])).value
                else:
                    code = cli.main(argv)
        except SystemExit as exc:
            code, error = exc.code, f"SystemExit: {exc.code}"
        except Exception as exc:                  # reported as a failed op
            code, error = None, f"{type(exc).__name__}: {exc}"
        wall = time.perf_counter() - start
        if tracer is not None:
            tracer.close(root)
        text = out.getvalue()
        if value is not None:
            text = json.dumps({"num": str(value.numerator),
                               "den": str(value.denominator)})
        ops.append({"id": op["id"], "wall_s": wall, "code": code,
                    "error": error, "stdout": text, "stderr": err.getvalue()})
    pass_s = time.perf_counter() - pass_start

    result = {"pass_s": pass_s, "ops": ops,
              "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
              "versions": {"numpy": sys.modules["numpy"].__version__},
              "env": {k: os.environ.get(k) for k in
                      ("ANTISYM_THREADS", "OPENBLAS_NUM_THREADS",
                       "OMP_NUM_THREADS")}}
    if tracer is not None:
        result.update(spans=tracer.spans, counters=tracer.counters,
                      sites=tracer.sites)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
