"""In-memory span tracer and the wrappers that attach it to ``antisym``.

A span records name, start, end, parent span and operation id.  Spans stay
in memory and are handed back when the pass ends.  A layer's self time is its
span's duration minus the durations of its direct children.

The wrappers live here, in the benchmark, not in the program: ``install``
replaces each traced function at every binding site in the loaded
``antisym`` modules (``programs.simplex_solve`` as well as
``simplex.simplex_solve``, the values of ``cli.RENDERERS`` ...), so calls
through any import path are seen.  Counters are recorded at the same
boundaries as the spans.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

# Span name -> the functions it covers, as "module:qualname" inside antisym.
# The metric reported for a span name is "<name>_s", its summed self time.
SPAN_TARGETS = {
    "simplex.certify": ["simplex:_certify"],
    "programs.build": ["programs:build_purity_bound", "programs:build_dual"],
    "programs.to_lp": ["programs:SymLP.to_lp"],
    "programs.solve": ["programs:solve_purity_bound", "programs:solve_dual"],
    "programs.dual_point": ["programs:analytic_dual_point"],
    "projectors.to_operator": ["projectors:GroupAlgebraElement.to_operator",
                               "projectors:perm_operator",
                               "projectors:PairBasis.restricted_phi_phi",
                               "projectors:PairBasis.restricted_one_phi"],
    "projectors.restrict": ["projectors:PairBasis.restrict",
                            "projectors:PairBasis.unrestrict"],
    "projectors.young_dense": ["projectors:young_projector",
                               "projectors:young_state"],
    "projectors.overlap_table": ["projectors:ppt_overlap_table",
                                 "projectors:overlap_closed_forms",
                                 "projectors:flip_overlaps",
                                 "projectors:pair_flip_signs"],
    "projectors.invariant": ["projectors:invariant_projectors"],
    "linalg.matmul": ["linalg:RMatrix.__matmul__",
                      "linalg:RMatrix.trace_product"],
    "linalg.partial_trace": ["linalg:RMatrix.partial_trace"],
    "linalg.partial_transpose": ["linalg:RMatrix.partial_transpose",
                                 "linalg:SparseRMatrix.partial_transpose"],
    "linalg.to_dense": ["linalg:SparseRMatrix.to_dense"],
    "linalg.compare": ["linalg:RMatrix.__eq__"],
    "young.plethysm": ["young:plethysm_check", "young:plethysm_dimensions",
                       "young:schur_eval", "young:weyl_dimension"],
    "young.ssyt": ["young:ssyt_count"],
    "bounds.self": ["bounds:squashed_upper_bound", "bounds:extension_cmi",
                    "bounds:cost_lower_bound", "bounds:relent_lower_bound",
                    "bounds:relent_ppt_value", "bounds:log2_fraction"],
    "cli.self": ["cli:main"],
    "cli.render": ["cli:render_text", "cli:render_json", "cli:render_csv"],
}

# Functions wrapped by the custom wrappers of ``install`` -> the metrics
# they record.  "*_s" metrics are self times of spans named without "_s".
CUSTOM_TARGETS = {
    "simplex:simplex_solve": ["simplex.solve_s", "programs.lp_vars",
                              "programs.lp_rows"],
    "simplex:_Tableau.run": ["simplex.phase1_s", "simplex.phase2_s",
                             "simplex.tableau_bits"],
    "simplex:_Tableau.pivot": ["simplex.pivots", "simplex.phase1_pivots",
                               "simplex.phase2_pivots",
                               "simplex.degenerate_ratio"],
    "seesaw:purity_seesaw": ["seesaw.best_restart_ratio", "seesaw.self_s"],
    "seesaw:_run_restart": ["seesaw.restart_s", "seesaw.restarts",
                            "seesaw.sweeps"],
    "seesaw:_project": ["seesaw.power_steps"],
    "linalg:RMatrix.__init__": ["linalg.dense_entries"],
}

# A restart "reaches the best value" when it ends within this of the best
# restart of the same see-saw call.
BEST_TOLERANCE = 1e-9

OP_SPAN = "op"
BOOKKEEPING_SPAN = "trace.bookkeeping"


class Tracer:
    """Spans as [name, start, end, parent, op] lists, plus named counters."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op = -1
        self.counters: dict[str, float] = {}
        self.sites: dict[str, int] = {}

    def open(self, name: str) -> int:
        i = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, 0.0, 0.0, parent, self.op])
        self.stack.append(i)
        self.spans[i][1] = time.perf_counter()
        return i

    def close(self, i: int) -> None:
        self.spans[i][2] = time.perf_counter()
        if self.stack.pop() != i:
            raise RuntimeError(f"span {self.spans[i][0]} closed out of order")

    def count(self, name: str, k: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + k

    def peak(self, name: str, value: float) -> None:
        self.counters[name] = max(self.counters.get(name, 0), value)


def _spanned(tracer: Tracer, name: str, fn):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        i = tracer.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.close(i)
    return traced


def _modules():
    return [m for key, m in list(sys.modules.items())
            if m is not None and (key == "antisym" or key.startswith("antisym."))]


def _rebind(target: str, make_wrapper, tracer: Tracer) -> None:
    """Replace the function named by ``target`` at every binding site."""
    module_name, qualname = target.split(":")
    owner = importlib.import_module(f"antisym.{module_name}")
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part, None)
    original = getattr(owner, attr, None) if owner is not None else None
    if original is None:
        tracer.sites[target] = 0      # the program no longer has this function
        return
    wrapper = make_wrapper(original)
    sites = 0
    if path:                          # a method: its binding site is the class
        setattr(owner, attr, wrapper)
        sites += 1
    for module in _modules():
        for key, value in list(vars(module).items()):
            if value is original:
                setattr(module, key, wrapper)
                sites += 1
            elif isinstance(value, dict):
                for k, v in list(value.items()):
                    if v is original:
                        value[k] = wrapper
                        sites += 1
    tracer.sites[target] = sites


class _Run:
    __slots__ = ("span", "pivots", "active")

    def __init__(self, span: int):
        self.span, self.pivots, self.active = span, 0, True


def _tableau_bits(tab) -> int:
    bits = max((abs(v).bit_length() for row in tab.rows for v in row), default=0)
    bits = max(bits, max((abs(v).bit_length() for v in tab.rhs), default=0))
    bits = max(bits, max((abs(v).bit_length() for v in tab.obj), default=0))
    return max(bits, tab.obj_den.bit_length())


def install(tracer: Tracer) -> None:
    """Wrap the traced functions of the already imported ``antisym``."""
    importlib.import_module("antisym.cli")

    for name, targets in SPAN_TARGETS.items():
        for target in targets:
            _rebind(target, lambda fn, name=name: _spanned(tracer, name, fn),
                    tracer)

    solves: list[list[_Run]] = []     # one run list per active simplex_solve

    def wrap_solve(fn):
        @functools.wraps(fn)
        def simplex_solve(lp):
            tracer.count("programs.lp_vars", lp.num_vars)
            tracer.count("programs.lp_rows", len(lp.a_ub) + len(lp.a_eq))
            runs: list[_Run] = []
            solves.append(runs)
            i = tracer.open("simplex.solve")
            status = None
            try:
                sol = fn(lp)
                status = sol.status
                return sol
            finally:
                tracer.close(i)
                solves.pop()
                # Two runs: phase one then phase two.  One run: phase two,
                # unless the solve stopped infeasible after phase one.
                labels = ["phase1", "phase2"][-len(runs):] if runs else []
                if len(runs) == 1 and status == "infeasible":
                    labels = ["phase1"]
                for run, label in zip(runs, labels):
                    tracer.spans[run.span][0] = f"simplex.{label}"
                    tracer.count(f"simplex.{label}_pivots", run.pivots)
        return simplex_solve

    def wrap_run(fn):
        @functools.wraps(fn)
        def run(tab, barred):
            record = _Run(tracer.open("simplex.run"))
            if solves:
                solves[-1].append(record)
            try:
                return fn(tab, barred)
            finally:
                tracer.close(record.span)
                record.active = False
                b = tracer.open(BOOKKEEPING_SPAN)
                tracer.peak("simplex.tableau_bits", _tableau_bits(tab))
                tracer.close(b)
        return run

    def wrap_pivot(fn):
        @functools.wraps(fn)
        def pivot(tab, r, j):
            tracer.count("simplex.pivots")
            if tab.rhs[r] == 0:
                tracer.count("simplex.degenerate_pivots")
            if solves and solves[-1] and solves[-1][-1].active:
                solves[-1][-1].pivots += 1
            return fn(tab, r, j)
        return pivot

    oracle_calls: list[list[float]] = []

    def wrap_oracle(fn):
        @functools.wraps(fn)
        def purity_seesaw(*args, **kwargs):
            if kwargs.get("threads", 1) != 1:
                raise RuntimeError("traced see-saw runs need threads=1")
            oracle_calls.append([])
            i = tracer.open("seesaw.self")
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close(i)
                values = oracle_calls.pop()
                if values:
                    top = max(values)
                    tracer.count("seesaw.best_restarts",
                                 sum(v >= top - BEST_TOLERANCE for v in values))
        return purity_seesaw

    def wrap_restart(fn):
        @functools.wraps(fn)
        def run_restart(*args):
            i = tracer.open("seesaw.restart")
            try:
                best, history = fn(*args)
            finally:
                tracer.close(i)
            tracer.count("seesaw.restarts")
            tracer.count("seesaw.sweeps", len(history))
            if oracle_calls:
                oracle_calls[-1].append(best)
            return best, history
        return run_restart

    def wrap_project(fn):
        @functools.wraps(fn)
        def project(*args):
            tracer.count("seesaw.power_steps")
            return fn(*args)
        return project

    def wrap_init(fn):
        @functools.wraps(fn)
        def init(self, rows, cols, *args, **kwargs):
            fn(self, rows, cols, *args, **kwargs)
            tracer.count("linalg.dense_entries", self.rows * self.cols)
        return init

    wrappers = {"simplex:simplex_solve": wrap_solve,
                "simplex:_Tableau.run": wrap_run,
                "simplex:_Tableau.pivot": wrap_pivot,
                "seesaw:purity_seesaw": wrap_oracle,
                "seesaw:_run_restart": wrap_restart,
                "seesaw:_project": wrap_project,
                "linalg:RMatrix.__init__": wrap_init}
    if wrappers.keys() != CUSTOM_TARGETS.keys():
        raise RuntimeError("CUSTOM_TARGETS and the custom wrappers differ")
    for target, make in wrappers.items():
        _rebind(target, make, tracer)


def metric_targets() -> dict[str, list[str]]:
    """Layer metric -> the "module:qualname" functions it observes."""
    out = {f"{name}_s": targets for name, targets in SPAN_TARGETS.items()}
    for target, metrics in CUSTOM_TARGETS.items():
        for name in metrics:
            out.setdefault(name, []).append(target)
    return out


def self_times(spans: list[list]) -> list[float]:
    """Per span: duration minus the durations of its direct children."""
    out = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out


def layer_metrics(spans: list[list], counters: dict) -> dict[str, float]:
    """Per-layer metrics of one traced pass, keyed by metric name."""
    by_name: dict[str, float] = {}
    for span, t in zip(spans, self_times(spans)):
        by_name[span[0]] = by_name.get(span[0], 0.0) + t
    ratios = {"simplex.degenerate_ratio": ("simplex.degenerate_pivots",
                                           "simplex.pivots"),
              "seesaw.best_restart_ratio": ("seesaw.best_restarts",
                                            "seesaw.restarts")}
    out = {}
    for name in metric_targets():
        if name in ratios:
            part, whole = (counters.get(c, 0) for c in ratios[name])
            out[name] = part / whole if whole else 0.0
        elif name.endswith("_s"):
            out[name] = by_name.get(name[:-2], 0.0)
        else:
            out[name] = counters.get(name, 0)
    return out


def accounting_error(spans: list[list]) -> float:
    """Worst nesting violation in seconds: a child outside its parent, or a
    span starting before its previous sibling ended.  0 when spans nest, so
    that no self time is negative and an operation's self times add up to
    its op span."""
    worst = 0.0
    last_end: dict[int, float] = {}
    for _, start, end, parent, _ in spans:      # in order of opening
        if parent >= 0:
            _, pstart, pend, _, _ = spans[parent]
            worst = max(worst, pstart - start, end - pend)
        worst = max(worst, last_end.get(parent, start) - start)
        last_end[parent] = end
    return worst
