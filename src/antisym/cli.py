"""Command-line frontend.

Subcommands: ``squashed`` (key-rate upper bound), ``lp primal`` / ``lp dual``
(the purity programmes), ``verify rep`` (exact representation-theory checks),
``bounds`` (consolidated table) and ``purity`` (floating see-saw oracle).

Each ``cmd_*`` returns ``(params, rows, failure)``: ``failure`` is None or
the one stderr line of a failed verification.  ``main`` renders the rows once
to stdout (or ``--out``) and maps every error to one stderr line and an exit
code through ``FAILURES``.  Exit codes: 0 success, 1 verification failure,
2 usage error (including a size over a resource guard), 3 solver failure or
a failed internal self-check.
"""

from __future__ import annotations

import argparse
import csv
import errno
import io
import json
import math
import os
import sys
from fractions import Fraction

from . import bounds as bnd
from . import programs as prg
from . import projectors as prj
from . import young
from .seesaw import ResourceLimitError, purity_seesaw

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_USAGE = 2
EXIT_SOLVER = 3


class UsageError(ValueError):
    pass


# error type -> (exit code, stderr prefix); the first match wins, so a
# ResourceLimitError, which is a RuntimeError, is a usage error
FAILURES = {
    ResourceLimitError: (EXIT_USAGE, "error"),
    ValueError: (EXIT_USAGE, "error"),
    RuntimeError: (EXIT_SOLVER, "solver failure"),
    ArithmeticError: (EXIT_SOLVER, "internal check failed"),
}


def _row(quantity: str, exact: Fraction | None, source: str, n=None, d=None,
         decimal: float | None = None) -> dict:
    return {"quantity": quantity, "n": n, "d": d, "exact": exact,
            "decimal": float(exact) if decimal is None else decimal,
            "source": source}


def _flag_row(quantity: str, ok: bool, source: str, **where) -> dict:
    return _row(quantity, Fraction(int(ok)), source, **where)


def _report_row(quantity: str, report: bnd.BoundReport, **where) -> dict:
    return _row(quantity, report.exact_core, report.source,
                decimal=report.log2_value, **where)


def _fmt_d(d) -> str:
    if d is None:
        return ""
    return "inf" if d == math.inf else str(d)


def _fmt_exact(x: Fraction | None) -> str:
    return "" if x is None else (str(x.numerator) if x.denominator == 1
                                 else f"{x.numerator}/{x.denominator}")


def render_text(payload: dict) -> str:
    lines = [f"# {payload['command']}"]
    params = payload.get("params") or {}
    if params:
        lines.append("  " + "  ".join(f"{k}={v}" for k, v in params.items()))
    rows = payload["results"]
    headers = ("quantity", "n", "d", "exact", "decimal", "source")
    table = [[r["quantity"], "" if r["n"] is None else str(r["n"]),
              _fmt_d(r["d"]), _fmt_exact(r["exact"]),
              repr(r["decimal"]) if r["decimal"] is not None else "",
              r["source"]] for r in rows]
    widths = [max(len(h), *(len(t[i]) for t in table)) if table else len(h)
              for i, h in enumerate(headers)]
    lines.append("  ".join(h.ljust(w) for h, w in zip(headers, widths)).rstrip())
    for t in table:
        lines.append("  ".join(c.ljust(w) for c, w in zip(t, widths)).rstrip())
    return "\n".join(lines) + "\n"


def render_json(payload: dict) -> str:
    out = dict(payload)
    out["results"] = [
        {**r, "exact": None if r["exact"] is None else
         {"num": str(r["exact"].numerator), "den": str(r["exact"].denominator)},
         "d": None if r["d"] is None else ("inf" if r["d"] == math.inf else r["d"])}
        for r in payload["results"]]
    out["params"] = {k: ("inf" if v == math.inf else v)
                     for k, v in payload["params"].items()}
    return json.dumps(out, sort_keys=True, indent=2) + "\n"


def render_csv(payload: dict) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(("quantity", "n", "d", "exact_num", "exact_den",
                     "decimal", "source"))
    for r in payload["results"]:
        exact = r["exact"]
        writer.writerow((
            r["quantity"],
            "" if r["n"] is None else r["n"],
            _fmt_d(r["d"]),
            "" if exact is None else exact.numerator,
            "" if exact is None else exact.denominator,
            "" if r["decimal"] is None else repr(r["decimal"]),
            r["source"]))
    return buf.getvalue()


RENDERERS = {"text": render_text, "json": render_json, "csv": render_csv}


def emit(payload: dict, args) -> None:
    text = RENDERERS[args.format](payload)
    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise UsageError(f"cannot write {args.out}: "
                             f"{exc.strerror or exc}") from exc
    else:
        sys.stdout.write(text)


def _check_writable(path: str) -> None:
    """Fail fast, before any work and without creating the file, when
    ``path`` cannot be written: its directory is missing or read-only, or
    the path is a directory or a read-only file."""
    parent = os.path.dirname(path) or "."
    if os.path.isdir(path):
        code = errno.EISDIR
    elif not os.path.isdir(parent):
        code = errno.ENOENT
    elif not os.access(parent, os.W_OK) or (os.path.exists(path)
                                            and not os.access(path, os.W_OK)):
        code = errno.EACCES
    else:
        return
    raise UsageError(f"cannot write {path}: {os.strerror(code)}")


def _parse_fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"not a rational: {text!r}") from exc


# -- commands -----------------------------------------------------------------

def _check_d(d: int) -> int:
    if d < 3:
        raise UsageError("--d must be at least 3")
    return d


def _check_positive(**flags: int) -> None:
    for flag, value in flags.items():
        if value < 1:
            raise UsageError(f"--{flag} must be positive")


def cmd_squashed(args):
    d = _check_d(args.d)
    report = bnd.squashed_upper_bound(d)
    rows = [_report_row("key_upper_bound", report, d=d),
            _row("argmin_k", Fraction(report.params["argmin_k"]),
                 "minimising extension size", d=d)]
    if args.all_k:
        for k in range(2, d + 1):
            cmi = bnd.extension_cmi(d, k)
            rows.append(_row(f"cmi_k{k}", cmi.ratio,
                             "extension conditional mutual information",
                             decimal=cmi.bits, d=d))
    return {"d": d, "all_k": args.all_k}, rows, None


def cmd_lp_primal(args):
    if args.dinf and args.d is not None:
        raise UsageError("--d and --dinf are mutually exclusive")
    d = math.inf if args.d is None else _check_d(args.d)
    n = args.n
    _check_positive(n=n)
    bound = prg.solve_purity_bound(n, d, parity=args.parity, form=args.form,
                                   corner=args.corner)
    value = bound.value
    ec = bnd.cost_bound_from_purity(value, n, d)
    rows = [
        _row("purity_bound", value,
             "optimum of the symmetry-reduced programme", n=n, d=d),
        _row("ec_lower", value, "-(1/n) log2 of the purity bound",
             decimal=ec.log2_value, n=n, d=d),
        _row("er_lower", value, "-(1/2n) log2 of the purity bound",
             decimal=bnd.relent_lower_bound(ec).log2_value, n=n, d=d),
        _row("dual_value", prg.dual_value(bound),
             "dual optimum (certifies the primal)", n=n, d=d),
    ]
    return ({"n": n, "d": d, "form": args.form or "", "parity": args.parity,
             "corner": args.corner}, rows, None)


def cmd_lp_dual(args):
    _check_positive(n=args.n)
    beta = _parse_fraction(args.beta)
    gamma = _parse_fraction(args.gamma) if args.gamma is not None else None
    point = prg.analytic_dual_point(args.n, beta, gamma)
    try:        # the decimals are floats; only a large gamma overflows them
        rows = [_row("dual_bound_z", point.z,
                     "value of the geometric dual point", n=args.n),
                _flag_row("feasible", point.feasible,
                          "all dual constraints hold exactly", n=args.n)]
        rows += [_row(f"delta_{k}", dk, "symmetrised dual weight", n=args.n)
                 for k, dk in enumerate(point.delta)]
    except OverflowError as exc:
        raise UsageError("--gamma is too large: the dual point's decimals "
                         "overflow a float") from exc
    return ({"n": args.n, "beta": str(beta),
             "gamma": "" if gamma is None else str(gamma)}, rows, None)


def cmd_bounds(args):
    d = _check_d(args.d)
    _check_positive(n=args.n)
    # The LP and analytic rows come from the limit programme, so they are
    # labelled d=inf; only the closed forms depend on --d.
    limit = {"n": args.n, "d": prg.DINF}
    kd = bnd.squashed_upper_bound(d)
    ec_lp = bnd.cost_bound_from_purity(prg.solve_purity_bound(args.n).value,
                                       args.n)
    ec_an = bnd.analytic_cost_bound(args.n)
    rows = [
        _report_row("kd_upper", kd, d=d),
        _report_row("ec_lower_lp", ec_lp, **limit),
        _report_row("ec_lower_analytic", ec_an, **limit),
        _report_row("er_lower_lp", bnd.relent_lower_bound(ec_lp), **limit),
        _report_row("er_lower_analytic", bnd.relent_lower_bound(ec_an),
                    **limit),
        _report_row("er_ppt_reference", bnd.relent_ppt_value(d), d=d),
    ]
    return {"d": d, "n": args.n}, rows, None


def cmd_purity(args):
    d, n = _check_d(args.d), args.n
    _check_positive(n=n, restarts=args.restarts, iters=args.iters)
    estimate = purity_seesaw(n, d, restarts=args.restarts,
                             iterations=args.iters, seed=args.seed)
    value = prg.solve_purity_bound(n, d, form="full3").value
    ok = estimate <= float(value) + 1e-6
    rows = [
        _row("purity_seesaw", None,
             "see-saw estimate of the maximum purity (floating point, "
             "not certified)", decimal=estimate, n=n, d=d),
        _row("purity_lp_bound", value, "exact LP upper bound", n=n, d=d),
        _flag_row("sandwich_ok", ok, "see-saw <= LP bound + 1e-6", n=n, d=d),
    ]
    return ({"d": d, "n": n, "restarts": args.restarts, "iters": args.iters,
             "seed": args.seed}, rows,
            None if ok else "verification failed: sandwich_ok")


# -- exact verification battery -------------------------------------------------

def _verification_checks(d: int, level: str):
    """Yield (name, thunk) pairs; each thunk returns True on success."""
    shapes = prj.present_shapes(d)

    def dims_ok():
        dims = young.plethysm_dimensions(d)
        return (dims.dim_1111 == young.ssyt_count((1, 1, 1, 1), d)
                and dims.dim_22 == young.ssyt_count((2, 2), d)
                and dims.dim_211 == young.ssyt_count((2, 1, 1), d)
                and dims.dim_1111 == math.comb(d, 4))

    def plethysm_ok():
        points = [[Fraction(1)] * d, [Fraction(i + 1) for i in range(d)],
                  [Fraction(2 * i + 1, i + 2) for i in range(d)],
                  [Fraction(-3, 7)]
                  + [Fraction(i * i + 1, 5) for i in range(d - 1)]]
        return all(young.plethysm_check(kind, d, pt).equal
                   for kind in ("sym2", "alt2") for pt in points)

    def algebra_ok():
        elems = {s: prj.young_projector_element(s) for s in prj.YOUNG_SHAPES}
        pair = prj.pair_projector_element()
        for s, e in elems.items():
            if e * e != e or e.adjoint() != e:
                return False
        names = list(elems)
        for i in range(len(names)):
            for j in range(i + 1, len(names)):
                if not (elems[names[i]] * elems[names[j]]).is_zero():
                    return False
        total = elems[(1, 1, 1, 1)] + elems[(2, 2)] + elems[(2, 1, 1)]
        return total == pair

    def traces_ok():
        for s in prj.YOUNG_SHAPES:
            elem = prj.young_projector_element(s)
            if elem.trace_in_dimension(d) != young.weyl_dimension(s, d):
                return False
        pair_dim = (d * (d - 1) // 2) ** 2
        return prj.pair_projector_element().trace_in_dimension(d) == pair_dim

    def flips_ok():
        # the flip values are the objective weights the LP uses
        got = prj.flip_overlaps(d)
        return all(got[s] == prg.OBJECTIVE_WEIGHTS[s] for s in shapes)

    def signs_ok():
        expected = {(1, 1, 1, 1): 1, (2, 2): 1, (2, 1, 1): -1}
        got = prj.pair_flip_signs(d)
        return all(got[s] == expected[s] for s in shapes)

    def overlaps_ok(table):
        return (table == prj.overlap_closed_forms(d)
                and all(sum(c) == 1 for c in zip(*table)))

    yield "plethysm dimensions", dims_ok
    yield "plethysm characters", plethysm_ok
    yield "projector group algebra", algebra_ok
    yield "projector traces", traces_ok
    yield "flip expectations", flips_ok
    yield "pair flip signs", signs_ok
    yield ("transpose overlaps (symbolic)",
           lambda: overlaps_ok(prj.symbolic_overlap_table(d)))

    if level != "full":
        return

    basis = prj.pair_basis(d)

    def projector_matrices_ok():
        for s in prj.YOUNG_SHAPES:
            mat = basis.restricted_element(prj.young_projector_element(s))
            if mat @ mat != mat:
                return False
            if mat.trace() != young.weyl_dimension(s, d):
                return False
        return True

    def reduced_states_ok():
        # each reduced state is built once: its flip value is checked
        # against the cycle-count route of flip_overlaps, and the state
        # against the Werner mixture with antisymmetric weight (1 - f)/2
        # for the LP's objective weight f
        symbolic = prj.flip_overlaps(d)
        flip = prj.flip_matrix(d)
        for s in shapes:
            reduced = prj.reduced_pair_state(s, d)
            weight = (1 - prg.OBJECTIVE_WEIGHTS[s]) / 2
            if (reduced.trace_product(flip) != symbolic[s]
                    or reduced != prj.werner_mixture(weight, d)):
                return False
        return True

    def invariant_projectors_ok():
        bell, adjoint, tail = prj.invariant_projectors(d)
        ident = basis.identity()
        if bell @ bell != bell or adjoint @ adjoint != adjoint:
            return False
        if not (bell @ adjoint).is_zero():
            return False
        if bell + adjoint + tail != ident:
            return False
        expected = (1, d * d - 1, (d * (d - 1) // 2) ** 2 - d * d)
        return (bell.trace(), adjoint.trace(), tail.trace()) == expected

    yield "projector matrices (restricted)", projector_matrices_ok
    yield "reduced pair states", reduced_states_ok
    yield "invariant projectors", invariant_projectors_ok
    yield ("transpose overlaps (matrix)",
           lambda: overlaps_ok(prj.ppt_overlap_table(d)))


def cmd_verify(args):
    if not 3 <= args.d <= 7:
        raise UsageError("--d must lie in 3..7")
    rows, failure = [], None
    for name, thunk in _verification_checks(args.d, args.level):
        ok = bool(thunk())
        rows.append(_flag_row(name.replace(" ", "_"), ok,
                              "exact identity check", d=args.d))
        if not ok and failure is None:
            failure = f"verification failed: {name}"
    return {"d": args.d, "level": args.level}, rows, failure


# -- parser ---------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """A malformed command line is a usage error: one stderr line, exit 2.
    Subparsers are built with the parent's class, so they inherit this."""

    def error(self, message: str):
        self.exit(EXIT_USAGE, f"error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("text", "json", "csv"),
                        default="text", help="output format (default text)")
    common.add_argument("--out", metavar="FILE",
                        help="write results to FILE instead of stdout")

    parser = _Parser(
        prog="antisym",
        description="Exact entanglement bounds for the antisymmetric state.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("squashed", parents=[common],
                       help="key-rate upper bound from the antisymmetric extension")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--all-k", action="store_true", dest="all_k")
    p.set_defaults(func=cmd_squashed)

    lp = sub.add_parser("lp", help="purity programmes")
    lp_sub = lp.add_subparsers(dest="lp_command", required=True)
    p = lp_sub.add_parser("primal", parents=[common],
                          help="solve the symmetry-reduced purity programme")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int)
    p.add_argument("--dinf", action="store_true",
                   help="use the dimension-free limit programme")
    p.add_argument("--form", choices=prg.FORMS, default=None)
    p.add_argument("--parity", choices=prg.PARITIES, default="none")
    p.add_argument("--corner", choices=prj.CORNER_VARIANTS, default="derived")
    p.set_defaults(func=cmd_lp_primal, command="lp primal")

    p = lp_sub.add_parser("dual", parents=[common],
                          help="evaluate the geometric dual point")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--beta", default="1/2")
    p.add_argument("--gamma", default=None)
    p.set_defaults(func=cmd_lp_dual, command="lp dual")

    verify = sub.add_parser("verify", help="exact verification batteries")
    verify_sub = verify.add_subparsers(dest="verify_command", required=True)
    p = verify_sub.add_parser("rep", parents=[common],
                              help="representation-theoretic identities")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--level", choices=("fast", "full"), default="fast")
    p.set_defaults(func=cmd_verify, command="verify rep")

    p = sub.add_parser("bounds", parents=[common],
                       help="consolidated bound table")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("purity", parents=[common],
                       help="floating-point see-saw oracle")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--restarts", type=int, default=10)
    p.add_argument("--iters", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_purity)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.out:
            _check_writable(args.out)
        params, rows, failure = args.func(args)
        emit({"command": args.command, "params": params, "results": rows},
             args)
    except tuple(FAILURES) as exc:
        code, prefix = next(FAILURES[kind] for kind in FAILURES
                            if isinstance(exc, kind))
        print(f"{prefix}: {exc}", file=sys.stderr)
        return code
    if failure is None:
        return EXIT_OK
    print(failure, file=sys.stderr)
    return EXIT_VERIFY


if __name__ == "__main__":
    sys.exit(main())
