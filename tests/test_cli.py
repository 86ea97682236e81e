"""Command-line surface: exit codes, formats, reproducibility."""

import csv
import importlib
import json
import shlex
from fractions import Fraction as F
from pathlib import Path

import pytest

from antisym import cli
from antisym.cli import main
from certificates import CERTIFICATES, entries_for, unmapped

GOLDEN = Path(__file__).parent / "golden"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_squashed_even(capsys):
    code, out, _ = run(capsys, "squashed", "--d", "4")
    assert code == 0
    assert "3/2" in out and "0.584962" in out


def test_squashed_all_k_table(capsys):
    code, out, _ = run(capsys, "squashed", "--d", "3", "--all-k")
    assert code == 0
    assert "cmi_k2" in out and "cmi_k3" in out


def test_squashed_usage_error(capsys):
    code, _, err = run(capsys, "squashed", "--d", "2")
    assert code == 2
    assert "at least 3" in err


@pytest.mark.parametrize("command", [("squashed",), ("squashed", "--all-k"),
                                     ("bounds", "--n", "1")])
def test_squashed_scan_guard_exit_code(capsys, monkeypatch, command):
    from antisym import bounds

    # the guard is checked before the scan, which would fail without its
    # helper
    monkeypatch.setattr(bounds, "extension_cmi", None)
    d = bounds.SCAN_GUARD + 1
    code, out, err = run(capsys, *command, "--d", str(d))
    assert code == 2
    assert out == ""
    assert err == f"error: d = {d} exceeds the guard {bounds.SCAN_GUARD}\n"


def test_lp_primal_golden(capsys):
    code, out, _ = run(capsys, "lp", "primal", "--n", "10", "--dinf",
                       "--form", "truncated2")
    assert code == 0
    assert "12/283" in out


def test_lp_primal_dimension_three(capsys):
    code, out, _ = run(capsys, "lp", "primal", "--n", "2", "--d", "3",
                       "--form", "full3")
    assert code == 0
    assert "1/4" in out


def test_lp_primal_dual_row_reads_the_certified_duals(capsys, monkeypatch):
    from dataclasses import replace

    from antisym import cli

    solve = cli.prg.solve_purity_bound

    def moved(*args, **kwargs):
        bound = solve(*args, **kwargs)
        sol = bound.solution
        # the eq normalisation row is the only row with a nonzero right side
        return bound._replace(solution=replace(
            sol, y_eq=[sol.y_eq[0] + F(1, 3)]))

    monkeypatch.setattr(cli.prg, "solve_purity_bound", moved)
    code, out, _ = run(capsys, "lp", "primal", "--n", "2", "--d", "3",
                       "--form", "full3", "--format", "json")
    assert code == 0
    rows = {r["quantity"]: r for r in json.loads(out)["results"]}
    assert rows["purity_bound"]["exact"] == {"num": "1", "den": "4"}
    assert rows["dual_value"]["exact"] == {"num": "7", "den": "12"}


def test_lp_primal_rejects_bad_combination(capsys):
    code, _, err = run(capsys, "lp", "primal", "--n", "2", "--d", "5",
                       "--form", "truncated2")
    assert code == 2


def test_lp_primal_rejects_d_and_dinf(capsys):
    code, _, err = run(capsys, "lp", "primal", "--n", "2", "--d", "5",
                       "--dinf")
    assert code == 2
    assert "mutually exclusive" in err


def test_lp_primal_corner_flag(capsys):
    code, out, _ = run(capsys, "lp", "primal", "--n", "3", "--d", "5",
                       "--corner", "alt", "--format", "csv")
    assert code == 0
    assert "corner" not in out  # flag affects the programme, not the schema


def test_lp_dual_geometric_point(capsys):
    code, out, _ = run(capsys, "lp", "dual", "--n", "8")
    assert code == 0
    assert "6561/65536" in out
    assert "feasible" in out


def test_lp_dual_rejects_negative_gamma(capsys):
    # a negative gamma gives negative weights and a z that bounds nothing
    assert run(capsys, "lp", "dual", "--n", "3", "--gamma", "-1") == (
        2, "", "error: gamma must satisfy gamma >= 0\n")


@pytest.mark.parametrize("n, gamma", [("3", "1e400"), ("100", "1e300")])
def test_lp_dual_rejects_a_gamma_whose_decimals_overflow(capsys, n, gamma):
    # the exact point exists, but its decimal column cannot hold it
    assert run(capsys, "lp", "dual", "--n", n, "--gamma", gamma) == (
        2, "", "error: --gamma is too large: the dual point's decimals "
               "overflow a float\n")


def test_purity_rejects_negative_seed(capsys):
    assert run(capsys, "purity", "--d", "3", "--n", "1", "--seed", "-1") == (
        2, "", "error: seed must be non-negative\n")


@pytest.mark.parametrize("argv", [
    ("lp", "primal"), ("lp", "dual"), ("bounds", "--d", "4"),
    ("purity", "--d", "4")])
def test_n_zero_is_a_usage_error_naming_the_flag(capsys, argv):
    assert run(capsys, *argv, "--n", "0") == (
        2, "", "error: --n must be positive\n")


def readme_commands():
    """(argv, trailing "# a/b" value or None) per README example line."""
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    for line in readme.splitlines():
        if line.startswith("antisym "):
            command, _, comment = line.partition("#")
            value = comment.strip()
            yield (shlex.split(command)[1:],
                   F(value) if "/" in value else None)


def test_readme_examples_run(capsys):
    examples = list(readme_commands())
    assert len(examples) == 10
    for argv, value in examples:
        code, out, err = run(capsys, *argv, "--format", "json")
        assert (code, err) == (0, ""), argv
        if value is not None:
            rows = {r["quantity"]: r for r in json.loads(out)["results"]}
            exact = rows["purity_bound"]["exact"]
            assert F(int(exact["num"]), int(exact["den"])) == value, argv


def golden_rows(directory=GOLDEN):
    """(file name, command, quantities) per byte golden, read back from its
    text, JSON or CSV bytes; a CSV golden takes its command from the JSON
    golden of the same name."""
    for path in sorted(directory.iterdir()):
        text = path.read_text()
        if path.suffix == ".json":
            payload = json.loads(text)
            command = payload["command"]
            quantities = [r["quantity"] for r in payload["results"]]
        elif path.suffix == ".txt":
            lines = text.splitlines()
            header = next(i for i, line in enumerate(lines)
                          if line.startswith("quantity "))
            command = lines[0].removeprefix("# ")
            quantities = [line.split()[0] for line in lines[header + 1:]]
        elif path.suffix == ".csv":
            command = json.loads(path.with_suffix(".json").read_text())[
                "command"]
            quantities = [row[0] for row in
                          csv.reader(text.splitlines()[1:])]
        else:
            raise AssertionError(f"unknown golden format: {path.name}")
        yield path.name, command, quantities


def readme_rows(capsys):
    """(argv, command, quantities) per README example, run in process."""
    for argv, _ in readme_commands():
        code, out, _ = run(capsys, *argv, "--format", "json")
        assert code == 0, argv
        payload = json.loads(out)
        yield argv, payload["command"], [r["quantity"]
                                         for r in payload["results"]]


def test_every_printed_row_has_a_certificate_entry(capsys):
    printed = [*golden_rows(), *readme_rows(capsys)]
    for where, command, quantities in printed:
        assert quantities, where
        assert unmapped(command, quantities) == [], where
    # and every entry is printed somewhere, so the table holds no stale rows
    used = {key for _, command, quantities in printed for q in quantities
            for key in entries_for(command, q)}
    assert set(CERTIFICATES) - used == set()


def test_certificate_checkers_exist():
    for _, checker in CERTIFICATES.values():
        module, name = checker.split(":")
        assert callable(getattr(importlib.import_module(f"antisym.{module}"),
                                name)), checker


def test_an_unmapped_row_fails_the_certificate_walk(capsys, monkeypatch,
                                                    tmp_path):
    # a new row printed by a command ...
    cmd_squashed = cli.cmd_squashed

    def with_new_row(args):
        params, rows, failure = cmd_squashed(args)
        rows.append(cli._row("new_bound", F(1), "no certificate", d=args.d))
        return params, rows, failure

    monkeypatch.setattr(cli, "cmd_squashed", with_new_row)
    code, out, _ = run(capsys, "squashed", "--d", "4", "--format", "json")
    assert code == 0
    quantities = [r["quantity"] for r in json.loads(out)["results"]]
    assert unmapped("squashed", quantities) == ["new_bound"]
    # ... and in a golden of each format
    for ext in ("txt", "json", "csv"):
        (tmp_path / f"squashed_d4.{ext}").write_bytes(
            (GOLDEN / f"squashed_d4.{ext}").read_bytes())
    with open(tmp_path / "squashed_d4.csv", "a") as fh:
        fh.write("new_bound,,4,1,1,1.0,no certificate\n")
    with open(tmp_path / "squashed_d4.txt", "a") as fh:
        fh.write("new_bound     4  1  1.0  no certificate\n")
    payload = json.loads((tmp_path / "squashed_d4.json").read_text())
    payload["results"].append({**payload["results"][0],
                               "quantity": "new_bound"})
    (tmp_path / "squashed_d4.json").write_text(json.dumps(payload))
    walked = {name: unmapped(command, quantities)
              for name, command, quantities in golden_rows(tmp_path)}
    assert walked == {f"squashed_d4.{ext}": ["new_bound"]
                      for ext in ("txt", "json", "csv")}
    # a row matching two entries is as wrong as one matching none
    assert unmapped("lp dual", ["delta_0"]) == []
    monkeypatch.setitem(CERTIFICATES, ("lp dual", "delta_0"),
                        CERTIFICATES[("lp dual", "delta_*")])
    assert unmapped("lp dual", ["delta_0"]) == ["delta_0"]


def test_json_round_trip_and_determinism(capsys):
    code, first, _ = run(capsys, "lp", "primal", "--n", "6", "--dinf",
                         "--format", "json")
    assert code == 0
    code, second, _ = run(capsys, "lp", "primal", "--n", "6", "--dinf",
                          "--format", "json")
    assert first == second
    payload = json.loads(first)
    values = {r["quantity"]: r for r in payload["results"]}
    exact = values["purity_bound"]["exact"]
    assert F(int(exact["num"]), int(exact["den"])) == F(1, 7)


@pytest.mark.parametrize("argv, name", [
    (("lp", "primal", "--n", "2", "--d", "3", "--form", "full3"),
     "lp_primal_n2_d3_full3"),
    (("lp", "primal", "--n", "6", "--dinf"), "lp_primal_n6_dinf"),
    (("verify", "rep", "--d", "4", "--level", "full"), "verify_rep_d4_full"),
    (("verify", "rep", "--d", "7", "--level", "fast"), "verify_rep_d7_fast"),
    (("squashed", "--d", "5", "--all-k"), "squashed_d5_all_k"),
    (("lp", "dual", "--n", "6", "--beta", "1/3", "--gamma", "1/64"),
     "lp_dual_n6_beta1_3_gamma1_64"),
    (("bounds", "--d", "4", "--n", "8"), "bounds_d4_n8"),
    (("squashed", "--d", "4"), "squashed_d4"),
    (("lp", "primal", "--n", "4", "--d", "5", "--parity", "even"),
     "lp_primal_n4_d5_even"),
    (("lp", "dual", "--n", "20"), "lp_dual_n20"),
    (("verify", "rep", "--d", "3", "--level", "full"), "verify_rep_d3_full"),
    (("verify", "rep", "--d", "5", "--level", "full"), "verify_rep_d5_full"),
])
@pytest.mark.parametrize("fmt, ext", [("text", "txt"), ("json", "json"),
                                      ("csv", "csv")])
def test_lp_primal_output_bytes(capsys, argv, name, fmt, ext):
    code, out, err = run(capsys, *argv, "--format", fmt)
    assert (code, err) == (0, "")
    assert out.encode() == (GOLDEN / f"{name}.{ext}").read_bytes()


def test_csv_schema(capsys):
    code, out, _ = run(capsys, "bounds", "--d", "4", "--n", "8",
                       "--format", "csv")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "quantity,n,d,exact_num,exact_den,decimal,source"
    row = dict(zip(lines[0].split(","), lines[1].split(",")))
    assert row["quantity"] == "kd_upper"
    assert (row["exact_num"], row["exact_den"]) == ("3", "2")


def test_bounds_table_values(capsys):
    code, out, _ = run(capsys, "bounds", "--d", "4", "--n", "8")
    assert code == 0
    assert "5/66" in out            # limit LP value at n = 8
    assert "4/3" in out             # analytic certificate core
    assert "0.4150374" in out


def test_bounds_solves_its_programme_once(capsys, monkeypatch):
    from antisym import bounds, programs

    calls = {"solve": 0, "dual point": 0}
    solve = programs.simplex_solve
    dual_point = bounds.analytic_dual_point

    def counted_solve(lp):
        calls["solve"] += 1
        return solve(lp)

    def counted_dual_point(*args):
        calls["dual point"] += 1
        return dual_point(*args)

    monkeypatch.setattr(programs, "simplex_solve", counted_solve)
    monkeypatch.setattr(bounds, "analytic_dual_point", counted_dual_point)
    code, out, _ = run(capsys, "bounds", "--d", "4", "--n", "8")
    assert code == 0 and "er_lower_lp" in out
    assert calls == {"solve": 1, "dual point": 1}


def test_lp_primal_at_a_large_dimension(capsys):
    code, out, err = run(capsys, "lp", "primal", "--n", "1", "--d", "100000",
                         "--format", "json")
    assert (code, err) == (0, "")
    rows = {r["quantity"]: r for r in json.loads(out)["results"]}
    assert rows["purity_bound"]["exact"] == {"num": "1", "den": "2"}
    assert rows["purity_bound"]["d"] == 100000


def test_verify_rep_checks_the_objective_weights(capsys, monkeypatch):
    # the flip values the battery checks are the weights the LP optimises
    from antisym import programs

    monkeypatch.setitem(programs.OBJECTIVE_WEIGHTS, (2, 2), F(1, 3))
    code, _, err = run(capsys, "verify", "rep", "--d", "4")
    assert code == 1
    assert err == "verification failed: flip expectations\n"


def test_verify_rep_passes(capsys):
    code, out, _ = run(capsys, "verify", "rep", "--d", "3")
    assert code == 0
    assert "flip_expectations" in out


def test_verify_rep_full_level(capsys):
    code, out, _ = run(capsys, "verify", "rep", "--d", "4",
                       "--level", "full")
    assert code == 0
    assert "transpose_overlaps_(matrix)" in out


def test_verify_rep_full_level_at_the_largest_dimension(capsys):
    code, out, err = run(capsys, "verify", "rep", "--d", "7", "--level",
                         "full", "--format", "json")
    assert code == 0 and err == ""
    rows = json.loads(out)["results"]
    assert len(rows) == 11
    assert all(r["exact"] == {"num": "1", "den": "1"} and r["d"] == 7
               for r in rows)


def test_verify_rep_failure_exit_code(capsys, monkeypatch):
    from antisym import cli
    from antisym.linalg import SparseRMatrix

    werner_mixture = cli.prj.werner_mixture

    def perturbed(p, d):
        nudge = SparseRMatrix.identity(d * d).scale(F(1, 10 ** 6))
        return werner_mixture(p, d) + nudge

    monkeypatch.setattr(cli.prj, "werner_mixture", perturbed)
    code, out, err = run(capsys, "verify", "rep", "--d", "4", "--level",
                         "full", "--format", "json")
    assert code == 1
    assert err == "verification failed: reduced pair states\n"
    rows = {r["quantity"]: r for r in json.loads(out)["results"]}
    assert rows["reduced_pair_states"]["exact"] == {"num": "0", "den": "1"}
    assert rows["reduced_pair_states"]["decimal"] == 0.0
    assert all(r["exact"]["num"] == "1" for name, r in rows.items()
               if name != "reduced_pair_states")


def test_verify_rep_catches_one_wrong_group_algebra_numerator(capsys,
                                                              monkeypatch):
    from antisym import cli
    from antisym.projectors import GroupAlgebraElement, Perm4

    element = cli.prj.young_projector_element

    def wrong(shape):
        elem = element(shape)
        if shape != (2, 2):
            return elem
        nums = dict(elem.nums)
        nums[Perm4.identity()] += 1
        return GroupAlgebraElement(nums, elem.den)

    monkeypatch.setattr(cli.prj, "young_projector_element", wrong)
    code, out, err = run(capsys, "verify", "rep", "--d", "4", "--format",
                         "json")
    assert code == cli.EXIT_VERIFY == 1
    assert err == "verification failed: projector group algebra\n"
    rows = {r["quantity"]: r for r in json.loads(out)["results"]}
    assert rows["projector_group_algebra"]["exact"] == {"num": "0", "den": "1"}
    assert rows["plethysm_characters"]["exact"] == {"num": "1", "den": "1"}


@pytest.mark.parametrize("coset", [0, 1, 2])
def test_verify_rep_catches_one_wrong_coset_sign(capsys, monkeypatch, coset):
    from antisym import cli
    from antisym.projectors import COSET_REPS, Perm4

    # (12) q (34) lies in the double coset of q; give it the wrong sign
    perm = (Perm4.from_cycles((1, 2)) * COSET_REPS[coset]
            * Perm4.from_cycles((3, 4)))
    table = dict(cli.prj.coset_table())
    k, sign = table[perm]
    assert k == coset
    table[perm] = (k, -sign)
    monkeypatch.setattr(cli.prj, "coset_table", lambda: table)
    code, out, err = run(capsys, "verify", "rep", "--d", "4", "--level",
                         "full", "--format", "json")
    assert code == cli.EXIT_VERIFY == 1
    assert err == "verification failed: projector matrices (restricted)\n"
    rows = {r["quantity"]: r["exact"]["num"]
            for r in json.loads(out)["results"]}
    assert {name for name, num in rows.items() if num == "0"} == {
        "projector_matrices_(restricted)", "reduced_pair_states",
        "transpose_overlaps_(matrix)"}


def test_verify_rep_range(capsys):
    code, _, err = run(capsys, "verify", "rep", "--d", "2")
    assert code == 2


def test_purity_sandwich(capsys):
    code, out, _ = run(capsys, "purity", "--d", "3", "--n", "1",
                       "--restarts", "4", "--iters", "50", "--seed", "1")
    assert code == 0
    assert "sandwich_ok" in out


def test_purity_row_is_labelled_an_uncertified_estimate(capsys):
    # at d=4, n=1 the see-saw prints 0.5000000000000002 against the exact
    # maximum 1/2: a floating-point estimate, not a certified lower bound
    code, out, _ = run(capsys, "purity", "--d", "4", "--n", "1",
                       "--format", "json")
    assert code == 0
    rows = {r["quantity"]: r for r in json.loads(out)["results"]}
    assert rows["purity_seesaw"]["source"] == (
        "see-saw estimate of the maximum purity (floating point, "
        "not certified)")


def test_purity_seed_reproducible_json(capsys):
    args = ("purity", "--d", "3", "--n", "1", "--restarts", "3",
            "--iters", "40", "--seed", "9", "--format", "json")
    _, first, _ = run(capsys, *args)
    _, second, _ = run(capsys, *args)
    assert first == second


def test_purity_dimension_guard_exit_code(capsys):
    code, out, err = run(capsys, "purity", "--d", "8", "--n", "3")
    assert code == 2
    assert out == ""
    assert err == "error: d^(2n) = 262144 exceeds the guard 65536\n"


@pytest.mark.parametrize("flag", ["--n", "--restarts", "--iters"])
def test_purity_usage_error_names_the_flag(capsys, monkeypatch, flag):
    from antisym import cli

    # the flags are checked before the see-saw is called
    monkeypatch.setattr(cli, "purity_seesaw", None)
    argv = {"--d": "4", "--n": "2", "--restarts": "2", "--iters": "5"}
    argv[flag] = "0"
    code, out, err = run(capsys, "purity", *(x for kv in argv.items()
                                             for x in kv))
    assert code == 2
    assert out == ""
    assert err == f"error: {flag} must be positive\n"


PURITY_JSON = ("purity", "--d", "4", "--n", "2", "--restarts", "4",
               "--iters", "50", "--seed", "3", "--format", "json")


def _purity_output(capsys, monkeypatch, threads):
    if threads is None:
        monkeypatch.delenv("ANTISYM_THREADS", raising=False)
    else:
        monkeypatch.setenv("ANTISYM_THREADS", threads)
    code, out, err = run(capsys, *PURITY_JSON)
    assert (code, err) == (0, "")
    return out


def test_threads_env_validation(capsys, monkeypatch):
    # perfbench still sets ANTISYM_THREADS; no code reads it, so even an
    # invalid value is not an error and changes no byte of the output
    unset = _purity_output(capsys, monkeypatch, None)
    for threads in ("zero", "0"):
        assert _purity_output(capsys, monkeypatch, threads) == unset


def test_purity_results_independent_of_threads(capsys, monkeypatch):
    outputs = [_purity_output(capsys, monkeypatch, threads)
               for threads in (None, "1", "2")]
    assert outputs[0] == outputs[1] == outputs[2]
    assert set(json.loads(outputs[0])["params"]) == {
        "d", "n", "restarts", "iters", "seed"}


def test_out_file(tmp_path, capsys):
    target = tmp_path / "result.json"
    code, out, _ = run(capsys, "squashed", "--d", "5",
                       "--format", "json", "--out", str(target))
    assert code == 0
    assert out == ""
    payload = json.loads(target.read_text())
    assert payload["command"] == "squashed"


def test_out_file_that_cannot_be_written(tmp_path, capsys):
    for target in (tmp_path / "missing" / "x", tmp_path):
        code, out, err = run(capsys, "squashed", "--d", "3",
                             "--out", str(target))
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: cannot write {target}")
        assert len(err.strip().splitlines()) == 1


def test_unwritable_out_fails_before_the_command_runs(tmp_path, capsys,
                                                      monkeypatch):
    from antisym import cli

    calls = []
    for module, name in ((cli, "_verification_checks"),
                         (cli.bnd, "squashed_upper_bound"),
                         (cli, "purity_seesaw"),
                         (cli.prg, "solve_purity_bound"),
                         (cli.prg, "analytic_dual_point")):
        monkeypatch.setattr(module, name,
                            lambda *args, name=name, **kw: calls.append(name))
    target = tmp_path / "nonexistent" / "x"
    for argv in (("squashed", "--d", "5"), ("lp", "primal", "--n", "4"),
                 ("lp", "dual", "--n", "4"), ("bounds", "--d", "4", "--n", "8"),
                 ("verify", "rep", "--d", "6", "--level", "full"),
                 ("purity", "--d", "4", "--n", "2")):
        code, out, err = run(capsys, *argv, "--out", str(target))
        assert code == 2, argv
        assert out == "" and calls == []
        assert err == (f"error: cannot write {target}: "
                       "No such file or directory\n")
        assert not target.parent.exists()


def test_out_file_is_not_created_by_a_failed_command(tmp_path, capsys):
    target = tmp_path / "x"
    code, _, _ = run(capsys, "squashed", "--d", "2", "--out", str(target))
    assert code == 2
    assert not target.exists()


def test_usage_error_exit_code(capsys):
    # a malformed command line exits 2 with one stderr line
    for argv, message in [
            (["lp", "primal"], "the following arguments are required: --n"),
            (["squashed", "--d", "4", "--format", "xml"],
             "argument --format: invalid choice: 'xml'")]:
        with pytest.raises(SystemExit) as exc:
            main(argv)
        captured = capsys.readouterr()
        assert exc.value.code == 2
        assert captured.out == ""
        assert captured.err.startswith(f"error: {message}")
        assert captured.err.count("\n") == 1 and captured.err.endswith("\n")


def test_solver_failure_exit_code(capsys, monkeypatch):
    from antisym import cli
    from antisym.simplex import SolverError

    def boom(*args, **kwargs):
        raise SolverError("synthetic failure")

    monkeypatch.setattr(cli.prg, "solve_purity_bound", boom)
    code, _, err = run(capsys, "lp", "primal", "--n", "2", "--dinf")
    assert code == 3
    assert "solver failure" in err


@pytest.mark.parametrize("argv, module, target", [
    (("lp", "primal", "--n", "2", "--dinf"), "prg", "solve_purity_bound"),
    (("squashed", "--d", "5"), "bnd", "squashed_upper_bound"),
])
@pytest.mark.parametrize("error, code, prefix", [
    ("UsageError", 2, "error"),
    ("ResourceLimitError", 2, "error"),
    ("SolverError", 3, "solver failure"),
    ("ArithmeticError", 3, "internal check failed"),
])
def test_every_failure_exits_with_its_documented_code(capsys, monkeypatch,
                                                      argv, module, target,
                                                      error, code, prefix):
    from antisym import cli
    from antisym.seesaw import ResourceLimitError
    from antisym.simplex import SolverError

    kinds = {"UsageError": cli.UsageError,
             "ResourceLimitError": ResourceLimitError,
             "SolverError": SolverError, "ArithmeticError": ArithmeticError}

    def boom(*args, **kwargs):
        raise kinds[error]("synthetic failure")

    monkeypatch.setattr(getattr(cli, module), target, boom)
    assert run(capsys, *argv) == (code, "", f"{prefix}: synthetic failure\n")


def test_purity_sandwich_failure_names_the_failed_check(capsys, monkeypatch):
    from antisym import cli

    # the exact maximum purity at d=3, n=1 is 1/2; a see-saw value above
    # it breaks the sandwich
    monkeypatch.setattr(cli, "purity_seesaw", lambda n, d, **kw: 0.75)
    code, out, err = run(capsys, "purity", "--d", "3", "--n", "1",
                         "--format", "json")
    assert code == 1
    assert err == "verification failed: sandwich_ok\n"
    rows = {r["quantity"]: r for r in json.loads(out)["results"]}
    assert rows["sandwich_ok"]["exact"] == {"num": "0", "den": "1"}
    assert rows["purity_seesaw"]["decimal"] == 0.75


def test_bounds_rows_name_the_programme_they_come_from(capsys):
    from antisym.programs import DINF, solve_purity_bound

    code, out, _ = run(capsys, "bounds", "--d", "4", "--n", "8",
                       "--format", "json")
    assert code == 0
    rows = {r["quantity"]: r for r in json.loads(out)["results"]}
    limit = solve_purity_bound(8, DINF).value
    for name in ("ec_lower_lp", "er_lower_lp"):
        exact = rows[name]["exact"]
        assert F(int(exact["num"]), int(exact["den"])) == limit == F(5, 66)
    expected_d = {"kd_upper": 4, "er_ppt_reference": 4,
                  "ec_lower_lp": "inf", "er_lower_lp": "inf",
                  "ec_lower_analytic": "inf", "er_lower_analytic": "inf"}
    assert {name: r["d"] for name, r in rows.items()} == expected_d
    code, out, _ = run(capsys, "bounds", "--d", "4", "--n", "8",
                       "--format", "csv")
    assert "ec_lower_lp,8,inf,5,66," in out


@pytest.mark.parametrize("argv, target", [
    (("bounds", "--d", "4", "--n", "2"), "squashed_upper_bound"),
    (("squashed", "--d", "5"), "squashed_upper_bound"),
    (("purity", "--d", "3", "--n", "1", "--restarts", "1", "--iters", "5"),
     "purity_seesaw"),
])
def test_internal_check_failure_exit_code(capsys, monkeypatch, argv, target):
    from antisym import cli

    def boom(*args, **kwargs):
        raise ArithmeticError("closed form does not match the scan")

    monkeypatch.setattr(cli if target == "purity_seesaw" else cli.bnd,
                        target, boom)
    code, out, err = run(capsys, *argv)
    assert code == 3
    assert out == ""
    assert err == "internal check failed: closed form does not match the scan\n"
