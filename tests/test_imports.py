"""Every module of the package uses every name it imports, and importing
it builds no lazily computed table and loads no scipy."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "antisym"


@pytest.mark.parametrize("name", sorted(
    p.name for p in PACKAGE.glob("*.py") if p.name != "__init__.py"))
def test_no_unused_imports(name):
    tree = ast.parse((PACKAGE / name).read_text())
    imported = {(a.asname or a.name).split(".")[0] for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom))
                and getattr(node, "module", None) != "__future__"
                for a in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert sorted(imported - used) == []


def test_importing_the_cli_builds_no_table():
    # the caches fill on first use, so a command that never needs them
    # (and the interpreter start-up of every command) does not pay for them;
    # nor does it load scipy, whose import alone costs a large share of a
    # short command's wall time
    script = ("import sys\n"
              "import antisym.cli\n"
              "from antisym import projectors as p\n"
              "print([f.cache_info().currsize for f in (\n"
              "    p.coset_table, p.pair_basis, p.young_projector_element,\n"
              "    p.pair_projector_element, p.invariant_projectors)])\n"
              "print(sorted(m for m in sys.modules if m.split('.')[0] == "
              "'scipy'))\n")
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    out = subprocess.run([sys.executable, "-c", script], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out == "[0, 0, 0, 0, 0]\n[]\n"
