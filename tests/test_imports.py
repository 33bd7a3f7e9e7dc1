"""Every imported name is used, and the CLI imports only what it runs.

An AST scan of the package, the tests and the demos: each name an import
binds must be read somewhere in the same module, or listed in its
`__all__`.  `__future__` imports change how a module compiles and are
exempt.

The import checks each start a fresh interpreter, since in this one every
module is loaded already.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCANNED = ("src/qcseries", "tests", "demos")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                # `import a.b` binds `a`
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used.update(ast.literal_eval(node.value))
    return [f"{name} (line {line})" for name, line in sorted(imported.items())
            if name not in used]


def test_no_unused_imports():
    found = []
    for top in SCANNED:
        for path in sorted((ROOT / top).rglob("*.py")):
            for entry in unused_imports(path.read_text(encoding="utf-8")):
                found.append(f"{path.relative_to(ROOT)}: {entry}")
    assert found == []


def test_scan_sees_through_all_and_future():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "from json import dumps, loads as read\n"
        "from math import pi\n"
        "__all__ = ['pi']\n"
        "print(os.sep, read)\n"
    )
    assert unused_imports(source) == ["dumps (line 3)"]


def fresh(code: str) -> str:
    """The last stdout line of `code` run in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", code],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1]


def loaded_by(code: str) -> set[str]:
    """The modules that running `code` adds to a fresh interpreter."""
    return set(fresh(
        "import sys\n"
        "before = set(sys.modules)\n"
        f"{code}\n"
        "print(' '.join(sorted(set(sys.modules) - before)))\n"
    ).split())


def loaded_by_cli(*argv: str) -> set[str]:
    """The qcseries submodules that the CLI import and one passing run load."""
    code = f"import qcseries.cli as cli\nassert cli.main({list(argv)!r}) == 0"
    return {m for m in loaded_by(code) if m.startswith("qcseries.")}


def test_cli_import_leaves_out_what_a_run_may_not_need():
    # every CLI run is a fresh interpreter that pays for each import again;
    # dataclasses alone pulls in inspect, ast, dis and tokenize, json serves
    # only --json and traceback only a runner that raised
    heavy = ("dataclasses", "inspect", "json", "traceback")
    assert loaded_by("import qcseries.cli") & set(heavy) == set()


def test_parser_loads_no_arithmetic():
    loaded = loaded_by("import qcseries.cli as cli\ncli.build_parser()")
    assert {m for m in loaded if m.startswith("qcseries")} == {
        "qcseries", "qcseries.cli", "qcseries.report"}
    # the parser is read off the CLI tables, so no argparse, nor the
    # gettext and locale it loads for its messages
    assert loaded & {"fractions", "decimal", "numbers", "argparse", "gettext", "locale"} == set()


@pytest.mark.parametrize("argv, left_out", [
    (("verify", "proj-recursion", "--n", "0", "--max-d", "1"), {"flaggw", "roots", "toda3"}),
    (("verify", "batyrev", "--max", "1"), {"flaggw", "roots", "projgw"}),
    (("verify", "lemma34", "--max", "1"), {"projgw", "toda3"}),
    (("series", "toda", "--max", "1"), {"flaggw", "roots", "projgw"}),
    (("verify", "toda-plain", "--max", "1"), {"flaggw", "projgw"}),
])
def test_a_run_loads_only_the_modules_it_reads(argv, left_out):
    assert loaded_by_cli(*argv) & {f"qcseries.{m}" for m in left_out} == set()


def test_every_package_name_resolves():
    assert fresh(
        "import qcseries\n"
        "from qcseries import *\n"
        "print(all(globals()[n] is getattr(qcseries, n) for n in qcseries.__all__))"
    ) == "True"
    # perfbench/child.py's and the README's imports
    fresh(
        "from qcseries import RatFunc, VarRegistry, projgw, substitute\n"
        "from qcseries import partial_fractions, recombine\n"
        "from qcseries.exactalg import RatFunc as R\n"
        "assert RatFunc is R and projgw.substitute is substitute\n"
        "print()"
    )
    assert fresh(
        "import qcseries\n"
        "try:\n"
        "    qcseries.no_such_name\n"
        "except AttributeError as exc:\n"
        "    print(exc)"
    ) == "module 'qcseries' has no attribute 'no_such_name'"
