"""Every imported name is used, and the CLI imports only what it runs.

An AST scan of the package, the tests and the demos: each name an import
binds must be read somewhere in the same module, or listed in its
`__all__`.  `__future__` imports change how a module compiles and are
exempt.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

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


def test_cli_import_leaves_out_what_a_run_may_not_need():
    # every CLI run is a fresh interpreter that pays for each import again;
    # dataclasses alone pulls in inspect, ast, dis and tokenize, json serves
    # only --json and traceback only a runner that raised
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    heavy = ("dataclasses", "inspect", "json", "traceback")
    proc = subprocess.run(
        [sys.executable, "-c",
         f"import sys, qcseries.cli; print([m for m in {heavy!r} if m in sys.modules])"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"
