"""Every imported name is used.

An AST scan of the package, the tests and the demos: each name an import
binds must be read somewhere in the same module, or listed in its
`__all__`.  `__future__` imports change how a module compiles and are
exempt.
"""

import ast
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
