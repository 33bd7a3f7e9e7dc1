"""Every function, class and module-level constant the package defines is read.

An AST scan: each function and class defined in `src/qcseries`, and each
name bound by assignment at module level, must be named somewhere in the
package, the tests, the demos or the benchmark harness.  A reference is a
`Name` that is read, an `Attribute` or a string constant (the harness
patches functions by their string names).  A definition's own name, and an
assignment's target, is not a reference to it.  Dunder names are used by
the language and are exempt."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = "src/qcseries"
SCANNED = (PACKAGE, "tests", "demos", "perfbench")


def definitions(source: str) -> dict[str, int]:
    """Name -> line of each function, class and module-level assignment, dunders left out."""
    tree = ast.parse(source)
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    found = {node.name: node.lineno for node in ast.walk(tree) if isinstance(node, kinds)}
    for stmt in tree.body:
        if isinstance(stmt, ast.Assign):
            targets = stmt.targets
        elif isinstance(stmt, ast.AnnAssign):
            targets = [stmt.target]
        else:
            continue
        for target in targets:
            for node in ast.walk(target):
                if isinstance(node, ast.Name):
                    found[node.id] = node.lineno
    return {
        name: line for name, line in found.items()
        if not (name.startswith("__") and name.endswith("__"))
    }


def references(source: str) -> set[str]:
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            found.add(node.value)
    return found


def sources(top: str):
    for path in sorted((ROOT / top).rglob("*.py")):
        yield path, path.read_text(encoding="utf-8")


def test_every_definition_is_referenced():
    used = set()
    for top in SCANNED:
        for _, source in sources(top):
            used |= references(source)
    dead = [
        f"{path.relative_to(ROOT)}: {name} (line {line})"
        for path, source in sources(PACKAGE)
        for name, line in sorted(definitions(source).items())
        if name not in used
    ]
    assert dead == []


def test_scan_finds_a_definition_nothing_names():
    source = (
        "__version__ = '1'\n"
        "LIMIT = 3\n"
        "UNREAD: int = 4\n"
        "class Table:\n"
        "    def __init__(self): self.rows = [0] * LIMIT\n"
        "    def reader(self): return helper\n"
        "def helper(): pass\n"
        "def leftover(): pass\n"
        "PATCHED = ['reader']\n"
        "print(PATCHED)\n"
    )
    defined = definitions(source)
    assert sorted(defined) == [
        "LIMIT", "PATCHED", "Table", "UNREAD", "helper", "leftover", "reader",
    ]
    assert [name for name in sorted(defined) if name not in references(source)] == [
        "Table", "UNREAD", "leftover",
    ]
