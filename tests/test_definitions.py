"""Every function and class the package defines is referenced by name.

An AST scan: each function and class defined in `src/qcseries` must be
named somewhere in the package, the tests, the demos or the benchmark
harness.  A reference is a `Name`, an `Attribute` or a string constant (the
harness patches functions by their string names).  A definition's own name
is not a reference to it.  Dunder methods are called by the language and
are exempt.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = "src/qcseries"
SCANNED = (PACKAGE, "tests", "demos", "perfbench")


def definitions(source: str) -> dict[str, int]:
    """Name -> line of each function and class defined, dunders left out."""
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    return {
        node.name: node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, kinds)
        and not (node.name.startswith("__") and node.name.endswith("__"))
    }


def references(source: str) -> set[str]:
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
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
        "class Table:\n"
        "    def __init__(self): self.rows = []\n"
        "    def reader(self): return helper\n"
        "def helper(): pass\n"
        "def leftover(): pass\n"
        "PATCHED = ['reader']\n"
    )
    defined = definitions(source)
    assert sorted(defined) == ["Table", "helper", "leftover", "reader"]
    assert [name for name in defined if name not in references(source)] == [
        "Table", "leftover",
    ]
