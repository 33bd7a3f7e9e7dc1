"""Every function, class and module-level constant the package defines is read.

An AST scan: each function and class defined in `src/qcseries`, and each
name bound by assignment at module level, must be named somewhere in the
package, the tests, the demos or the benchmark harness.  A reference is a
`Name` that is read, an `Attribute` or a string constant (the harness
patches functions by their string names).  A definition's own name, and an
assignment's target, is not a reference to it.  Dunder names are used by
the language and are exempt.

A second scan fails on a knob that only tests set: a defaulted parameter of
a package function that no call in the package, the demos or the benchmark
harness passes, by keyword or by position.

A third keeps each module's private names inside it: no package module
reads a private name that another one defines, by import or as an
attribute of anything but `self`, so every read across modules goes
through a public name."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = "src/qcseries"
SCANNED = (PACKAGE, "tests", "demos", "perfbench")
CALLERS = (PACKAGE, "demos", "perfbench")
# the entry point that tests drive; the console script passes no argv
KNOBS_KEPT = {"cli.py: main(argv)"}


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


def defaulted_parameters(source: str) -> list[tuple[str, str, int | None]]:
    """(function, parameter, positional index) of each defaulted parameter.

    The index is None for a keyword-only parameter, and counts from the
    first argument a call passes, so a method's `self` or `cls` is skipped.
    """
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            pos = args.posonlyargs + args.args
            bound = 1 if pos and pos[0].arg in ("self", "cls") else 0
            for index in range(len(pos) - len(args.defaults), len(pos)):
                found.append((node.name, pos[index].arg, index - bound))
            for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                if default is not None:
                    found.append((node.name, arg.arg, None))
    return found


def passed_arguments(source: str, calls: dict) -> None:
    """Fold into calls, per callee name, the most positionals and the keywords its calls pass.

    A starred argument passes every parameter.
    """
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
        count, keywords = calls.get(name, (0, set()))
        count = max(count, len(node.args))
        if any(isinstance(a, ast.Starred) for a in node.args) or any(
                k.arg is None for k in node.keywords):
            count = float("inf")
        calls[name] = (count, keywords | {k.arg for k in node.keywords})


def knobs(package_sources, caller_sources) -> list[str]:
    calls: dict = {}
    for source in caller_sources:
        passed_arguments(source, calls)
    found = []
    for label, source in package_sources:
        for function, parameter, index in defaulted_parameters(source):
            count, keywords = calls.get(function, (0, set()))
            if parameter not in keywords and (index is None or count <= index):
                found.append(f"{label}: {function}({parameter})")
    return found


def test_every_defaulted_parameter_is_passed_outside_the_tests():
    package = [(path.name, source) for path, source in sources(PACKAGE)]
    callers = [source for top in CALLERS for _, source in sources(top)]
    assert [k for k in knobs(package, callers) if k not in KNOBS_KEPT] == []


def test_knob_scan_finds_a_default_nothing_passes():
    source = (
        "def solve(table, bound=3, *, fast=False, strict=True): pass\n"
        "class Setup:\n"
        "    def chart(self, part='one', shift=0): pass\n"
        "def run(n, levels=(), extra=None): pass\n"
        "solve(1, 2, fast=True)\n"
        "Setup().chart('two')\n"
        "run(*[1, 2])\n"
    )
    assert knobs([("m.py", source)], [source]) == [
        "m.py: solve(strict)", "m.py: chart(shift)",
    ]


def private_names(source: str) -> set[str]:
    """The _names a module defines: functions, classes, methods and attributes, dunders left out."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            found.add(node.name)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
            found.add(node.attr)
    return {name for name in found if name.startswith("_") and not name.endswith("__")}


def private_reads(source: str, module: str, private: set[str]) -> list[tuple[int, str]]:
    """(line, name) of each read of a name in private, imported from module or not on self."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[-1] == module:
            found += [(node.lineno, alias.name) for alias in node.names if alias.name in private]
        elif isinstance(node, ast.Attribute) and node.attr in private and not (
                isinstance(node.value, ast.Name) and node.value.id == "self"):
            found.append((node.lineno, node.attr))
    return sorted(found)


def test_no_module_reads_a_private_name_of_another():
    package = {path.name: source for path, source in sources(PACKAGE)}
    assert [
        f"{name}:{line} {read}"
        for owner, defined in package.items()
        for name, source in package.items() if name != owner
        for line, read in private_reads(source, owner[:-3], private_names(defined))
    ] == []


def test_private_scan_finds_a_read_past_the_module():
    core = (
        "class Value:\n"
        "    def __init__(self): self._terms = {}\n"
        "    def _make(cls): pass\n"
        "    def total(self): return len(self._terms)\n"
        "def _helper(): pass\n"
        "PUBLIC = 1\n"
    )
    private = private_names(core)
    assert private == {"_terms", "_make", "_helper"}
    reader = (
        "from .core import Value, _helper\n"
        "class Other:\n"
        "    def __init__(self): self._terms = []\n"
        "    def read(self, v): return self._terms, v._terms, Value._make\n"
    )
    assert private_reads(reader, "core", private) == [
        (1, "_helper"), (4, "_make"), (4, "_terms"),
    ]
