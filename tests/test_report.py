"""A report times the `with` block it opens, and every verify function opens one.

The AST scan reads the modules that hold the verify functions: each
`VerificationReport(...)` call there must be the context expression of a
`with` item, so no check can build a report that goes untimed.
"""

import ast
from pathlib import Path

import pytest

from qcseries import projgw, toda3
from qcseries.report import VerificationReport

ROOT = Path(__file__).resolve().parent.parent
VERIFY_MODULES = ("projgw", "flaggw", "toda3")


def test_the_with_block_binds_the_report_and_sets_its_wall_time():
    report = VerificationReport("x", {})
    assert report.wall_ms is None
    with report as r:
        assert r is report
        assert r.wall_ms is None
    assert type(r.wall_ms) is float and r.wall_ms >= 0


def test_an_error_in_the_block_propagates_and_the_time_is_still_set():
    with pytest.raises(ValueError, match="inside"):
        with VerificationReport("x", {}) as r:
            raise ValueError("inside")
    assert type(r.wall_ms) is float and r.wall_ms >= 0


@pytest.mark.parametrize("module", VERIFY_MODULES)
def test_every_report_is_built_as_the_context_of_a_with(module):
    tree = ast.parse((ROOT / "src" / "qcseries" / f"{module}.py").read_text(encoding="utf-8"))
    calls = [
        node for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name) and node.func.id == "VerificationReport"
    ]
    contexts = [
        item.context_expr for node in ast.walk(tree) if isinstance(node, ast.With)
        for item in node.items
    ]
    assert calls
    untimed = [call.lineno for call in calls if not any(call is c for c in contexts)]
    assert not untimed, f"{module}: VerificationReport built outside a with at {untimed}"


@pytest.mark.parametrize(
    "check",
    [
        lambda: projgw.verify_theorem_3_3(projgw.ProjSetup(2), 0, "direct"),
        lambda: projgw.verify_theorem_3_3(projgw.ProjSetup(2), 0, "residue"),
        lambda: projgw.verify_theorem_3_3(projgw.ProjSetup(2), -1, "direct"),
        lambda: toda3.verify_recursions_plain(-1),
        lambda: toda3.verify_recursions_equivariant(-1),
        lambda: toda3.verify_batyrev(-1),
    ],
    ids=["proj-direct-0", "proj-residue-0", "proj-direct-neg", "toda-plain", "toda-eq",
         "batyrev"],
)
def test_a_bound_that_leaves_nothing_to_compare_raises(check):
    # a pass must mean at least one exact comparison, so a check raises for a
    # bound below its first comparison instead of passing over nothing
    with pytest.raises(ValueError, match="bound"):
        check()
