"""End-to-end tests for the command-line interface.

Everything goes through cli.main(argv) so exit codes, stdout bytes, and
stderr diagnostics are exercised exactly as a shell user would see them.
"""

import atexit
import gc
import hashlib
import io
import json
import os
import re
import subprocess
import sys
from math import factorial
from pathlib import Path

import pytest

from qcseries import cli, exactalg, flaggw, projgw, toda3
from qcseries.exactalg import PoleError, RatFunc, VarRegistry
from qcseries.report import VerificationReport
from qcseries.roots import RootSystem

ROOT = Path(__file__).resolve().parent.parent
TODA_GOLDEN = ROOT / "perfbench" / "goldens" / "series_toda.out"


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def python(*args):
    """Run a fresh interpreter over src/ in the repository root; bytes out."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, *args], cwd=ROOT, env=env,
                          capture_output=True, timeout=120)


# -- series golden output ----------------------------------------------------------


def test_series_proj_chart_part1_golden(capsys):
    code, out, err = run(
        capsys, "series", "proj", "--n", "1", "--max-d", "2", "--chart", "part1"
    )
    assert code == 0 and err == ""
    lines = out.splitlines()
    assert lines[0] == "qcseries series v1"
    assert "param chart=part1" in lines
    assert "row i=0 d=1 1/(alpha + h)" in lines
    assert (
        "series i=0 1 + q/(alpha + h) + q^2/(2(alpha + h)(alpha + 2*h))" in lines
    )
    # the other fixed point carries the sign-flipped denominators
    assert "series i=1 1 - q/(alpha - h) + q^2/(2(alpha - 2*h)(alpha - h))" in lines


def lambda_product_text(n, i, d):
    # the closed product formula over lambda_0..lambda_n, h, built here rather
    # than through projgw, so the printed weights are pinned independently
    reg = VarRegistry([f"lambda_{a}" for a in range(n + 1)] + ["h"])
    lam = [reg.var(f"lambda_{a}") for a in range(n + 1)]
    h = reg.var("h")
    dens = [
        lam[i] - lam[j] + h.scale(m)
        for j in range(n + 1) if j != i
        for m in range(1, d + 1)
    ]
    return RatFunc.from_factored(reg.one(), dens, scale=factorial(d)).text()


@pytest.mark.parametrize("n", [1, 2, 3])
def test_series_proj_prints_the_product_formula_in_lambda(capsys, n):
    code, out, err = run(capsys, "series", "proj", "--n", str(n), "--max-d", "3")
    assert code == 0 and err == ""
    rows = [line for line in out.splitlines() if line.startswith("row ")]
    assert len(rows) == (n + 1) * 4
    for line in rows:
        _, i, d, text = line.split(" ", 3)
        assert text == lambda_product_text(n, int(i[2:]), int(d[2:]))


def test_series_proj_lambda_rows_golden(capsys):
    _, out, _ = run(capsys, "series", "proj", "--n", "1", "--max-d", "3")
    lines = out.splitlines()
    assert "row i=0 d=1 1/(lambda_0 - lambda_1 + h)" in lines
    assert (
        "row i=0 d=2 1/(2(lambda_0 - lambda_1 + h)(lambda_0 - lambda_1 + 2*h))"
        in lines
    )
    _, out, _ = run(capsys, "series", "proj", "--n", "2", "--max-d", "1")
    assert (
        "row i=1 d=1 -1/((lambda_0 - lambda_1 - h)(lambda_1 - lambda_2 + h))"
        in out.splitlines()
    )


def test_series_proj_point_target(capsys):
    code, out, _ = run(capsys, "series", "proj", "--n", "0", "--max-d", "3")
    assert code == 0
    lines = out.splitlines()
    assert "row i=0 d=2 1/(2h^2)" in lines
    assert "row i=0 d=3 1/(6h^3)" in lines
    assert "series i=0 1 + q/(h) + q^2/(2h^2) + q^3/(6h^3)" in lines


def test_series_toda_plain_rows(capsys):
    code, out, _ = run(capsys, "series", "toda", "--max", "4")
    assert code == 0
    lines = out.splitlines()
    assert "row i=0 j=0 1" in lines
    assert "row i=1 j=1 2" in lines
    assert "row i=2 j=2 3/8" in lines
    # triangle bound: i + j never exceeds the requested total
    for line in lines:
        if line.startswith("row"):
            parts = dict(p.split("=") for p in line.split()[1:3])
            assert int(parts["i"]) + int(parts["j"]) <= 4


def test_series_toda_eq_chart(capsys):
    code, out, _ = run(
        capsys, "series", "toda-eq", "--max", "1", "--chart", "part3"
    )
    assert code == 0
    lines = out.splitlines()
    assert "param chart=part3" in lines
    assert "row i=0 j=0 1" in lines
    # root variables rewritten as consecutive weight differences
    assert "row i=1 j=0 -1/((lambda_0 - lambda_1 - h)h)" in lines


@pytest.mark.parametrize("chart, golden", [
    ((), "series_toda-eq_max_8.out"),
    (("--chart", "part3"), "series_toda-eq_chart_part3_max_8.out"),
])
def test_series_toda_eq_bytes_at_the_cap(capsys, chart, golden):
    # both print paths at the cap: the values as computed, in the roots, and
    # written in the weights through Part III's chart
    code, out, err = run(capsys, "series", "toda-eq", "--max", "8", *chart)
    assert (code, err) == (0, "")
    assert out.encode("utf-8") == (ROOT / "tests" / golden).read_bytes()


def test_series_flag_a2_identity_rows(capsys):
    code, out, _ = run(capsys, "series", "flag-a2", "--max", "2")
    assert code == 0
    lines = out.splitlines()
    assert "param convention=lemma37" in lines
    assert "row w=id beta=0,0 1" in lines
    assert "row w=id beta=1,0 1/(alpha_1 + h)" in lines
    assert (
        "row w=id beta=1,1 (alpha_1 + alpha_2 + 2*h)"
        "/((alpha_2 + h)(alpha_1 + alpha_2 + h)(alpha_1 + h))" in lines
    )


@pytest.mark.parametrize("argv, digest", [
    (("series", "flag-a2", "--max", "5"),
     "7ec880abc1793a69ff1d75706ca18fdf59408f98755c2d27ef70f18b9b5afaac"),
    (("series", "flag-a1", "--max-d", "8"),
     "5ba6e85542f2f07f21ae814809217543354ca3ade606acd3cc841fd3a2314dd7"),
], ids=["flag-a2-max-5", "flag-a1-max-d-8"])
def test_series_flag_at_its_cap_holds_its_bytes(capsys, argv, digest):
    # the goldens stop at the default bound 3; these digests pin every
    # Weyl element's rows at the caps, read as w-images of the identity table
    code, out, err = run(capsys, *argv)
    assert code == 0 and err == ""
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


@pytest.mark.parametrize("argv, digest", [
    (("series", "proj", "--n", "3", "--max-d", "3"),
     "6f11bc043cadc159ff75a9d6bf2227b49b4ac1fc8f1b3b7f6fda9d539200b453"),
    (("series", "proj", "--n", "2", "--max-d", "6"),
     "fcc87847c16af2114833126bc9cf94222ad91884d60b3f035b92ab19b64678e2"),
], ids=["proj-n-3-max-d-3", "proj-n-2-max-d-6"])
def test_series_proj_at_its_cap_holds_its_bytes(capsys, argv, digest):
    # the goldens stop at d = 3 for n = 1; these digests pin every fixed
    # point's rows at the caps, read as Weyl images of point 0's table
    code, out, err = run(capsys, *argv)
    assert code == 0 and err == ""
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


def test_series_deterministic_bytes(capsys):
    argv = ("series", "proj", "--n", "2", "--max-d", "3")
    _, first, _ = run(capsys, *argv)
    _, second, _ = run(capsys, *argv)
    assert first == second


def test_series_out_file(tmp_path, capsys):
    path = tmp_path / "table.txt"
    code, out, _ = run(
        capsys, "series", "toda", "--max", "2", "--out", str(path)
    )
    assert code == 0 and out == ""
    written = path.read_text(encoding="utf-8")
    _, direct, _ = run(capsys, "series", "toda", "--max", "2")
    assert written == direct


@pytest.mark.parametrize("where,reason", [
    ("missing/dir/x.out", "No such file or directory"),
    (".", "Is a directory"),
], ids=["missing-directory", "directory"])
def test_out_path_that_cannot_be_written_is_usage_error(tmp_path, capsys, where, reason):
    path = tmp_path / where
    code, out, err = run(capsys, "verify", "batyrev", "--max", "1", "--out", str(path))
    assert code == 2 and out == ""
    assert err == f"error: cannot write --out {path}: {reason}\n"


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_out_write_that_fails_is_usage_error(capsys, monkeypatch):
    # /dev/full refuses the truncate; a file that is not seekable skips it,
    # so its write fails when the buffer is flushed on close
    code, out, err = run(capsys, "verify", "batyrev", "--out", "/dev/full")
    assert (code, out, err) == (2, "", "error: cannot write --out /dev/full: Invalid argument\n")

    class Unseekable(io.TextIOWrapper):
        def seekable(self):
            return False

    monkeypatch.setattr(cli, "open", lambda path, mode, encoding: Unseekable(
        open(path, mode + "b"), encoding=encoding), raising=False)
    code, out, err = run(capsys, "verify", "batyrev", "--out", "/dev/full")
    assert (code, out) == (2, "")
    assert err == "error: cannot write --out /dev/full: No space left on device\n"


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_stdout_write_that_fails_is_usage_error():
    # a fresh interpreter, so that its final flush of stdout is exercised
    # too: it must neither report the failure a second time nor change the
    # exit code
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    with open("/dev/full", "w", encoding="utf-8") as full:
        proc = subprocess.run(
            [sys.executable, "-m", "qcseries", "verify", "batyrev", "--max", "2"],
            cwd=ROOT, env=env, stdout=full, stderr=subprocess.PIPE, text=True,
            timeout=120,
        )
    assert proc.returncode == 2
    assert proc.stderr == "error: cannot write stdout: No space left on device\n"


@pytest.mark.parametrize("argv", [
    ("--max", "17"),
    ("--out", "missing/dir/x.out"),
], ids=["bound-over-cap", "unwritable-out"])
def test_usage_error_comes_before_any_check_runs(tmp_path, capsys, monkeypatch, argv):
    # proj-recursion runs first in `verify all` and a1-cross third; no check
    # may start before a later check's bound or the --out path is refused
    calls = []
    monkeypatch.setattr(projgw, "verify_theorem_3_3", lambda *a: calls.append(a))
    monkeypatch.setattr(flaggw, "verify_a1_crosscheck", lambda *a: calls.append(a))
    argv = [str(tmp_path / a) if a.startswith("missing") else a for a in argv]
    code, out, err = run(capsys, "verify", "all", "--level", "full", *argv)
    assert (code, out, calls) == (2, "", [])
    assert err.startswith("error: ")


@pytest.mark.parametrize("name, function, option", [
    ("a1-cross", "flaggw.verify_a1_crosscheck", "--max-d"),
    ("a2-recursion", "flaggw.verify_a2_theorem_3_2", "--max"),
    ("toda-plain", "toda3.verify_recursions_plain", "--max"),
    ("toda-eq", "toda3.verify_recursions_equivariant", "--max"),
    ("batyrev", "toda3.verify_batyrev", "--max"),
    ("corollary35", "toda3.verify_corollary_3_5", "--max"),
])
def test_a_check_runs_the_function_its_module_holds(capsys, monkeypatch,
                                                    name, function, option):
    # a check looks its verify function up when it runs, so a function
    # patched on its module, as a tracer or a test does, is the one called
    calls = []

    def patched(bound):
        calls.append(bound)
        return VerificationReport(name, {"patched": bound})

    monkeypatch.setattr(f"qcseries.{function}", patched)
    code, out, _ = run(capsys, "verify", name, option, "0")
    assert (code, calls) == (0, [0])
    assert "param patched=0" in out


def test_a_run_that_ends_early_leaves_an_existing_out_file(tmp_path, capsys, monkeypatch):
    path = tmp_path / "report.txt"
    path.write_text("an earlier, longer report\n" * 3, encoding="utf-8")
    code, _, _ = run(capsys, "verify", "all", "--max", "17", "--out", str(path))
    assert code == 2
    assert path.read_text(encoding="utf-8") == "an earlier, longer report\n" * 3

    # a pole ends the run after --out is open
    def pole(*args):
        raise PoleError("planted")

    with monkeypatch.context() as m:
        m.setattr(toda3, "closed_solution", pole)
        code, _, err = run(capsys, "series", "toda", "--max", "1", "--out", str(path))
    assert code == 1 and err == "error: pole during evaluation: planted\n"
    assert path.read_text(encoding="utf-8") == "an earlier, longer report\n" * 3
    # a run that completes replaces the whole file
    code, _, _ = run(capsys, "series", "toda", "--max", "1", "--out", str(path))
    _, direct, _ = run(capsys, "series", "toda", "--max", "1")
    assert code == 0 and path.read_text(encoding="utf-8") == direct


# -- q-series rendering ------------------------------------------------------------


def test_q_series_text_shapes():
    reg = VarRegistry(["a", "b", "h"])
    a, b, h = map(reg.var, reg.names)

    def rf(num, *dens):
        return RatFunc.from_factored(reg.one() * num, list(dens))

    assert cli.q_series_text([rf(1)]) == "1"
    assert cli.q_series_text([rf(1), rf(1, h)]) == "1 + q/(h)"
    assert cli.q_series_text([rf(1), rf(-1, h + a), rf(1)]) == "1 - q/(a + h) + q^2"
    assert (
        cli.q_series_text([rf(0), rf(2), rf(-3, h + 1)])
        == "0 + 2*q - 3*q^2/(h + 1)"
    )
    # a multi-term numerator is one factor, with a denominator or without,
    # and a negative one prints negated after the sign
    assert cli.q_series_text([rf(1), rf(a + h)]) == "1 + (a + h)*q"
    assert cli.q_series_text([rf(1), rf(a + b, a + h)]) == "1 + (a + b)*q/(a + h)"
    assert (
        cli.q_series_text([rf(a + h), rf(-a - b, a + h), rf(h - a)])
        == "a + h - (a + b)*q/(a + h) - (a - h)*q^2"
    )


# -- verify ------------------------------------------------------------------------


def test_verify_single_check_passes(capsys):
    code, out, _ = run(capsys, "verify", "batyrev", "--max", "4")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "qcseries verify v1"
    assert "check batyrev" in lines
    assert "status pass" in lines
    assert not any(l.startswith("failure") for l in lines)


def test_verify_all_quick(capsys):
    code, out, _ = run(capsys, "verify", "all")
    assert code == 0
    lines = out.splitlines()
    statuses = [l for l in lines if l.startswith("status ")]
    # every suite in the quick matrix must report, none may fail
    assert len(statuses) >= len(cli.VERIFY_CHECKS)
    assert all(s in ("status pass", "status skipped") for s in statuses)


def test_verify_exits_one_on_a_wrong_coefficient(capsys, monkeypatch):
    closed = toda3.closed_a
    monkeypatch.setattr(
        toda3, "closed_a", lambda i, j: closed(i, j) + (1 if (i, j) == (1, 1) else 0)
    )
    code, out, _ = run(capsys, "verify", "batyrev", "--max", "3")
    assert code == 1
    lines = out.splitlines()
    assert "status fail" in lines
    assert "failure i=1 j=1 | 2 | 3" in lines


def test_a_failing_part_fails_the_combined_report(capsys, monkeypatch):
    # euler-prefactor combines one report per (i, j, k, d); each failure of a
    # part is kept, its location prefixed with the part's indices
    identity = projgw.euler_prefactor_identity

    def broken(setup, i, j, k, d):
        report = identity(setup, i, j, k, d)
        if (i, j, k) == (0, 1, 1):
            report.fail("injected", 1, 2)
        return report

    monkeypatch.setattr(projgw, "euler_prefactor_identity", broken)
    code, out, _ = run(capsys, "verify", "euler-prefactor", "--n", "1", "--max-d", "2")
    assert code == 1
    assert out.splitlines()[-3:] == [
        "status fail",
        "failure i=0 j=1 k=1 d=1 injected | 1 | 2",
        "failure i=0 j=1 k=1 d=2 injected | 1 | 2",
    ]


def test_verify_json_mirror(capsys):
    code, out, _ = run(capsys, "verify", "lemma34", "--max", "2", "--json")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 1
    payload = json.loads(lines[0])
    assert payload["format"] == "qcseries.verify.v1"
    assert payload["reports"]
    assert all(r["status"] == "pass" for r in payload["reports"])
    assert all("wall" not in key for r in payload["reports"] for key in r)


def test_verify_json_deterministic(capsys):
    argv = ("verify", "toda-plain", "--max", "5", "--json")
    _, first, _ = run(capsys, *argv)
    _, second, _ = run(capsys, *argv)
    assert first == second


# -- usage errors ------------------------------------------------------------------


def test_unknown_check_exits_2(capsys):
    code, _, err = run(capsys, "verify", "nonsense")
    assert code == 2
    assert err != ""


def test_series_proj_dimension_out_of_range(capsys):
    code, _, err = run(capsys, "series", "proj", "--n", "5")
    assert code == 2
    assert "error:" in err


def test_series_degree_cap_enforced(capsys):
    code, _, err = run(capsys, "series", "proj", "--n", "3", "--max-d", "5")
    assert code == 2
    assert "cap" in err


def test_verify_bound_cap_enforced(capsys):
    code, _, err = run(capsys, "verify", "toda-eq", "--max", "99")
    assert code == 2
    assert "cap" in err


def test_toda_operators_reruns_every_full_level_order_by_name(capsys):
    # the full level runs the plain operators at order 12, so --max 12 must
    # be accepted; it sets both orders
    code, out, _ = run(capsys, "verify", "toda-operators", "--max", "12")
    assert code == 0
    lines = out.splitlines()
    assert lines.count("status pass") == 2
    assert lines.count("param max_total=12") == 2
    code, out, err = run(capsys, "verify", "toda-operators", "--max", "13")
    assert code == 2
    assert out == ""
    assert err == "error: --max exceeds the cap 12\n"

def test_chart_rejected_off_target(capsys):
    # the error names the target: toda takes no chart, toda-eq only part3
    for target, chart, message in (
        ("toda", "part1", "series toda does not take --chart"),
        ("toda", "part3", "series toda does not take --chart"),
        ("toda-eq", "part1", "series toda-eq takes only --chart part3"),
    ):
        code, out, err = run(capsys, "series", target, "--max", "2", "--chart", chart)
        assert (code, out, err) == (2, "", f"error: {message}\n")
    code, _, err = run(capsys, "series", "proj", "--n", "0", "--chart", "part1")
    assert code == 2


def test_runs_build_no_root_system_past_the_one_per_rank(capsys, monkeypatch):
    # every type-A value is over RootSystem.type_A(rank), so once ranks 1..3
    # are built no run constructs a root system of its own
    for rank in (1, 2, 3):
        RootSystem.type_A(rank)

    def refuse(self, cartan):
        raise AssertionError("a run built a root system of its own")

    monkeypatch.setattr(RootSystem, "__init__", refuse)
    for argv in (("verify", "all"), ("series", "flag-a1"), ("series", "flag-a2"),
                 ("series", "toda-eq"), ("series", "proj", "--n", "3", "--max-d", "1")):
        code, _, err = run(capsys, *argv)
        assert (code, err) == (0, ""), argv


@pytest.mark.parametrize(
    "argv",
    [
        ("series", "flag-a1", "--chart", "part1"),
        ("series", "toda", "--convention", "theorem38"),
        ("series", "toda-eq", "--n", "2"),
        ("series", "proj", "--max", "2"),
        ("series", "flag-a2", "--max-d", "2"),
        ("series", "proj", "--level", "full"),
    ],
    ids=lambda argv: argv[2],
)
def test_series_option_its_target_does_not_read_is_usage_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    if argv[2] in ("--convention", "--level"):
        # no series target takes it, so the parser itself rejects it
        assert err.endswith(f"error: unrecognized arguments: {' '.join(argv[2:])}\n")
    else:
        assert err == f"error: series {argv[1]} does not take {argv[2]}\n"


@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "batyrev", "--chart", "part1"),
        ("verify", "batyrev", "--n", "3"),
        ("verify", "toda-plain", "--max-d", "2"),
        ("verify", "a1-cross", "--max", "2"),
        ("verify", "all", "--chart", "part1"),
    ],
    ids=lambda argv: f"{argv[1]} {argv[2]}",
)
def test_verify_option_its_check_does_not_read_is_usage_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    if argv[2] == "--chart":
        # no verify check takes it, so the parser itself rejects it
        assert err.endswith(f"error: unrecognized arguments: {' '.join(argv[2:])}\n")
    else:
        assert err == f"error: verify {argv[1]} does not take {argv[2]}\n"


@pytest.mark.parametrize(
    "argv",
    [
        ("series", "proj", "--n", "3", "--max-d", "4"),
        ("verify", "proj-recursion", "--n", "3", "--max-d", "4"),
        ("verify", "proj-recursion", "--level", "full", "--max-d", "4"),
    ],
    ids=["series n=3", "verify n=3", "verify every n"],
)
def test_proj_degree_over_the_cap_is_usage_error(capsys, argv):
    # at n = 3 an explicit --max-d above 3 is refused on both paths, before
    # any dimension runs; the full-level preset (5) is clamped to the cap
    # instead, as the proj-recursion goldens show
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err == "error: --max-d exceeds the cap 3\n"


def test_negative_bound_rejected(capsys):
    code, _, err = run(capsys, "verify", "batyrev", "--max", "-1")
    assert code == 2
    assert ">= 0" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "toda-operators", "--max", "0"),
        ("verify", "lemma34", "--max", "0"),
        ("verify", "euler-prefactor", "--max-d", "0"),
        ("verify", "proj-recursion", "--max-d", "0"),
    ],
    ids=lambda argv: argv[1],
)
def test_bound_below_runner_minimum_is_usage_error(capsys, argv):
    # below these minimums a runner would compare nothing (or crash), so a
    # pass there would be vacuous
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err == f"error: {argv[2]} must be >= 1\n"


@pytest.mark.parametrize("n", ["0", "3"])
def test_verify_all_names_the_check_that_rejects_n(capsys, n):
    # proj-recursion accepts n in 0..3 but euler-prefactor only 1 and 2; the
    # error names the check and comes before any check runs
    code, out, err = run(capsys, "verify", "all", "--n", n)
    assert code == 2
    assert out == ""
    assert err == "error: --n must be in 1..2 for euler-prefactor\n"


# -- the parser ------------------------------------------------------------------------


def test_options_come_in_either_spelling_anywhere_and_the_last_wins(capsys):
    want = run(capsys, "verify", "batyrev", "--max", "2")
    assert want[0] == 0
    for argv in (
        ("verify", "batyrev", "--max=2"),
        ("verify", "--max", "2", "batyrev"),
        ("verify", "--max=5", "batyrev", "--level", "full", "--max", "2"),
        ("verify", "--level=full", "--level", "quick", "batyrev", "--max=2"),
    ):
        assert run(capsys, *argv) == want, argv
    _, table, _ = run(capsys, "series", "proj", "--n", "1", "--max-d", "2", "--chart", "part1")
    assert run(capsys, "series", "--chart=part1", "--max-d=2", "proj", "--n=1")[1] == table
    # an int value may be negative, in either spelling, and reaches the bound check
    for value in (("--max", "-1"), ("--max=-1",)):
        assert run(capsys, "verify", "batyrev", *value) == (
            2, "", "error: --max must be >= 0\n")


@pytest.mark.parametrize("argv", [
    ("--help",), ("-h",), ("verify", "-h"), ("series", "toda", "--max", "2", "--help"),
    ("verify", "nonsense", "--max", "x", "--help"),
], ids=" ".join)
def test_help_anywhere_prints_the_usage_the_tables_give(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    assert out.startswith("usage: qcseries series TARGET [OPTION...]\n")
    words = set(out.split())
    assert {*cli.SERIES, *cli.CHECKS, "all"} <= words
    assert {"--n", "--max-d", "--max", "--chart", "--level", "--json", "--out"} <= words


SERIES_NAMES = ", ".join(cli.SERIES)
CHECK_NAMES = ", ".join((*cli.CHECKS, "all"))


USAGE_ERRORS = [
    ((), "missing command: choose from series, verify"),
    (("tables", "toda"), "unknown command 'tables': choose from series, verify"),
    (("series",), f"series needs a target: choose from {SERIES_NAMES}"),
    (("verify", "--max", "2"), f"verify needs a check: choose from {CHECK_NAMES}"),
    (("series", "nonsense"), f"unknown series target 'nonsense': choose from {SERIES_NAMES}"),
    (("verify", "batyrev", "toda-eq"), "unrecognized arguments: toda-eq"),
    (("verify", "batyrev", "--chart=part1"), "unrecognized arguments: --chart=part1"),
    (("series", "toda", "--n", "2", "--max", "2"), "series toda does not take --n"),
    (("verify", "batyrev", "--max", "two"), "--max takes an integer, not 'two'"),
    (("verify", "batyrev", "--level", "deep"), "--level takes one of quick, full, not 'deep'"),
    (("series", "proj", "--chart=part2"), "--chart takes one of part1, part3, not 'part2'"),
    (("verify", "batyrev", "--max"), "--max needs a value"),
    (("verify", "batyrev", "--json=yes"), "--json takes no value"),
]


@pytest.mark.parametrize("argv, message", USAGE_ERRORS,
                         ids=[" ".join(argv) or "none" for argv, _ in USAGE_ERRORS])
def test_each_usage_error_is_one_line_before_any_work(capsys, argv, message):
    assert run(capsys, *argv) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("argv", [
    ("verify", "batyrev", "--lev", "full"),
    ("verify", "batyrev", "--ma=2"),
    ("series", "proj", "--max-", "2"),
], ids=" ".join)
def test_an_abbreviated_option_is_a_usage_error(capsys, argv):
    # every option is spelled in full: a prefix is an argument nothing reads
    assert run(capsys, *argv) == (
        2, "", f"error: unrecognized arguments: {' '.join(argv[2:])}\n")


# -- exit ----------------------------------------------------------------------------

# registered before main runs, so atexit, last in first out, calls it after any
# hook main registers; it reports how many objects the exit left frozen
EXIT_OBSERVER = (
    "import atexit, gc, sys\n"
    "atexit.register(lambda: sys.stderr.write(f'frozen {gc.get_freeze_count()}\\n'))\n"
)


def frozen_at_exit(stderr: bytes) -> int:
    """The observer's count; it must be the only thing on stderr."""
    match = re.fullmatch(rb"frozen (\d+)\n", stderr)
    assert match, stderr
    return int(match.group(1))


def test_a_process_exits_with_every_object_frozen():
    # main registers gc.freeze with atexit, so the interpreter's final cyclic
    # collection traverses nothing; the output is unchanged
    proc = python("-c", EXIT_OBSERVER + "import qcseries.cli\n"
                  "sys.exit(qcseries.cli.main(['series', 'toda']))")
    assert proc.returncode == 0
    assert proc.stdout == TODA_GOLDEN.read_bytes()
    assert frozen_at_exit(proc.stderr) > 0


def test_main_registers_one_freeze_at_exit_and_freezes_nothing(capsys, monkeypatch):
    # however often main runs, and before it parses its arguments, it leaves
    # one registration of gc.freeze; nothing is frozen while the process lives
    registered = []

    def register(func, *args, **kwargs):
        registered.append(func)
        return func

    def unregister(func):
        registered[:] = [f for f in registered if f != func]

    monkeypatch.setattr(atexit, "register", register)
    monkeypatch.setattr(atexit, "unregister", unregister)
    frozen = gc.get_freeze_count()
    assert run(capsys, "series", "toda", "--max", "1")[0] == 0
    assert registered == [gc.freeze]
    assert run(capsys, "verify", "no-such-check")[0] == 2
    assert registered == [gc.freeze]
    assert gc.get_freeze_count() == frozen


@pytest.mark.parametrize("module", ["qcseries", "qcseries.cli"])
def test_module_entry_points_run_cleanly(module):
    proc = python("-m", module, "verify", "batyrev")
    assert proc.returncode == 0
    assert proc.stderr == b""
    assert b"status pass" in proc.stdout
    # run as -m runs it, under the exit observer: the hook is registered and
    # nothing else reaches stderr
    observed = python("-c", EXIT_OBSERVER + "import runpy\n"
                      f"runpy.run_module({module!r}, run_name='__main__', alter_sys=True)",
                      "verify", "batyrev")
    assert observed.returncode == 0
    assert observed.stdout == proc.stdout
    assert frozen_at_exit(observed.stderr) > 0


def test_out_file_is_whole_when_a_fresh_interpreter_exits(tmp_path):
    # the exit skips the final collection, so a handle left to the collector
    # would never be flushed; main closes --out before it returns
    path = tmp_path / "toda.out"
    proc = python("-m", "qcseries", "series", "toda", "--out", str(path))
    assert proc.returncode == 0
    assert proc.stdout == b"" and proc.stderr == b""
    assert path.read_bytes() == TODA_GOLDEN.read_bytes()


# -- what the checks compare ---------------------------------------------------------


def test_checks_compare_only_linear_denominators_in_canonical_form(capsys, monkeypatch):
    # every denominator in the package is a product of linear forms; kept
    # factored, two equal values have the same canonical form, so equality
    # needs no cross-multiplication
    nonlinear, differ = [], []
    check_equal = VerificationReport.check_equal

    def canonical(value):
        return value.scalar, value.num, [(f.key(), m) for f, m in value.factors]

    def recording(self, location, left, right):
        sides = [v for v in (left, right) if isinstance(v, RatFunc)]
        for value in sides:
            if any(max(sum(mono) for mono, _ in f.monomials()) != 1 for f, _ in value.factors):
                nonlinear.append((self.check, location))
        if sides and left == right:
            registry = sides[0].registry
            if canonical(RatFunc.coerce(registry, left)) != canonical(
                    RatFunc.coerce(registry, right)):
                differ.append((self.check, location))
        return check_equal(self, location, left, right)

    monkeypatch.setattr(VerificationReport, "check_equal", recording)
    code, _, _ = run(capsys, "verify", "all", "--level", "quick")
    assert code == 0
    assert nonlinear == [] and differ == []


def test_checks_map_no_linear_form_through_powers(capsys, monkeypatch):
    # a substitution maps a polynomial of total degree at most 1 through its
    # integer linear map, so this fails if one reaches the loop over products
    # of powers; nonlinear numerators still take that loop
    expand = exactalg._Evaluation._expand
    expanded = []

    def nonlinear_only(self, p):
        if max(p.terms, default=0) >> p.registry._deg_shift <= 1:
            raise AssertionError(f"linear form {p.text()} reached the power loop")
        expanded.append(p)
        return expand(self, p)

    monkeypatch.setattr(exactalg._Evaluation, "_expand", nonlinear_only)
    code, _, err = run(capsys, "verify", "all", "--level", "quick")
    assert code == 0, err
    assert expanded


# -- runner failures -----------------------------------------------------------------


def test_unexpected_runner_error_becomes_fail_report(capsys, monkeypatch):
    # a runner checks its bounds and returns the work that makes the reports
    def passing(name):
        def work():
            report = VerificationReport(name, {})
            report.check_equal("stub", 1, 1)
            return [report]
        return lambda args, quick: work

    def broken(args, quick):
        def work():
            raise RuntimeError("planted")
        return work

    for name in cli.VERIFY_CHECKS:
        runner = broken if name == "lemma34" else passing(name)
        monkeypatch.setitem(cli.CHECKS, name, (cli.CHECKS[name][0], runner))
    code, out, err = run(capsys, "verify", "all")
    assert code == 1
    blocks = out.split("\n\n")[1:]
    assert len(blocks) == len(cli.VERIFY_CHECKS)
    assert blocks[cli.VERIFY_CHECKS.index("lemma34")].splitlines() == [
        "check lemma34",
        "status fail",
        "failure runner | RuntimeError: planted | no exception",
    ]
    # the other checks still report, and the traceback stays off stdout
    assert sum("status pass" in b for b in blocks) == len(cli.VERIFY_CHECKS) - 1
    assert "Traceback" not in out
    assert err.startswith("error: check lemma34 raised\n")
    assert "RuntimeError: planted" in err


# -- benchmark trace mode ------------------------------------------------------------


def test_benchmark_trace_mode_finds_every_traced_function():
    # perfbench/child.py wraps qcseries functions by name, so a rename or a
    # deletion among them breaks the traced benchmark run
    proc = python("perfbench/child.py", "trace", "verify", "a2-recursion", "--max", "1")
    assert proc.returncode == 0, proc.stderr
    stats = [ln for ln in proc.stderr.decode().splitlines() if ln.startswith("PERFBENCH ")]
    assert len(stats) == 1
