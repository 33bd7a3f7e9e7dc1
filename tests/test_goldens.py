"""Every benchmark invocation, byte-compared with its committed golden output.

perfbench/run.py gates the same bytes, but only when the benchmark runs; here
each invocation goes through cli.main in process, so a changed stdout byte
fails the test suite as well.  perfbench/ is only read.

The harness scripts also read package names (`vars(MultiPoly)["divide_exact"]`,
`cli._combine`, `RatFunc.from_poly`, `ProjSetup.points`, ...), so one traced
child and one kernel run go through fresh interpreters here: renaming such a
name fails the test suite, not only the traced benchmark pass.
"""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from qcseries import cli

ROOT = Path(__file__).resolve().parent.parent
RUN_PY = ROOT / "perfbench" / "run.py"


def _load_bench():
    spec = importlib.util.spec_from_file_location("perfbench_run", RUN_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


BENCH = _load_bench()
INVOCATIONS = sorted({args for runs in BENCH.WORKLOADS.values() for args in runs})


@pytest.mark.parametrize("argv", INVOCATIONS, ids=lambda a: BENCH.golden_path(a).stem)
def test_invocation_matches_golden(capsys, argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    assert code == 0
    assert captured.err == ""
    assert captured.out.encode("utf-8") == BENCH.golden_path(argv).read_bytes()


def run_script(*args: str) -> subprocess.CompletedProcess:
    """A perfbench script run in a fresh interpreter over the package in src/."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, *args], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc


def test_traced_child_wraps_the_package_and_reports():
    proc = run_script("perfbench/child.py", "trace",
                      "verify", "proj-recursion", "--n", "1", "--max-d", "2")
    lines = [line for line in proc.stderr.splitlines() if line.startswith("PERFBENCH ")]
    assert len(lines) == 1
    stats = json.loads(lines[0].removeprefix("PERFBENCH "))
    assert stats["spans"]["cli.main"]["calls"] == 1
    # each emitted report: check name, status, comparisons, wall_ms
    assert stats["reports"]
    assert all(status == "pass" and checks > 0 for _, status, checks, _ in stats["reports"])


def test_kernels_run_and_report_every_kernel_metric():
    last = run_script("perfbench/kernels.py", "1").stdout.splitlines()[-1]
    assert sorted(json.loads(last)) == sorted(
        f"exactalg.kernel.{name}" for name in (
            "mul_big_linear.s", "divide_ok.s", "divide_fail.s", "from_factored.s",
            "substitute_chart.s", "big.terms", "substitute_chart.terms"))
