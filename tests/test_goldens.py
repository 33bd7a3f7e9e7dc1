"""Every benchmark invocation, byte-compared with its committed golden output.

perfbench/run.py gates the same bytes, but only when the benchmark runs; here
each invocation goes through cli.main in process, so a changed stdout byte
fails the test suite as well.  perfbench/ is only read.
"""

import importlib.util
from pathlib import Path

import pytest

from qcseries import cli

RUN_PY = Path(__file__).resolve().parent.parent / "perfbench" / "run.py"


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
