"""The narrative demo scripts run to completion and print the same bytes every run."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_exits_zero(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    runs = [
        subprocess.run(
            [sys.executable, str(demo)],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
        )
        for _ in range(2)
    ]
    for proc in runs:
        assert proc.returncode == 0, proc.stderr
    # no wall time or other run-dependent number reaches stdout
    assert runs[0].stdout == runs[1].stdout
