"""README's library examples run as written against the package."""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# the two lines the quick start pins under its first two prints
PINNED = [
    "1/(2(lambda_1 - 2*h)(lambda_1 - h))",
    "1/(2(lambda_0 - lambda_1 + h)(lambda_0 - lambda_1 + 2*h))",
]


def test_readme_python_blocks_run_in_order():
    text = (ROOT / "README.md").read_text()
    blocks = re.findall(r"^```python\n(.*?)^```$", text, flags=re.M | re.S)
    for line in PINNED:
        assert f"# {line}\n" in text
    # the later block reads names the quick start binds, so both run in one
    # fresh interpreter
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, "-c", "".join(blocks)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[:2] == PINNED
