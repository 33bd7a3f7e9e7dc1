"""Write the golden stdout bytes of every benchmark invocation.

Usage (from the repository root): python3 perfbench/capture_goldens.py

Each invocation runs through the plain `qcseries.cli.main` entry point, with
no benchmark hooks installed, and must exit 0.  Run it only when the CLI's
output is meant to change; the goldens are the benchmark's correctness check.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

from run import GOLDENS, WORKLOADS, golden_path

ENTRY = "import sys; from qcseries.cli import main; sys.exit(main(sys.argv[1:]))"


def main() -> int:
    src = Path.cwd() / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    GOLDENS.mkdir(exist_ok=True)
    for invs in WORKLOADS.values():
        for args in invs:
            proc = subprocess.run([sys.executable, "-c", ENTRY, *args], env=env,
                                  capture_output=True, check=False)
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr.decode(errors="replace"))
                print(f"error: {' '.join(args)} exited {proc.returncode}", file=sys.stderr)
                return 1
            golden_path(args).write_bytes(proc.stdout)
            print(f"{golden_path(args).name}: {len(proc.stdout)} bytes")
    return 0


if __name__ == "__main__":
    sys.exit(main())
