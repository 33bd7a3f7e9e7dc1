"""The fixed reference loop that expresses times in units of the host's speed.

Pure-Python work of the kind exactalg does: tuple keys, dict updates and
`Fraction` arithmetic, 12-25 ms on a 2.1 GHz Xeon vCPU depending on load.
Its code never changes with qcseries, so it measures only the host.
"""

from __future__ import annotations

from fractions import Fraction
from time import perf_counter


def reference_loop() -> float:
    """Run the loop once and return its wall time in seconds."""
    t = perf_counter()
    acc: dict[tuple[int, int, int], Fraction] = {}
    c = Fraction(1, 3)
    for a in range(64):
        for b in range(64):
            key = (a % 7, b % 5, (a + b) % 3)
            acc[key] = acc.get(key, 0) + c * (a - b)
    return perf_counter() - t
