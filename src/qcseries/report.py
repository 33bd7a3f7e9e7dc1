"""Structured results for verification runs.

A report carries a check name, its parameters, a pass/fail/skipped status,
and the list of exact-equality failures, each failure recording where it
happened and the canonical text of both sides.  A report is its own timer:
a check runs inside ``with VerificationReport(check, params) as report:``,
and that block's wall time is kept in ``wall_ms``, which no rendering
prints.  A report built without the block keeps ``wall_ms`` None.
"""

from __future__ import annotations

import time


def value_text(value) -> str:
    """A value as reports and tables print it: its canonical text(), else str()."""
    text = getattr(value, "text", None)
    return text() if callable(text) else str(value)


class VerificationReport:
    def __init__(self, check: str, params: dict[str, object]):
        self.check = check
        self.params = params
        self.status = "pass"
        self.failures: list[tuple[str, str, str]] = []
        self.notes: list[str] = []
        self.wall_ms: float | None = None

    def __enter__(self) -> "VerificationReport":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        """Set wall_ms; an exception raised in the block propagates."""
        self.wall_ms = (time.perf_counter() - self._start) * 1000.0

    @property
    def ok(self) -> bool:
        return self.status != "fail"

    def fail(self, location: str, left, right) -> None:
        """Record a failure at location, with the canonical text of both sides."""
        self.failures.append((location, value_text(left), value_text(right)))
        self.status = "fail"

    def check_equal(self, location: str, left, right) -> None:
        """Record a failure unless left == right (exact)."""
        if left != right:
            self.fail(location, left, right)

    def skip(self, reason: str) -> None:
        if self.status == "pass" and not self.failures:
            self.status = "skipped"
            self.notes.append(reason)

    def note(self, text: str) -> None:
        self.notes.append(text)

    def payload_lines(self) -> list[str]:
        """Deterministic report body; excludes wall time by design."""
        lines = [f"check {self.check}"]
        for key in sorted(self.params):
            lines.append(f"param {key}={self.params[key]}")
        lines.append(f"status {self.status}")
        for text in self.notes:
            lines.append(f"note {text}")
        for loc, left, right in self.failures:
            lines.append(f"failure {loc} | {left} | {right}")
        return lines

    def render(self) -> str:
        """The payload lines as text; the same report renders the same bytes."""
        return "\n".join(self.payload_lines()) + "\n"

    def payload(self) -> dict[str, object]:
        """The report body as a JSON-ready dict; excludes wall time by design."""
        return {
            "check": self.check,
            "params": {k: str(v) for k, v in sorted(self.params.items())},
            "status": self.status,
            "notes": list(self.notes),
            "failures": [list(f) for f in self.failures],
        }
