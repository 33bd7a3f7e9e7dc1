"""In-memory span tracer installed around qcseries functions from outside.

Every wrapped call records one span: its name, start, end and the span that
was open when it began (its parent).  Spans stay in flat arrays until the
process ends; `summary()` then turns them into per-name call counts,
inclusive times and self times.  Self time is a span's duration minus the
durations of its direct children, which nest inside it because qcseries runs
in one thread.  Inclusive time counts only spans with no open ancestor of the
same name, so recursion and delegation between wrapped methods of one name
(RatFunc.substitute -> MultiPoly.substitute) are not counted twice.

Counters are recorded at the same boundaries, by hooks that see the call's
arguments and result.
"""

from __future__ import annotations

import functools
import sys
import types
from array import array
from time import perf_counter


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_of = array("i")
        self.parent = array("q")
        self.outer = array("b")
        self.start = array("d")
        self.end = array("d")
        self.counters: dict[str, int] = {}
        self._stack = [-1]
        self._active: list[int] = []

    def _id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self._active.append(0)
        return nid

    def count(self, key: str, value: int = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + value

    def peak(self, key: str, value: int) -> None:
        if value > self.counters.get(key, 0):
            self.counters[key] = value

    def wrap(self, name, fn, after=None):
        """Return fn wrapped in a span.

        `name` is a span name, or a function of the call's (args, kwargs)
        returning one.  `after(args, result)` records counters on return.
        """
        name_of, parent, outer = self.name_of, self.parent, self.outer
        start, end, stack, active = self.start, self.end, self._stack, self._active
        pick = name if callable(name) else None
        fixed = None if pick else self._id(name)
        ids = self._id

        @functools.wraps(fn)
        def span(*args, **kwargs):
            nid = fixed if pick is None else ids(pick(args, kwargs))
            idx = len(start)
            name_of.append(nid)
            parent.append(stack[-1])
            outer.append(active[nid] == 0)
            active[nid] += 1
            stack.append(idx)
            end.append(0.0)
            start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter()
                stack.pop()
                active[nid] -= 1
            if after is not None:
                after(args, result)
            return result

        return span

    def summary(self) -> dict[str, dict[str, float]]:
        n = len(self.start)
        child = [0.0] * n
        start, end, parent = self.start, self.end, self.parent
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        out = {nm: {"calls": 0, "incl_s": 0.0, "self_s": 0.0} for nm in self.names}
        for i in range(n):
            rec = out[self.names[self.name_of[i]]]
            dur = end[i] - start[i]
            rec["calls"] += 1
            rec["self_s"] += dur - child[i]
            if self.outer[i]:
                rec["incl_s"] += dur
        return out


def patch_function(package: str, fn, wrapper) -> None:
    """Rebind every module-level reference to fn inside the package.

    Modules bind imported functions under their own names
    (`from .exactalg import substitute`), so each binding is replaced.
    """
    for modname, mod in list(sys.modules.items()):
        if not isinstance(mod, types.ModuleType):
            continue
        if modname != package and not modname.startswith(package + "."):
            continue
        for attr, value in list(vars(mod).items()):
            if value is fn:
                setattr(mod, attr, wrapper)


def patch_method(tracer: Tracer, cls, attrs, name, after=None) -> None:
    """Wrap one method of cls, including aliases such as __rmul__ = __mul__."""
    for attr in attrs:
        setattr(cls, attr, tracer.wrap(name, vars(cls)[attr], after))
