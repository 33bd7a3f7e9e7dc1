"""One qcseries CLI invocation in a fresh interpreter, observed from outside.

Usage: python3 perfbench/child.py {count|trace} <qcseries CLI arguments...>

The child imports qcseries (from PYTHONPATH), installs hooks and calls
`qcseries.cli.main` with the arguments, as the `qcseries` console script
does.  The CLI's stdout is left untouched.  After main returns, one
line `PERFBENCH <json>` goes to stderr with what the hooks saw:

* always: per emitted report its check name, status, counted comparisons
  and `wall_ms`.  Comparisons are `check_equal` calls plus the
  coefficients an annihilation report certified zero.
* count mode: the reference-loop samples.  One runs before main, and a
  SIGALRM timer runs one every REF_INTERVAL_S seconds of main, between two
  bytecodes of the workload, on the same core and in the same host state.
  Their wall and CPU seconds are reported so run.py can subtract them.
* trace mode: the import time, the span summary of every wrapped qcseries
  function and the counters recorded at those boundaries.
"""

from __future__ import annotations

import json
import re
import signal
import sys
from time import perf_counter, process_time

from reference import reference_loop
from tracer import Tracer, patch_function, patch_method

CERTIFIED = re.compile(r"certified through order (\d+)")
REF_INTERVAL_S = 0.4


def start_reference_samples() -> list[list[float]]:
    """Sample the reference loop now and then every REF_INTERVAL_S seconds."""
    samples: list[list[float]] = []

    def sample(*_):
        cpu = process_time()
        wall = reference_loop()
        samples.append([wall, process_time() - cpu])

    sample()
    signal.signal(signal.SIGALRM, sample)
    signal.setitimer(signal.ITIMER_REAL, REF_INTERVAL_S, REF_INTERVAL_S)
    return samples


def install_report_hooks(cli, report) -> list[list]:
    """Count comparisons per report; return the list emitted reports fill."""
    vr = report.VerificationReport
    held: dict[int, list] = {}  # id -> [report, comparisons, wall_ms]; holds reports alive
    emitted: list[list] = []

    def entry(rep):
        got = held.get(id(rep))
        if got is None:
            got = held[id(rep)] = [rep, 0, None]
        return got

    check_equal = vr.check_equal

    def counted_check_equal(self, location, left, right):
        entry(self)[1] += 1
        return check_equal(self, location, left, right)

    combine = cli._combine

    def counted_combine(name, params, subs):
        # a combined report's comparisons and time are those of its parts
        out = combine(name, params, subs)
        rec = entry(out)
        rec[1] += sum(entry(sub)[1] for _, sub in subs)
        walls = [sub.wall_ms for _, sub in subs if sub.wall_ms is not None]
        rec[2] = sum(walls) if walls else None
        return out

    payload_lines = vr.payload_lines

    def recorded_payload_lines(self):
        rec = entry(self)
        zeros = 0
        for note in self.notes:
            m = CERTIFIED.search(note)
            if m:
                order = int(m.group(1))
                zeros += (order + 1) * (order + 2) // 2
        wall_ms = self.wall_ms if self.wall_ms is not None else rec[2]
        emitted.append([self.check, self.status, rec[1] + zeros, wall_ms])
        return payload_lines(self)

    vr.check_equal = counted_check_equal
    cli._combine = counted_combine
    vr.payload_lines = recorded_payload_lines
    return emitted


def install_spans(tracer: Tracer) -> None:
    """Wrap the layer functions each per-layer metric is read from."""
    from qcseries import exactalg, flaggw, projgw, roots, toda3

    mp, rf = exactalg.MultiPoly, exactalg.RatFunc

    def after_divide(args, quotient):
        tracer.count("exactalg.divide_exact.ok", quotient is not None)
        tracer.peak("exactalg.divide_exact.peak_terms", len(args[0].terms))

    def after_mul(args, _product):
        a, b = args
        tracer.count("exactalg.MultiPoly.mul.term_products",
                     len(a.terms) * len(getattr(b, "terms", (b,))))

    patch_method(tracer, mp, ["divide_exact"], "exactalg.divide_exact", after_divide)
    patch_method(tracer, mp, ["__mul__", "__rmul__"], "exactalg.MultiPoly.mul", after_mul)
    patch_method(tracer, mp, ["primitive"], "exactalg.MultiPoly.primitive")
    patch_method(tracer, mp, ["substitute"], "exactalg.substitute")
    patch_method(tracer, rf, ["substitute"], "exactalg.substitute")
    patch_method(tracer, rf, ["__add__", "__radd__"], "exactalg.RatFunc.add")
    patch_method(tracer, rf, ["__mul__", "__rmul__"], "exactalg.RatFunc.mul")
    patch_method(tracer, rf, ["__truediv__"], "exactalg.RatFunc.truediv")
    patch_method(tracer, rf, ["__eq__"], "exactalg.RatFunc.eq")
    patch_method(tracer, rf, ["text"], "exactalg.RatFunc.text")
    patch_method(tracer, roots.RootSystem, ["act_on_ratfunc"], "roots.act_on_ratfunc")

    def theorem_3_3(args, kwargs):
        method = args[2] if len(args) > 2 else kwargs.get("method", "direct")
        return f"projgw.verify_theorem_3_3.{method}"

    functions = [
        (exactalg, "partial_fractions", "exactalg.partial_fractions"),
        (projgw, "solve_recursion", "projgw.solve_recursion"),
        (projgw, "verify_theorem_3_3", theorem_3_3),
        (projgw, "closed_b", "projgw.closed_b"),
        (projgw, "recursion_coeff", "projgw.recursion_coeff"),
        (flaggw, "solve_flag_recursion", "flaggw.solve_flag_recursion"),
        (flaggw, "verify_a2_theorem_3_2", "flaggw.verify_a2_theorem_3_2"),
        (flaggw, "verify_lemma_3_4", "flaggw.verify_lemma_3_4"),
        (flaggw, "a2_closed_coeff", "flaggw.a2_closed_coeff"),
        (toda3, "apply", "toda3.apply"),
        (toda3, "closed_solution", "toda3.closed_solution"),
        (toda3, "verify_recursions_equivariant", "toda3.verify_recursions_equivariant"),
        (toda3, "closed_a_equivariant", "toda3.closed_a_equivariant"),
    ]
    for module, attr, name in functions:
        fn = getattr(module, attr)
        patch_function("qcseries", fn, tracer.wrap(name, fn))


def main() -> int:
    mode, argv = sys.argv[1], sys.argv[2:]
    if mode not in ("count", "trace"):
        raise SystemExit(f"unknown mode {mode!r}")
    t0 = perf_counter()
    from qcseries import cli, report
    import_s = perf_counter() - t0
    emitted = install_report_hooks(cli, report)
    run = cli.main
    tracer = None
    if mode == "trace":
        tracer = Tracer()
        install_spans(tracer)
        run = tracer.wrap("cli.main", cli.main)
    else:
        samples = start_reference_samples()
    code = run(argv)
    sys.stdout.flush()
    stats = {"reports": emitted}
    if tracer is None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        stats["ref"] = samples
    else:
        stats.update(import_s=import_s, spans=tracer.summary(),
                     counters=tracer.counters)
    sys.stderr.write("\nPERFBENCH " + json.dumps(stats) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
