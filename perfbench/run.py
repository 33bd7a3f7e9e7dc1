"""qcseries benchmark: time to a certified check matrix, end to end and per layer.

Usage (from the repository root):

    python3 perfbench/run.py --workload proj-full --seed 1 --seconds 20 --trace 0

Every invocation of a workload is a `qcseries` CLI call in a fresh
interpreter (perfbench/child.py), so module-level caches start empty each
time.  Its stdout must equal the golden bytes in perfbench/goldens/, which
were captured before any optimisation; every report block that differs, any
`status fail`, exception, timeout or nonzero exit counts as failed.  The seed
fixes the order of a workload's invocations in each repetition and the
operands of the kernel inputs; results do not depend on either.

--trace 0 repeats the workload until --seconds have passed and prints the
end-to-end metrics (medians over repetitions; times in reference-loop units,
raw seconds on their own line).  --trace 1 makes one untraced
and one traced pass plus the frozen-input kernel timings and prints the
per-layer metrics.  Human-readable lines come first; the last stdout line is
one JSON object {"correct", "attempted", "failed", "metrics"}.
`--workload all` runs every workload in turn, each in its own process, and
ends with one JSON object whose metric names carry the workload as prefix.
See perfbench/README.md for the workloads, metrics and baseline.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
GOLDENS = HERE / "goldens"
CHILD = HERE / "child.py"
KERNELS = HERE / "kernels.py"

# every run must end well inside 180 s, whatever --seconds says
HARD_LIMIT_S = 165.0
# the reference loop's median time on the host the benchmark was written on
# (2.1 GHz Xeon vCPU); setup_s is reported in seconds of that host
REF_NOMINAL_S = 0.017
# setup probes before the first repetition; one more follows every invocation,
# so the run's median spans the same host states as the workload
SETUP_PROBES = 5

_FULL = ("--level", "full")
WORKLOADS: dict[str, list[tuple[str, ...]]] = {
    # the full-level proj-recursion matrix, one invocation per dimension n
    "proj-full": [("verify", "proj-recursion", *_FULL, "--n", str(n)) for n in range(4)],
    # every other verify check at full level
    "flag-lattice-full": [
        ("verify", check, *_FULL)
        for check in ("euler-prefactor", "a1-cross", "a2-recursion", "lemma34",
                      "toda-plain", "toda-eq", "toda-operators", "batyrev",
                      "corollary35")
    ],
    # the CI / interactive path: quick verify plus the default series tables
    "cli-quick-cold": [
        ("verify", "all", "--level", "quick"),
        ("series", "proj", "--chart", "part1"),
        ("series", "flag-a1"),
        ("series", "flag-a2"),
        ("series", "toda"),
        ("series", "toda-eq", "--chart", "part3"),
    ],
}

# Times are gated in units of the reference loop, sampled inside every
# invocation (child.py): on a shared host raw seconds drift by a quarter
# within minutes, the ratio by a few percent.
END_TO_END = {
    "wall_ref": "ref",
    "cpu_ref": "ref",
    "checks_per_ref": "1/ref",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

REPORT_NAMES = (
    "proj-recursion", "proj-solver", "first-order-split", "euler-prefactor",
    "a1-cross", "a2-recursion", "lemma34", "toda-plain", "toda-eq",
    "toda-operators", "toda-eq-operators", "batyrev", "corollary35",
)
# span name -> the aggregates reported for it
SPAN_METRICS = {
    "exactalg.divide_exact": ("calls", "self_s"),
    "exactalg.MultiPoly.mul": ("calls", "self_s"),
    "exactalg.MultiPoly.primitive": ("calls", "self_s"),
    "exactalg.RatFunc.add": ("calls", "incl_s"),
    "exactalg.RatFunc.mul": ("calls", "incl_s"),
    "exactalg.RatFunc.truediv": ("calls", "incl_s"),
    "exactalg.RatFunc.eq": ("calls", "incl_s"),
    "exactalg.substitute": ("calls", "incl_s"),
    "exactalg.partial_fractions": ("incl_s",),
    "exactalg.RatFunc.text": ("incl_s",),
    "projgw.solve_recursion": ("incl_s",),
    "projgw.verify_theorem_3_3.direct": ("incl_s",),
    "projgw.verify_theorem_3_3.residue": ("incl_s",),
    "projgw.closed_b": ("calls",),
    "projgw.recursion_coeff": ("calls",),
    "flaggw.solve_flag_recursion": ("incl_s",),
    "flaggw.verify_a2_theorem_3_2": ("incl_s",),
    "flaggw.verify_lemma_3_4": ("incl_s",),
    "flaggw.a2_closed_coeff": ("calls",),
    "roots.act_on_ratfunc": ("calls", "incl_s"),
    "toda3.apply": ("incl_s",),
    "toda3.closed_solution": ("incl_s",),
    "toda3.verify_recursions_equivariant": ("incl_s",),
    "toda3.closed_a_equivariant": ("calls",),
    "cli.main": ("incl_s",),
}
COUNTERS = (
    "exactalg.divide_exact.ok",
    "exactalg.divide_exact.peak_terms",
    "exactalg.MultiPoly.mul.term_products",
)
KERNEL_METRICS = (
    "exactalg.kernel.mul_big_linear.s",
    "exactalg.kernel.divide_fail.s",
    "exactalg.kernel.divide_ok.s",
    "exactalg.kernel.from_factored.s",
    "exactalg.kernel.substitute_chart.s",
    "exactalg.kernel.big.terms",
    "exactalg.kernel.substitute_chart.terms",
)


def unit_of(name: str) -> str:
    last = name.rsplit(".", 1)[-1]
    if last.endswith("_s") or last == "s" or name.startswith("report.wall_s."):
        return "s"
    if last in ("useful_ratio", "overhead"):
        return "ratio"
    return "count"


def per_layer_names() -> list[str]:
    names = [f"{span}.{agg}" for span, aggs in SPAN_METRICS.items() for agg in aggs]
    names += list(COUNTERS)
    names += ["exactalg.divide_exact.useful_ratio", "cli.import_s",
              "report.checks", "report.vacuous", "trace.overhead"]
    names += [f"report.wall_s.{r}" for r in REPORT_NAMES]
    names += list(KERNEL_METRICS)
    return names


# -- one invocation ----------------------------------------------------------------------


def golden_path(args: tuple[str, ...]) -> Path:
    return GOLDENS / ("_".join(a.lstrip("-") for a in args) + ".out")


def units(text: bytes) -> list[bytes]:
    """Verify output splits into report blocks; a series table is one unit."""
    if text.startswith(b"qcseries verify"):
        return text.split(b"\n\n")[1:]
    return [text]


class Invocation:
    def __init__(self, args: tuple[str, ...], golden: bytes):
        self.args = args
        self.golden_units = units(golden)


class Outcome:
    """What one child run produced and how it compares with its golden."""

    def __init__(self, inv: Invocation, stdout: bytes, stats: dict | None,
                 code: int | None, wall: float, cpu: float):
        self.args = inv.args
        self.stdout, self.stats = stdout, stats
        # the reference samples ran inside the child; their time is not the workload's
        self.ref = [s[0] for s in stats.get("ref", [])] if stats else []
        self.wall = wall - sum(self.ref)
        self.cpu = cpu - sum(s[1] for s in stats.get("ref", [])) if stats else cpu
        self.attempted = len(inv.golden_units)
        if code != 0 or stats is None:
            self.failed = self.attempted
        else:
            got = units(stdout)
            bad = sum(1 for k, g in enumerate(inv.golden_units)
                      if k >= len(got) or got[k] != g)
            bad += max(0, len(got) - len(inv.golden_units))
            self.failed = min(self.attempted, bad)
        self.reports = stats["reports"] if stats else []
        self.checks = sum(r[2] for r in self.reports)


class Runner:
    def __init__(self, root: Path, seconds: int):
        self.t0 = perf_counter()
        self.seconds = seconds
        src = root / "src"
        path = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ, PYTHONPATH=str(src) + (os.pathsep + path if path else ""))
        # imports read cached bytecode, as they do for an installed package
        self.env.pop("PYTHONDONTWRITEBYTECODE", None)
        self.setup_samples: list[float] = []
        self.extra_failed = 0
        self.extra_attempted = 0

    def remaining(self) -> float:
        return HARD_LIMIT_S - (perf_counter() - self.t0)

    def spawn(self, cmd: list[str]) -> tuple[bytes, bytes, int | None, float, float]:
        """Run cmd to completion (or the hard limit).

        Returns stdout, stderr, exit code (None on timeout), wall seconds and
        the child's user plus system CPU seconds.
        """
        timeout = max(1.0, self.remaining())
        before = resource.getrusage(resource.RUSAGE_CHILDREN)
        t = perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                env=self.env)
        try:
            out, err = proc.communicate(timeout=timeout)
            code = proc.returncode
        except subprocess.TimeoutExpired:
            proc.kill()
            out, err = proc.communicate()
            code = None
        wall = perf_counter() - t
        after = resource.getrusage(resource.RUSAGE_CHILDREN)
        cpu = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
        return out, err, code, wall, cpu

    def invoke(self, inv: Invocation, mode: str) -> Outcome:
        out, err, code, wall, cpu = self.spawn(
            [sys.executable, str(CHILD), mode, *inv.args])
        stats = None
        tail = err.rstrip().rsplit(b"\n", 1)[-1]
        if tail.startswith(b"PERFBENCH "):
            stats = json.loads(tail[len(b"PERFBENCH "):])
        outcome = Outcome(inv, out, stats, code, wall, cpu)
        if outcome.failed:
            shown = err.decode(errors="replace")[-2000:]
            print(f"FAILED {' '.join(inv.args)} (exit {code}, "
                  f"{outcome.failed}/{outcome.attempted} units)\n{shown}", file=sys.stderr)
        return outcome

    def probe_setup(self) -> None:
        """Interpreter start through `import qcseries` and a built parser."""
        _, err, code, wall, _ = self.spawn(
            [sys.executable, "-c", "import qcseries.cli as cli; cli.build_parser()"])
        self.extra_attempted += 1
        if code != 0:
            self.extra_failed += 1
            print(f"FAILED setup probe\n{err.decode(errors='replace')}", file=sys.stderr)
        self.setup_samples.append(wall)

    def rep(self, order: list[Invocation], mode: str, probe: bool = False) -> dict:
        """One pass over the workload, with a setup probe after each invocation if asked."""
        outcomes = []
        for inv in order:
            outcomes.append(self.invoke(inv, mode))
            if self.remaining() <= 0:
                break
            if probe:
                self.probe_setup()
        missing = order[len(outcomes):]
        return {
            "wall": sum(o.wall for o in outcomes),
            "checks": sum(o.checks for o in outcomes),
            "attempted": sum(o.attempted for o in outcomes)
            + sum(len(inv.golden_units) for inv in missing),
            "failed": sum(o.failed for o in outcomes)
            + sum(len(inv.golden_units) for inv in missing),
            "outcomes": outcomes,
        }


def spread(values: list[float]) -> float:
    """Interquartile distance as a share of the median (0 for fewer than 2 values)."""
    if len(values) < 2:
        return 0.0
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else 0.0


def peak_rss_mb() -> float:
    # Linux reports ru_maxrss in KiB: the largest child reaped so far
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def ref_samples(reps: list[dict]) -> list[float]:
    return [x for r in reps for o in r["outcomes"] for x in o.ref]


def environment(refs: list[float]) -> str:
    try:
        cores = len(os.sched_getaffinity(0))
    except AttributeError:
        cores = os.cpu_count()
    line = f"env python={platform.python_version()} nproc={cores}"
    if refs:
        line += (f" ref_mean_s={statistics.mean(refs):.6f} "
                 f"ref_median_s={statistics.median(refs):.6f} "
                 f"ref_spread={spread(refs):.4f} ref_samples={len(refs)}")
    return line


# -- the two kinds of run ----------------------------------------------------------------


def end_to_end(runner: Runner, invs: list[Invocation], rng: random.Random):
    runner.probe_setup()  # warms the file cache and the bytecode cache
    runner.setup_samples.clear()
    for _ in range(SETUP_PROBES):
        runner.probe_setup()
    start = perf_counter()
    reps = []
    while True:
        reps.append(runner.rep(rng.sample(invs, len(invs)), "count", probe=True))
        if runner.remaining() <= 0 or perf_counter() - start >= runner.seconds:
            break
    # a certified matrix costs the sum of its invocations; each invocation's
    # median over the repetitions discounts a burst of host noise in one of them
    by_args: dict[tuple[str, ...], list[Outcome]] = {}
    for r in reps:
        for o in r["outcomes"]:
            by_args.setdefault(o.args, []).append(o)
    wall = sum(statistics.median(o.wall for o in os_) for os_ in by_args.values())
    cpu = sum(statistics.median(o.cpu for o in os_) for os_ in by_args.values())
    checks = sum(statistics.median(o.checks for o in os_) for os_ in by_args.values())
    # the mean, not the median: wall time integrates the host's slowness over
    # the run, and samples at evenly spread moments estimate its time average
    refs = ref_samples(reps)
    ref = statistics.mean(refs) if refs else 1.0  # no sample: every invocation failed
    metrics = {
        "wall_ref": wall / ref,
        "cpu_ref": cpu / ref,
        "checks_per_ref": checks * ref / wall,
        "setup_s": statistics.median(runner.setup_samples) / ref * REF_NOMINAL_S,
        "peak_rss_mb": peak_rss_mb(),
    }
    walls = [r["wall"] for r in reps]
    print(f"reps {len(reps)} wall_s per rep {' '.join(f'{w:.3f}' for w in walls)}; "
          f"checks per rep {' '.join(str(r['checks']) for r in reps)}")
    print(f"raw wall_s {wall} s cpu_s {cpu} s checks_per_s {checks / wall} 1/s "
          f"setup_s {statistics.median(runner.setup_samples)} s")
    return metrics, dict(END_TO_END), reps


def traced(runner: Runner, invs: list[Invocation], rng: random.Random, seed: int):
    runner.probe_setup()
    order = rng.sample(invs, len(invs))
    plain = runner.rep(order, "count")
    trace = runner.rep(order, "trace")
    for a, b, inv in zip(plain["outcomes"], trace["outcomes"], order):
        if a.stdout != b.stdout:
            print(f"FAILED traced bytes differ from untraced: {' '.join(inv.args)}",
                  file=sys.stderr)
            trace["failed"] += b.attempted - b.failed
    metrics: dict[str, float] = {}
    spans: dict[str, dict[str, float]] = {}
    counters: dict[str, float] = {}
    imports = []
    for o in trace["outcomes"]:
        if not o.stats:
            continue
        imports.append(o.stats["import_s"])
        for name, rec in o.stats["spans"].items():
            agg = spans.setdefault(name, {"calls": 0, "incl_s": 0.0, "self_s": 0.0})
            for key in agg:
                agg[key] += rec[key]
        for name, value in o.stats["counters"].items():
            if name.endswith("peak_terms"):
                counters[name] = max(counters.get(name, 0), value)
            else:
                counters[name] = counters.get(name, 0) + value
    for span, aggs in SPAN_METRICS.items():
        for agg in aggs:
            metrics[f"{span}.{agg}"] = spans.get(span, {}).get(agg, 0.0 if agg != "calls" else 0)
    for name in COUNTERS:
        metrics[name] = counters.get(name, 0)
    calls = metrics["exactalg.divide_exact.calls"]
    metrics["exactalg.divide_exact.useful_ratio"] = (
        metrics["exactalg.divide_exact.ok"] / calls if calls else 0.0)
    metrics["cli.import_s"] = statistics.median(imports) if imports else 0.0
    # report counts and per-check times come from the untraced pass
    reports = [r for o in plain["outcomes"] for r in o.reports]
    metrics["report.checks"] = sum(r[2] for r in reports)
    metrics["report.vacuous"] = sum(1 for r in reports if r[1] == "pass" and r[2] == 0)
    for name in REPORT_NAMES:
        metrics[f"report.wall_s.{name}"] = sum(
            ((r[3] or 0.0) / 1000.0 for r in reports if r[0] == name), 0.0)
    metrics["trace.overhead"] = trace["wall"] / plain["wall"] if plain["wall"] else 0.0

    out, err, code, _, _ = runner.spawn([sys.executable, str(KERNELS), str(seed)])
    kernel_failed = 0
    try:
        metrics.update(json.loads(out.rstrip().rsplit(b"\n", 1)[-1]))
    except ValueError:
        code = code or 1
    if code != 0:
        kernel_failed = 1
        print(f"FAILED kernels\n{err.decode(errors='replace')}", file=sys.stderr)
        for name in KERNEL_METRICS:
            metrics.setdefault(name, 0.0)
    runner.extra_attempted += 1
    runner.extra_failed += kernel_failed

    print(f"untraced wall_s {plain['wall']:.3f} traced wall_s {trace['wall']:.3f}")
    print("vacuous reports: " + (", ".join(
        f"{r[0]}" for r in reports if r[1] == "pass" and r[2] == 0) or "none"))
    names = per_layer_names()
    return ({n: metrics[n] for n in names}, {n: unit_of(n) for n in names},
            [plain, trace])


def run_all(args: argparse.Namespace) -> int:
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.rstrip("\n").split("\n")
        print(f"== {name}")
        print("\n".join(lines[:-1]))
        if proc.returncode != 0:
            return proc.returncode
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "qcseries" / "cli.py").is_file():
        print("error: run from the repository root; src/qcseries is missing", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    invs = []
    for inv_args in WORKLOADS[args.workload]:
        path = golden_path(inv_args)
        if not path.is_file():
            print(f"error: golden {path.name} is missing", file=sys.stderr)
            return 2
        invs.append(Invocation(inv_args, path.read_bytes()))

    runner = Runner(root, args.seconds)
    rng = random.Random(args.seed)
    if args.trace:
        metrics, units_, reps = traced(runner, invs, rng, args.seed)
    else:
        metrics, units_, reps = end_to_end(runner, invs, rng)
    attempted = sum(r["attempted"] for r in reps) + runner.extra_attempted
    failed = sum(r["failed"] for r in reps) + runner.extra_failed
    print(environment(ref_samples(reps)))
    print(f"workload {args.workload} seed {args.seed} "
          f"fail_ratio {failed / attempted:.6f} ({failed}/{attempted})")
    for name, value in metrics.items():
        print(f"metric {name} {value} {units_[name]}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": v, "unit": units_[n]} for n, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
