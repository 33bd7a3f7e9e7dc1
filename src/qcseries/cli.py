"""Deterministic command-line reports over the series library.

Two subcommands: `series` prints coefficient tables in a line-oriented
golden format, `verify` runs the exact-equality check suites and reports
pass/fail.  Identical invocations produce identical bytes; wall times never
enter the payload.  Exit codes: 0 all checks passed, 1 at least one failed
(or an evaluation hit a pole), 2 usage or cap errors.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
from math import factorial
from typing import Sequence

from . import flaggw, projgw, toda3
from .exactalg import PoleError, VarRegistry, substitute
from .report import VerificationReport

SERIES_TARGETS = ("proj", "flag-a1", "flag-a2", "toda", "toda-eq")
VERIFY_CHECKS = (
    "proj-recursion",
    "euler-prefactor",
    "a1-cross",
    "a2-recursion",
    "lemma34",
    "toda-plain",
    "toda-eq",
    "toda-operators",
    "batyrev",
    "corollary35",
)

# quick keeps CI latency low; full is the documented deep matrix (the
# equivariant lattice checks cap at 8 because their cross-multiplied
# numerators grow fast in four variables)
LEVELS = ("quick", "full")


class UsageError(Exception):
    pass


def _bound(value: int | None, quick_default: int, full_default: int,
           cap: int, quick: bool, what: str, low: int = 0) -> int:
    """Preset or explicit bound, checked against [low, cap].

    `low` is the smallest bound at which the runner makes a comparison, so
    a bound below it is a usage error rather than a vacuous pass.
    """
    if value is None:
        value = quick_default if quick else full_default
    if value < low:
        raise UsageError(f"{what} must be >= {low}")
    if value > cap:
        raise UsageError(f"{what} exceeds the cap {cap}")
    return value


# -- series formatting -----------------------------------------------------------------


def q_series_text(texts: Sequence[str]) -> str:
    """Render per-degree coefficient texts as a single truncated q-series."""
    parts = [texts[0]]
    for d, t in enumerate(texts[1:], start=1):
        sign = "+"
        if t.startswith("-"):
            sign, t = "-", t[1:]
        qp = "q" if d == 1 else f"q^{d}"
        if t == "1":
            body = qp
        elif t.startswith("1/"):
            body = qp + t[1:]
        elif "/" in t:
            num, den = t.split("/", 1)
            body = f"{num}*{qp}/{den}"
        else:
            body = f"{t}*{qp}"
        parts.append(f"{sign} {body}")
    return " ".join(parts)


def _proj_chart(n: int, part: str):
    """Bindings from the weights lambda_a - lambda_0 of `ProjSetup` to root variables."""
    names = ["alpha"] if n == 1 else [f"alpha_{i}" for i in range(1, n + 1)]
    target = VarRegistry(names + ["h"])
    alphas = [target.var(nm) for nm in names]
    bindings = {}
    acc = target.zero()
    for i in range(1, n + 1):
        acc = acc - alphas[i - 1] if part == "part1" else acc + alphas[i - 1]
        bindings[f"lambda_{i}"] = acc
    return target, bindings


def _proj_cap(n: int) -> int:
    """Largest --max-d for projective space of dimension n."""
    return 3 if n == 3 else 6


def _series_proj(args, quick: bool):
    n = 1 if args.n is None else args.n
    if n < 0 or n > 3:
        raise UsageError("series proj supports n in 0..3")
    d_max = _bound(args.max_d, 3, 3, _proj_cap(n), quick, "--max-d")
    if args.chart is not None and n == 0:
        raise UsageError("no root chart in dimension 0")

    def run() -> list[str]:
        lines = ["target proj"]
        if args.chart is not None:
            lines.append(f"param chart={args.chart}")
        lines += [f"param max_d={d_max}", f"param n={n}"]
        setup = projgw.ProjSetup(n)
        tables = projgw.solve_recursion(setup, d_max)
        if args.chart is not None:
            target, bindings = _proj_chart(n, args.chart)
        else:
            target, bindings = setup.registry, setup.to_lambda()
        rows, sums = [], []
        for table in sorted(tables, key=lambda t: t.i):
            texts = []
            for d in range(d_max + 1):
                texts.append(substitute(table.coefficient(d), bindings, target).text())
                rows.append(f"row i={table.i} d={d} {texts[-1]}")
            sums.append(f"series i={table.i} {q_series_text(texts)}")
        return lines + rows + sums
    return run


def _series_flag(args, quick: bool, rank: int):
    # the golden format names the pole convention, of which one is left
    if rank == 1:
        bound = _bound(args.max_d, 3, 3, 8, quick, "--max-d")
        setup, bmax, total_max = flaggw._a1_setup(), (bound,), None
        lines = ["target flag-a1", "param convention=lemma37",
                 f"param max_d={bound}"]
    else:
        bound = _bound(args.max, 3, 3, 5, quick, "--max")
        setup, bmax, total_max = flaggw._a2_setup(), (bound, bound), bound
        lines = ["target flag-a2", "param convention=lemma37",
                 f"param max={bound}"]

    def run() -> list[str]:
        for table in flaggw.solve_flag_recursion(setup, bmax, total_max=total_max):
            word = table.w.word_text()
            for beta in sorted(table.coeffs, key=lambda b: (sum(b), b)):
                coord = ",".join(str(b) for b in beta)
                lines.append(f"row w={word} beta={coord} {table.coeffs[beta].text()}")
        return lines
    return run


def _series_toda(args, quick: bool, equivariant: bool):
    cap = 8 if equivariant else 16
    n_max = _bound(args.max, 3, 3, cap, quick, "--max")
    target = "toda-eq" if equivariant else "toda"
    lines = [f"target {target}"]
    if args.chart is not None:
        if not equivariant or args.chart != "part3":
            raise UsageError("only the equivariant table admits the part3 chart")
        lines.append(f"param chart={args.chart}")
    lines.append(f"param max={n_max}")

    def run() -> list[str]:
        if equivariant and args.chart is None:
            coeff = toda3.closed_a_equivariant
        else:
            # the solution series is written over the part3 chart already
            coeff = toda3.closed_solution(n_max, equivariant).coefficient
        for i in range(n_max + 1):
            for j in range(n_max + 1 - i):
                lines.append(f"row i={i} j={j} {coeff(i, j).text()}")
        return lines
    return run


# the options each series target and each verify check reads; passing any
# other is a usage error (`verify all` reads the union)
_OPTIONS = {
    "series": {
        "proj": ("n", "max_d", "chart"),
        "flag-a1": ("max_d",),
        "flag-a2": ("max",),
        "toda": ("max", "chart"),
        "toda-eq": ("max", "chart"),
    },
    "verify": {
        "proj-recursion": ("n", "max_d"),
        "euler-prefactor": ("n", "max_d"),
        "a1-cross": ("max_d",),
        "a2-recursion": ("max",),
        "lemma34": ("max",),
        "toda-plain": ("max",),
        "toda-eq": ("max",),
        "toda-operators": ("max",),
        "batyrev": ("max",),
        "corollary35": ("max",),
    },
}


def _reject_unread_options(args) -> None:
    table = _OPTIONS[args.command]
    name = args.target if args.command == "series" else args.check
    reads = set().union(*table.values()) if name == "all" else table[name]
    for dest in ("n", "max_d", "max", "chart"):
        if getattr(args, dest, None) is not None and dest not in reads:
            flag = "--" + dest.replace("_", "-")
            raise UsageError(f"{args.command} {name} does not take {flag}")


def cmd_series(args, quick: bool):
    """Check the options, then return the work: lines and exit code, once called."""
    if args.target == "proj":
        table = _series_proj(args, quick)
    elif args.target == "flag-a1":
        table = _series_flag(args, quick, rank=1)
    elif args.target == "flag-a2":
        table = _series_flag(args, quick, rank=2)
    elif args.target == "toda":
        table = _series_toda(args, quick, equivariant=False)
    else:
        table = _series_toda(args, quick, equivariant=True)
    return lambda: (["qcseries series v1"] + table(), 0)


# -- verify runners --------------------------------------------------------------------

# A runner checks its options and resolves its bounds, raising UsageError,
# and returns its work as a function that gives the reports: every usage
# error comes before any check runs.


def _one(check, *args):
    return lambda: [check(*args)]


def _dims(args, check: str, accepted: range, preset: list[int]) -> list[int]:
    """The dimensions to run: --n if `check` accepts it, else the preset."""
    if args.n is None:
        return preset
    if args.n not in accepted:
        raise UsageError(f"--n must be in {accepted[0]}..{accepted[-1]} for {check}")
    return [args.n]


def _combine(name: str, params: dict,
             subs: list[tuple[str, VerificationReport]]) -> VerificationReport:
    out = VerificationReport(name, params)
    for prefix, sub in subs:
        if sub.status == "fail":
            out.status = "fail"
        for loc, left, right in sub.failures:
            out.failures.append((f"{prefix} {loc}", left, right))
        if sub.status == "skipped":
            out.notes.append(f"{prefix} skipped")
    return out


def _check_proj_recursion(args, quick: bool):
    ns = _dims(args, "proj-recursion", range(4), [0, 1, 2] if quick else [0, 1, 2, 3])
    # the presets clamp to each dimension's cap, an explicit bound must fit
    # it; every bound is checked before any dimension runs
    bounds = [
        _bound(args.max_d, min(4, _proj_cap(n)), min(5, _proj_cap(n)),
               _proj_cap(n), quick, "--max-d", low=1)
        for n in ns
    ]

    def run() -> list[VerificationReport]:
        reports = []
        for n, d_max in zip(ns, bounds):
            setup = projgw.ProjSetup(n)
            reports.append(projgw.verify_theorem_3_3(setup, d_max, "direct"))
            reports.append(projgw.verify_theorem_3_3(setup, d_max, "residue"))
            reports.append(projgw.verify_first_order_split(setup))
            if n >= 1:
                reports.append(projgw.verify_solver(setup, d_max))
        return reports
    return run


def _check_euler_prefactor(args, quick: bool):
    ns = _dims(args, "euler-prefactor", range(1, 3), [1] if quick else [1, 2])
    d_max = _bound(args.max_d, 2, 3, 4, quick, "--max-d", low=1)

    def run() -> list[VerificationReport]:
        reports = []
        for n in ns:
            setup = projgw.ProjSetup(n)
            subs = []
            for d in range(1, d_max + 1):
                for k in range(1, d + 1):
                    for i in setup.points():
                        for j in setup.points():
                            if i == j:
                                continue
                            sub = projgw.euler_prefactor_identity(setup, i, j, k, d)
                            subs.append((f"i={i} j={j} k={k} d={d}", sub))
            reports.append(
                _combine("euler-prefactor", {"n": n, "max_d": d_max}, subs)
            )
        return reports
    return run


def _check_lemma34(args, quick: bool):
    n_max = _bound(args.max, 3, 4, 5, quick, "--max", low=1)
    return lambda: [
        flaggw.verify_lemma_3_4(i, total - i)
        for total in range(1, n_max + 1)
        for i in range(total // 2 + 1)
    ]


def _check_toda_operators(args, quick: bool):
    if args.max is not None:
        n_plain = n_eq = _bound(args.max, 0, 0, 10, quick, "--max", low=1)
    else:
        n_plain, n_eq = (6, 6) if quick else (12, 8)
    return lambda: [
        toda3.verify_operator_annihilation(n_plain, equivariant=False),
        toda3.verify_operator_annihilation(n_eq, equivariant=True),
    ]


def _runners():
    return {
        "proj-recursion": _check_proj_recursion,
        "euler-prefactor": _check_euler_prefactor,
        "a1-cross": lambda a, q: _one(
            flaggw.verify_a1_crosscheck, _bound(a.max_d, 4, 5, 8, q, "--max-d")
        ),
        "a2-recursion": lambda a, q: _one(
            flaggw.verify_a2_theorem_3_2, _bound(a.max, 3, 4, 5, q, "--max")
        ),
        "lemma34": _check_lemma34,
        "toda-plain": lambda a, q: _one(
            toda3.verify_recursions_plain, _bound(a.max, 6, 12, 16, q, "--max")
        ),
        "toda-eq": lambda a, q: _one(
            toda3.verify_recursions_equivariant, _bound(a.max, 6, 8, 10, q, "--max")
        ),
        "toda-operators": _check_toda_operators,
        "batyrev": lambda a, q: _one(
            toda3.verify_batyrev, _bound(a.max, 6, 12, 20, q, "--max")
        ),
        "corollary35": lambda a, q: _one(
            toda3.verify_corollary_3_5, _bound(a.max, 3, 6, 6, q, "--max")
        ),
    }


def cmd_verify(args, quick: bool):
    """Resolve every check's bounds, then return the work that runs them."""
    runners = _runners()
    names = list(VERIFY_CHECKS) if args.check == "all" else [args.check]
    work = [(name, runners[name](args, quick)) for name in names]
    return lambda: _run_checks(args, work)


def _run_checks(args, work) -> tuple[list[str], int]:
    reports: list[VerificationReport] = []
    for name, run in work:
        try:
            reports.extend(run())
        except PoleError as exc:
            broken = VerificationReport(name, {})
            broken.fail("evaluation", f"pole: {exc}", "finite value")
            reports.append(broken)
        except Exception as exc:
            # one broken runner must not hide the other checks' reports; the
            # traceback goes to stderr, the deterministic payload stays clean
            # (imported only here, so that CLI start-up does not pay for it)
            import traceback

            print(f"error: check {name} raised", file=sys.stderr)
            traceback.print_exc(file=sys.stderr)
            broken = VerificationReport(name, {})
            broken.fail("runner", f"{type(exc).__name__}: {exc}", "no exception")
            reports.append(broken)
    if args.json:
        payload = {"format": "qcseries.verify.v1", "reports": [r.payload() for r in reports]}
        lines = [json.dumps(payload, sort_keys=True)]
    else:
        lines = ["qcseries verify v1"]
        for r in reports:
            lines.append("")
            lines.extend(r.payload_lines())
    code = 0 if all(r.ok for r in reports) else 1
    return lines, code


# -- entry point -----------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qcseries",
        description="Exact hypergeometric series tables and verification suites.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--n", type=int, default=None,
                       help="dimension / rank selector")
        p.add_argument("--max-d", dest="max_d", type=int, default=None,
                       help="degree bound in q")
        p.add_argument("--max", type=int, default=None,
                       help="total-degree or order bound")
        p.add_argument("--level", choices=LEVELS, default="quick",
                       help="preset bounds when flags are omitted")
        p.add_argument("--out", default=None, help="write the report to a file")

    p_series = sub.add_parser("series", help="print a coefficient table")
    p_series.add_argument("target", choices=SERIES_TARGETS)
    common(p_series)
    p_series.add_argument("--chart", choices=("part1", "part3"), default=None,
                          help="rewrite weights in root variables")

    p_verify = sub.add_parser("verify", help="run exact-equality checks")
    p_verify.add_argument("check", choices=VERIFY_CHECKS + ("all",))
    common(p_verify)
    p_verify.add_argument("--json", action="store_true",
                          help="emit the JSON mirror instead of text")
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    quick = args.level == "quick"
    try:
        _reject_unread_options(args)
        run = (cmd_series if args.command == "series" else cmd_verify)(args, quick)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    out = None
    if args.out:
        # opened before any work and emptied only once the report is ready,
        # so a run that ends early leaves an existing file as it was
        try:
            out = open(args.out, "a", encoding="utf-8")
        except OSError as exc:
            print(f"error: cannot write --out {args.out}: {exc.strerror or exc}",
                  file=sys.stderr)
            return 2
    with out if out is not None else contextlib.nullcontext():
        try:
            lines, code = run()
        except PoleError as exc:
            print(f"error: pole during evaluation: {exc}", file=sys.stderr)
            return 1
        text = "\n".join(lines) + "\n"
        if out is None:
            sys.stdout.write(text)
        else:
            if out.seekable():
                out.truncate(0)
            out.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
