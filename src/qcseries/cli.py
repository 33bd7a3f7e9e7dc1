"""Deterministic command-line reports over the series library.

Two subcommands: `series` prints coefficient tables in a line-oriented
golden format, `verify` runs the exact-equality check suites and reports
pass/fail.  Identical invocations produce identical bytes; wall times never
enter the payload.  Exit codes: 0 all checks passed, 1 at least one failed
(or an evaluation hit a pole), 2 usage or cap errors.

Each subcommand has one table, `SERIES` and `CHECKS`, that maps a name to
the options it reads and to a builder.  The builder checks those options,
raising `UsageError`, and returns the work as a function, so every usage
error comes before any work runs.  The parser's names, the options each
name accepts, the usage text and the order of `verify all` all come from
the tables.

The parser is `Parser`, read off the tables, not argparse: a command line
is `qcseries series TARGET [OPTION...]` or `qcseries verify CHECK
[OPTION...]`, each option spelled in full, as `--opt VALUE` or
`--opt=VALUE`.  So a cold start loads no argparse, gettext or locale, and
building the parser loads no arithmetic: each builder and runner imports
the modules it reads, and a check looks its verify function up when it
runs, so a run pays only for what it computes (and a function patched on
its module is the one that runs).
"""

from __future__ import annotations

import atexit
import contextlib
import gc
import os
import sys
from importlib import import_module
from types import SimpleNamespace
from typing import Sequence

from .report import VerificationReport, value_text

# the presets of `verify`: quick keeps CI latency low; full is the
# documented deep matrix
LEVELS = ("quick", "full")


class UsageError(Exception):
    pass


def _flag(dest: str) -> str:
    return "--" + dest.replace("_", "-")


def _bound(value: int | None, preset: int, cap: int, what: str, low: int = 0) -> int:
    """Explicit bound, or else the preset, checked against [low, cap].

    `low` is the smallest bound at which the runner makes a comparison, so
    a bound below it is a usage error rather than a vacuous pass.
    """
    if value is None:
        value = preset
    if value < low:
        raise UsageError(f"{what} must be >= {low}")
    if value > cap:
        raise UsageError(f"{what} exceeds the cap {cap}")
    return value


# -- series formatting -----------------------------------------------------------------


def q_series_text(coeffs: Sequence) -> str:
    """Render the RatFunc coefficients of q^0, q^1, ... as one truncated q-series.

    A negative coefficient is negated and printed after `-`.
    """
    parts = [coeffs[0].text()]
    for d, c in enumerate(coeffs[1:], start=1):
        sign, c = ("-", -c) if c.scalar < 0 else ("+", c)
        parts.append(f"{sign} {c.text('q' if d == 1 else f'q^{d}')}")
    return " ".join(parts)


def _proj_cap(n: int) -> int:
    """Largest --max-d for projective space of dimension n."""
    return 3 if n == 3 else 6


def _series_proj(args):
    n = 1 if args.n is None else args.n
    if n < 0 or n > 3:
        raise UsageError("series proj supports n in 0..3")
    d_max = _bound(args.max_d, 3, _proj_cap(n), "--max-d")
    if args.chart is not None and n == 0:
        raise UsageError("no root chart in dimension 0")

    def run() -> list[str]:
        from . import projgw
        from .exactalg import substitute

        lines = ["target proj"]
        if args.chart is not None:
            lines.append(f"param chart={args.chart}")
        lines += [f"param max_d={d_max}", f"param n={n}"]
        setup = projgw.ProjSetup(n)
        tables = projgw.solve_recursion(setup, d_max)
        if args.chart is not None:
            target, bindings = setup.root_chart(args.chart)
        else:
            target, bindings = setup.registry, setup.to_lambda()
        rows, sums = [], []
        for i, table in tables.items():
            coeffs = [substitute(c, bindings, target) for c in table.values()]
            rows += [f"row i={i} d={d} {c.text()}" for d, c in enumerate(coeffs)]
            sums.append(f"series i={i} {q_series_text(coeffs)}")
        return lines + rows + sums
    return run


def _series_flag(rank: int, option: str, cap: int):
    """The table entry of `series flag-a{rank}`: `option` bounds the total degree, up to `cap`."""
    def build(args):
        from . import flaggw
        from .roots import RootSystem

        bound = _bound(getattr(args, option), 3, cap, _flag(option))
        # the golden format names the pole convention, of which one is left
        lines = [f"target flag-a{rank}", "param convention=lemma37", f"param {option}={bound}"]
        system = RootSystem.type_A(rank)

        def run() -> list[str]:
            z_id = flaggw.solve_flag_recursion(system, bound)
            # the table of w is w applied to the identity table
            for w in system.weyl_elements:
                word = w.word_text()
                for beta, z in z_id.items():
                    coord = ",".join(str(b) for b in beta)
                    value = system.act_on_ratfunc(w, z)
                    lines.append(f"row w={word} beta={coord} {value.text()}")
            return lines
        return run
    return (option,), build


def _series_toda(args, equivariant: bool):
    # the equivariant numerators grow fast in the roots and h
    cap = 8 if equivariant else 16
    n_max = _bound(args.max, 3, cap, "--max")
    target = "toda-eq" if equivariant else "toda"
    lines = [f"target {target}"]
    if args.chart is not None:
        if args.chart != "part3":
            raise UsageError("series toda-eq takes only --chart part3")
        lines.append(f"param chart={args.chart}")
    lines.append(f"param max={n_max}")

    def run() -> list[str]:
        from . import toda3

        for (i, j), c in toda3.closed_solution(n_max, equivariant).items():
            if args.chart is not None:
                c = toda3.to_lambda(c)
            lines.append(f"row i={i} j={j} {value_text(c)}")
        return lines
    return run


# target -> (the options it reads, builder(args) -> work giving the lines)
SERIES = {
    "proj": (("n", "max_d", "chart"), _series_proj),
    "flag-a1": _series_flag(1, "max_d", 8),
    "flag-a2": _series_flag(2, "max", 5),
    "toda": (("max",), lambda args: _series_toda(args, equivariant=False)),
    "toda-eq": (("max", "chart"), lambda args: _series_toda(args, equivariant=True)),
}


def cmd_series(args):
    """Check the options, then return the work: lines and exit code, once called."""
    table = SERIES[args.target][1](args)
    return lambda: (["qcseries series v1"] + table(), 0)


# -- verify runners --------------------------------------------------------------------


def _one(module: str, check: str, option: str, quick: int, full: int, cap: int):
    """The table entry of a check that makes one report from one bound.

    The check is `module.check`, looked up when the work runs.
    """
    def runner(args, is_quick: bool):
        bound = _bound(getattr(args, option), quick if is_quick else full, cap, _flag(option))
        return lambda: [getattr(import_module(f"{__package__}.{module}"), check)(bound)]
    return (option,), runner


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
        for loc, left, right in sub.failures:
            out.fail(f"{prefix} {loc}", left, right)
    return out


def _check_proj_recursion(args, quick: bool):
    ns = _dims(args, "proj-recursion", range(4), [0, 1, 2] if quick else [0, 1, 2, 3])
    # the preset clamps to each dimension's cap, an explicit bound must fit
    # it; every bound is checked before any dimension runs
    preset = 4 if quick else 5
    bounds = [
        _bound(args.max_d, min(preset, _proj_cap(n)), _proj_cap(n), "--max-d", low=1)
        for n in ns
    ]

    def run() -> list[VerificationReport]:
        from . import projgw

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
    d_max = _bound(args.max_d, 2 if quick else 3, 4, "--max-d", low=1)

    def run() -> list[VerificationReport]:
        from . import projgw

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
    n_max = _bound(args.max, 3 if quick else 4, 5, "--max", low=1)

    def run() -> list[VerificationReport]:
        from . import flaggw

        return [
            flaggw.verify_lemma_3_4(i, total - i)
            for total in range(1, n_max + 1)
            for i in range(total // 2 + 1)
        ]
    return run


def _check_toda_operators(args, quick: bool):
    # as for toda-eq, the equivariant operators stop at 8 at the full level;
    # an explicit --max sets both orders, up to the plain operators' full
    # order 12, so every order the full level runs can be rerun by name
    n_plain, n_eq = (6, 6) if quick else (12, 8)
    if args.max is not None:
        n_plain = n_eq = _bound(args.max, n_eq, 12, "--max", low=1)

    def run() -> list[VerificationReport]:
        from . import toda3

        return [
            toda3.verify_operator_annihilation(n_plain, equivariant=False),
            toda3.verify_operator_annihilation(n_eq, equivariant=True),
        ]
    return run


# check -> (the options it reads, runner(args, quick) -> work giving the
# reports); `verify all` runs the checks in this order
CHECKS = {
    "proj-recursion": (("n", "max_d"), _check_proj_recursion),
    "euler-prefactor": (("n", "max_d"), _check_euler_prefactor),
    "a1-cross": _one("flaggw", "verify_a1_crosscheck", "max_d", 4, 5, 8),
    "a2-recursion": _one("flaggw", "verify_a2_theorem_3_2", "max", 3, 4, 5),
    "lemma34": (("max",), _check_lemma34),
    "toda-plain": _one("toda3", "verify_recursions_plain", "max", 6, 12, 16),
    # the equivariant lattice's cross-multiplied numerators grow fast in
    # four variables, so the full level stops at 8, short of the cap
    "toda-eq": _one("toda3", "verify_recursions_equivariant", "max", 6, 8, 10),
    "toda-operators": (("max",), _check_toda_operators),
    "batyrev": _one("toda3", "verify_batyrev", "max", 6, 12, 20),
    "corollary35": _one("toda3", "verify_corollary_3_5", "max", 3, 6, 6),
}
VERIFY_CHECKS = tuple(CHECKS)


def cmd_verify(args):
    """Resolve every check's bounds, then return the work that runs them."""
    quick = args.level == "quick"
    names = VERIFY_CHECKS if args.check == "all" else (args.check,)
    work = [(name, CHECKS[name][1](args, quick)) for name in names]
    return lambda: _run_checks(args, work)


def _run_checks(args, work) -> tuple[list[str], int]:
    from .exactalg import PoleError

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
        # imported only here, as traceback above: text output does not need it
        import json

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


# option -> (its value: int, a tuple of choices, str, or None for a flag that
# takes none; its default; its help); the options a name reads are in its table
OPTIONS = {
    "n": (int, None, "dimension / rank selector"),
    "max_d": (int, None, "degree bound in q"),
    "max": (int, None, "total-degree or order bound"),
    "chart": (("part1", "part3"), None, "proj: print the weights in root variables; "
              "toda-eq (part3 only): print the roots in the weights"),
    "level": (LEVELS, "quick", "preset bounds when flags are omitted"),
    "json": (None, False, "emit the JSON mirror instead of text"),
    "out": (str, None, "write the report to a file"),
}

# command -> (its table, its names, what a name stands for, what the command
# does, the options it takes besides those its names read)
COMMANDS = {
    "series": (SERIES, tuple(SERIES), "target", "print a coefficient table", ("out",)),
    "verify": (CHECKS, VERIFY_CHECKS + ("all",), "check", "run exact-equality checks",
               ("level", "json", "out")),
}


class Parser:
    """`qcseries COMMAND NAME [OPTION...]`, its names and options read from the tables.

    An option comes before or after the name, as `--opt VALUE` or
    `--opt=VALUE`, spelled in full; the last occurrence wins, and an int
    value may be negative.  `-h` or `--help` anywhere asks for the usage
    text.  Every other departure is a `UsageError`, raised before any work.
    """

    __slots__ = ("reads", "flags")

    def __init__(self):
        # command -> the options that some name of it reads, in OPTIONS order
        self.reads = {}
        for command, (table, *_) in COMMANDS.items():
            read = set().union(*(options for options, _ in table.values()))
            self.reads[command] = tuple(dest for dest in OPTIONS if dest in read)
        self.flags = {_flag(dest): dest for dest in OPTIONS}

    def usage(self) -> str:
        forms = [f"qcseries {command} {what.upper()} [OPTION...]"
                 for command, (_, _, what, _, _) in COMMANDS.items()]
        lines = ["usage: " + forms[0]] + ["       " + form for form in forms[1:]]
        lines += ["", "Exact hypergeometric series tables and verification suites."]
        for command, (table, names, what, does, extra) in COMMANDS.items():
            lines += ["", f"{command} {what.upper()}: {does}"]
            lines += [f"  {name:<17}{' '.join(map(_flag, table[name][0]))}"
                      for name in table]
            if "all" in names:
                lines.append(f"  {'all':<17}every {what} above, in this order")
            lines.append(f"  {'any ' + what:<17}{' '.join(map(_flag, extra))}")
        lines += ["", "options, as --opt VALUE or --opt=VALUE; the last one given wins:"]
        for dest, (kind, default, text) in OPTIONS.items():
            value = (" " + "|".join(kind) if isinstance(kind, tuple)
                     else {int: " N", str: " FILE", None: ""}[kind])
            if isinstance(default, str):
                text += f" (default {default})"
            lines.append(f"  {_flag(dest) + value:<21}{text}")
        lines.append(f"  {'-h, --help':<21}print this text and exit")
        return "\n".join(lines) + "\n"

    def parse_args(self, argv: Sequence[str]) -> SimpleNamespace | None:
        """The parsed arguments, or None if they ask for help."""
        if "-h" in argv or "--help" in argv:
            return None
        if not argv or argv[0] not in COMMANDS:
            given = f"unknown command {argv[0]!r}" if argv else "missing command"
            raise UsageError(f"{given}: choose from {', '.join(COMMANDS)}")
        command, *rest = argv
        table, names, what, _, extra = COMMANDS[command]
        reads = self.reads[command]
        values = {dest: OPTIONS[dest][1] for dest in reads + extra}
        name = None
        unread = []
        tokens = iter(rest)
        for token in tokens:
            if not token.startswith("-"):
                if name is not None:
                    unread.append(token)
                elif token in names:
                    name = token
                else:
                    raise UsageError(f"unknown {command} {what} {token!r}: "
                                     f"choose from {', '.join(names)}")
                continue
            flag, equals, value = token.partition("=")
            dest = self.flags.get(flag)
            if dest not in values:
                unread.append(token)
                continue
            kind = OPTIONS[dest][0]
            if kind is None:
                if equals:
                    raise UsageError(f"{flag} takes no value")
                values[dest] = True
                continue
            if not equals:
                value = next(tokens, None)
                if value is None:
                    raise UsageError(f"{flag} needs a value")
            values[dest] = _option_value(flag, kind, value)
        if unread:
            raise UsageError(f"unrecognized arguments: {' '.join(unread)}")
        if name is None:
            raise UsageError(f"{command} needs a {what}: choose from {', '.join(names)}")
        # an option that this name does not read; `all` reads every one
        own = reads if name == "all" else table[name][0]
        for dest in reads:
            if values[dest] is not None and dest not in own:
                raise UsageError(f"{command} {name} does not take {_flag(dest)}")
        return SimpleNamespace(command=command, **{what: name}, **values)


def _option_value(flag: str, kind, value: str):
    if kind is int:
        try:
            return int(value)
        except ValueError:
            raise UsageError(f"{flag} takes an integer, not {value!r}") from None
    if kind is not str and value not in kind:
        raise UsageError(f"{flag} takes one of {', '.join(kind)}, not {value!r}")
    return value


def build_parser() -> Parser:
    return Parser()


def _write_stdout(text: str) -> bool:
    """Write and flush stdout; on failure report it on stderr and return False."""
    try:
        sys.stdout.write(text)
        sys.stdout.flush()
    except OSError as exc:
        print(f"error: cannot write stdout: {exc.strerror or exc}", file=sys.stderr)
        # the text stays buffered, and the interpreter's final flush would
        # fail again, print a second error and exit 120; it goes to the null
        # device instead
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return False
    return True


def main(argv: Sequence[str] | None = None) -> int:
    """Run one `qcseries` command line; return its exit code.

    Each call registers `gc.freeze` with `atexit` in place of any earlier
    registration, so a process holds one however often `main` runs.  The
    interpreter then exits without its final cyclic collection: every
    object alive at exit moves to the permanent generation, which shutdown
    neither traverses nor frees, and the OS reclaims the memory.  Nothing
    is frozen while the process lives.  The contract this keeps: no
    finalizer of an object in a reference cycle runs at exit (Python does
    not promise one, and qcseries defines no `__del__`); `--out` is closed
    before `main` returns; and the interpreter flushes stdout and stderr
    after the `atexit` callbacks, so every byte written still lands.
    """
    atexit.unregister(gc.freeze)
    atexit.register(gc.freeze)
    parser = build_parser()
    try:
        args = parser.parse_args(sys.argv[1:] if argv is None else list(argv))
        if args is None:
            return 0 if _write_stdout(parser.usage()) else 2
        run = (cmd_series if args.command == "series" else cmd_verify)(args)
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
    # every run computes with exactalg, so this import costs it nothing
    from .exactalg import PoleError

    with out if out is not None else contextlib.nullcontext():
        try:
            lines, code = run()
        except PoleError as exc:
            print(f"error: pole during evaluation: {exc}", file=sys.stderr)
            return 1
        text = "\n".join(lines) + "\n"
        if out is None:
            return code if _write_stdout(text) else 2
        try:
            # closed here, so that a failed flush is reported as well
            with out:
                if out.seekable():
                    out.truncate(0)
                out.write(text)
        except OSError as exc:
            print(f"error: cannot write --out {args.out}: {exc.strerror or exc}",
                  file=sys.stderr)
            return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
