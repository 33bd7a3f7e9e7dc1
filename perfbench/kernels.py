"""Frozen-input timings of the exactalg kernels the proj-full checks spend their time in.

Usage: python3 perfbench/kernels.py <seed>

Inputs come from public qcseries calls.  The big numerator N is the largest
one among the partial sums of the n=3, d=3 recursion right side at the fixed
point 0: the sum over neighbours j and cover degrees k of
recursion_coeff * closed_b(j, d-k)(h -> (lambda_j - lambda_0)/k) / pole,
accumulated in the order proj-full's solver and direct check use.  The seed
picks the linear factor lambda_0 - lambda_j + k*h that is multiplied in and
divided out, and the order in which N's denominator factors in h are tried
as failing divisors.  The fixed point stays 0: relabelling the lambdas would
keep every operand's size but change the monomial order, and with it the
time a failing division takes to stop.

Each kernel runs until it has taken 0.25 s and at least three calls (the
failing division at least once per factor); the median per-call time is
reported.  Every result is checked.  The last stdout line is a JSON object
of metric name -> value.
"""

from __future__ import annotations

import json
import random
import statistics
import sys
from fractions import Fraction
from time import perf_counter

from qcseries import RatFunc, VarRegistry, projgw, substitute

N_DIM, DEGREE = 3, 3


def rhs_partial_sums(setup, i: int) -> list[RatFunc]:
    acc = RatFunc.zero(setup.registry)
    sums = []
    for j in setup.points():
        if j == i:
            continue
        shift_base = setup.lam(j) - setup.lam(i)
        for k in range(1, DEGREE + 1):
            pole = RatFunc.from_poly(setup.lam(i) - setup.lam(j) + setup.h.scale(k))
            lower = substitute(projgw.closed_b(setup, j, DEGREE - k),
                               {"h": shift_base.scale(Fraction(1, k))})
            acc = acc + projgw.recursion_coeff(setup, i, j, k) / pole * lower
            sums.append(acc)
    return sums


def part1_chart(setup):
    """lambda_0 -> 0, lambda_m -> -(alpha_1 + ... + alpha_m), as `series proj --chart part1`."""
    names = [f"alpha_{m}" for m in range(1, N_DIM + 1)]
    target = VarRegistry(names + ["h"])
    bindings = {"lambda_0": target.zero()}
    acc = target.zero()
    for m, name in enumerate(names, start=1):
        acc = acc - target.var(name)
        bindings[f"lambda_{m}"] = acc
    return target, bindings


def median_call(fn, min_s: float = 0.25, min_calls: int = 3):
    """Median seconds per call of fn(call_index), and every result."""
    times, results, spent = [], [], 0.0
    while len(times) < min_calls or spent < min_s:
        t0 = perf_counter()
        results.append(fn(len(times)))
        dt = perf_counter() - t0
        times.append(dt)
        spent += dt
    return statistics.median(times), results


def check(ok: bool, what: str) -> None:
    if not ok:
        raise SystemExit(f"kernel result wrong: {what}")


def main() -> int:
    rng = random.Random(int(sys.argv[1]))
    setup = projgw.ProjSetup(N_DIM)
    linear = (setup.lam(0) - setup.lam(rng.randint(1, N_DIM))
              + setup.h.scale(rng.randint(1, DEGREE)))

    sums = rhs_partial_sums(setup, 0)
    big = max(sums, key=lambda f: len(f.numerator.terms))
    num = big.numerator
    dens = [f for f, m in big.factors for _ in range(m)]
    failing = [f for f, _ in big.factors if f.degree_in("h") > 0]
    rng.shuffle(failing)
    neighbour = sums[DEGREE - 1]  # the first neighbour's whole contribution
    target, chart = part1_chart(setup)

    out = {}
    out["mul_big_linear"], products = median_call(lambda _: num * linear)
    product = products[0]
    out["divide_ok"], quotients = median_call(lambda _: product.divide_exact(linear))
    check(all(q == num for q in quotients), "(N*L)/L != N")
    out["divide_fail"], nones = median_call(
        lambda c: num.divide_exact(failing[c % len(failing)]), min_calls=len(failing))
    check(all(q is None for q in nones), "a cancelled denominator factor divides N")
    out["from_factored"], reduced = median_call(
        lambda _: RatFunc.from_factored(product, dens + [linear]))
    keys = [f.key() for f, _ in big.factors]
    check(all(r.numerator == num and [f.key() for f, _ in r.factors] == keys
              for r in reduced),
          "from_factored does not cancel back to N over the reduced factors")
    out["substitute_chart"], images = median_call(
        lambda _: substitute(neighbour, chart, target))
    image = images[0]

    # the chart image, evaluated at a point, equals the source evaluated at the
    # image point; the point is fixed and lies on none of the poles
    point = {"alpha_1": Fraction(3, 7), "alpha_2": Fraction(5, 11),
             "alpha_3": Fraction(7, 13), "h": Fraction(11, 17)}
    at_image = {name: substitute(value, point, target) for name, value in chart.items()}
    at_image["h"] = point["h"]
    check(substitute(image, point, target).const_value()
          == substitute(neighbour, at_image, target).const_value(),
          "chart substitution does not commute with evaluation")

    metrics = {f"exactalg.kernel.{name}.s": value for name, value in out.items()}
    metrics["exactalg.kernel.big.terms"] = len(num.terms)
    metrics["exactalg.kernel.substitute_chart.terms"] = len(neighbour.numerator.terms)
    print(json.dumps(metrics))
    return 0


if __name__ == "__main__":
    sys.exit(main())
