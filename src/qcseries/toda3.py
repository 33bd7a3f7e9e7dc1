"""Rank-three Toda-lattice operators and their hypergeometric solutions.

Everything happens in the two ratio variables v_1, v_2.  The lattice
operators d_k = p_k(u, v) - sigma_k(lambda) come from det(t + M) for the
deformed tridiagonal matrix M (Givental and Kim), which is the continuant
K_b = (t + u_(b-1)) K_(b-1) + v_(b-1) K_(b-2), with u_a read as the Euler
expression lambda_a + h (theta_a - theta_(a+1)), where theta_b = v_b d/dv_b
and theta_0 = theta_3 = 0, and v_a read as multiplication.  An operator acts
on one monomial at a time: v^beta is an eigenvector of every u_a, and v^e
shifts beta.  Within each monomial of p_k the u's and v's touch disjoint
indices, so no ordering choice arises.

A series is a plain dict {index tuple: coefficient}, truncated at a total
degree.  The solutions have coefficients given in closed form three ways
(plain, binomial-sum, equivariant); verification routines check the
hand-derived coefficient recursions and, independently, that the built
operators annihilate the closed series through the certified truncation
order.  The coefficient identities and the operators are coded once, in the
weights lambda_0, lambda_1, lambda_2 and h: the plain flavor runs them at
zero weights and h = 1 over the rationals, the equivariant one over lambda,
h polynomials and rational functions.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import comb, factorial, prod

from .exactalg import (
    MultiPoly,
    RatFunc,
    VarRegistry,
    substitute,
)
from .report import VerificationReport

UV_REGISTRY = VarRegistry(["u_0", "u_1", "u_2", "v_1", "v_2"])
LAMBDA_REGISTRY = VarRegistry(["lambda_0", "lambda_1", "lambda_2", "h"])
# the equivariant weights (lambda_0, lambda_1, lambda_2, h)
LAMBDA_WEIGHTS = tuple(LAMBDA_REGISTRY.var(n) for n in LAMBDA_REGISTRY)


def _a2():
    """A2, the one root system this module reads.

    `roots` is imported on first call: verify batyrev and series toda must not load it.
    """
    from .roots import RootSystem

    return RootSystem.type_A(2)


def _triangle(n: int):
    """(i, j) with i + j <= n, i outer and j inner: the order rows and failures print in."""
    return ((i, j) for i in range(n + 1) for j in range(n + 1 - i))


# -- the matrix side -------------------------------------------------------------------


def char_poly() -> tuple[MultiPoly, ...]:
    """p_1..p_n: the coefficients of det(t + M) for the deformed tridiagonal M.

    det(t + M) is the continuant K_n, where K_0 = 1, K_(-1) = 0 and
    K_b = (t + u_(b-1)) K_(b-1) + v_(b-1) K_(b-2); p_k is its coefficient of
    t^(n-k), and n is the number of u's in UV_REGISTRY.
    """
    reg = UV_REGISTRY
    n = sum(name.startswith("u_") for name in reg.names)
    # each K_b as its list [coefficient of t^b, of t^(b-1), ..., of t^0]
    prev, cur = [], [reg.one()]
    for b in range(1, n + 1):
        u = reg.var(f"u_{b - 1}")
        nxt = cur + [reg.zero()]
        for k in range(1, b + 1):
            nxt[k] = nxt[k] + u * cur[k - 1]
            if k >= 2:
                nxt[k] = nxt[k] + reg.var(f"v_{b - 1}") * prev[k - 2]
        prev, cur = cur, nxt
    return tuple(cur[1:])


# -- lattice operators ----------------------------------------------------------------


class TodaOperator:
    """d_k = p_k(u, v) - sigma_k(lambda), acting on series keyed by index tuples.

    On v^beta, padded with a zero at each end, u_a multiplies by the
    eigenvalue lambda_a + h (beta_a - beta_(a+1)) and v^e shifts beta by e.
    In each monomial of p_k the shift acts first, so the eigenvalues are read
    at the shifted index; sigma_k = p_k(lambda, 0), from p_k's v-free
    monomials, is a constant.  The weights, and so the image's coefficients,
    are rationals in the plain flavor and lambda, h polynomials in the
    equivariant one.
    """

    __slots__ = ("poly", "sigma", "weights", "max_shift")

    def __init__(self, poly: MultiPoly, weights: tuple):
        self.poly = poly
        self.weights = weights
        lam = weights[:-1]
        self.max_shift = max(sum(m[len(lam):]) for m, _ in poly.monomials())
        self.sigma = sum(c * prod(x**p for x, p in zip(lam, m))
                         for m, c in poly.monomials() if not any(m[len(lam):]))

    def act_monomial(self, beta: tuple[int, ...]) -> dict:
        """Image of v^beta as a map (index tuple) -> nonzero coefficient."""
        *lam, h = self.weights
        n = len(lam)
        out = {beta: -self.sigma}
        for mono, c in self.poly.monomials():
            key = tuple(b + e for b, e in zip(beta, mono[n:]))
            padded = (0, *key, 0)
            w = h**0 * c  # c in the ring of the weights
            for a, power in enumerate(mono[:n]):
                if power:
                    w = w * (lam[a] + h * (padded[a] - padded[a + 1])) ** power
            out[key] = out[key] + w if key in out else w
        return {k: w for k, w in out.items() if w != 0}


def apply(opr: TodaOperator, coeffs: dict, order: int) -> dict:
    """Nonzero coefficients of the image of a series truncated at total degree order.

    The image is certified through order minus the operator's shift, and
    only those coefficients are returned.
    """
    new_order = order - opr.max_shift
    if new_order < 0:
        raise ValueError("series order too small for this operator's shift")
    out = {}
    for beta, c in coeffs.items():
        for key, w in opr.act_monomial(beta).items():
            if sum(key) <= new_order:
                out[key] = out[key] + w * c if key in out else w * c
    return {k: c for k, c in out.items() if c != 0}


# -- building the operators ------------------------------------------------------------


def build_operators(equivariant: bool = True) -> tuple[TodaOperator, TodaOperator]:
    """The two nontrivial lattice operators, over lambda_0..lambda_2, h.

    Plain mode fixes the weights to zero and the deformation scale to one,
    and so acts over the rationals.  The trace operator vanishes identically
    in ratio coordinates, which is asserted.
    """
    weights = LAMBDA_WEIGHTS if equivariant else (0, 0, 0, 1)
    d1, d2, d3 = (TodaOperator(p, weights) for p in char_poly())
    # p_1 is linear in u, so each d_1 weight is affine in (i, j): zero at
    # three non-collinear points means zero everywhere
    if any(d1.act_monomial(beta) for beta in ((0, 0), (1, 0), (0, 1))):
        raise AssertionError("the trace operator must vanish in ratio coordinates")
    return d2, d3


# -- closed-form coefficients ----------------------------------------------------------


def closed_a(i: int, j: int) -> Fraction:
    """(i+j)! over the cubes of the two factorials."""
    if i < 0 or j < 0:
        return Fraction(0)
    return Fraction(factorial(i + j), factorial(i) ** 3 * factorial(j) ** 3)


def batyrev_b(i: int, j: int) -> Fraction:
    """Binomial-sum form: sum of C(i,r)C(j,r) over the squared factorials."""
    if i < 0 or j < 0:
        return Fraction(0)
    total = sum(comb(i, r) * comb(j, r) for r in range(min(i, j) + 1))
    return Fraction(total, factorial(i) ** 2 * factorial(j) ** 2)


@cache
def closed_a_equivariant(i: int, j: int) -> RatFunc:
    """Weighted coefficient: the rank-two flag closed form over h^(i+j).

    The 1/h^(i+j) normalization makes the h=1, zero-weight limit the plain
    coefficient.  An input the checks read, so it is built once per process
    (the memoization rule of `projgw`).  Every value, zero included, is
    over the rank-two root system's registry.
    """
    return _over_h_power(i, j, *map(_a2().registry.var, ("alpha_1", "alpha_2", "h")))


def _over_h_power(i: int, j: int, a1: MultiPoly, a2: MultiPoly, h: MultiPoly) -> RatFunc:
    """The rank-two closed form over h^(i+j), from its linear factors in a1, a2 and h.

    Zero, over h's registry, outside the quadrant.
    """
    from . import flaggw

    if i < 0 or j < 0:
        return RatFunc.zero(h.registry)
    num, dens, scale = flaggw.a2_closed_factors(i, j, a1, a2, h)
    return RatFunc.from_factored(num, dens + [h] * (i + j), scale)


def _part3_chart(weights) -> dict:
    """alpha_a -> lambda_a - lambda_(a-1): Part III's chart, the lambda chart of -weights."""
    return _a2().lambda_chart([-w for w in weights])


@cache
def _lambda_coeff(i: int, j: int) -> RatFunc:
    """closed_a_equivariant(i, j) in the weights: each linear factor goes through Part III's chart."""
    al1, al2 = _part3_chart(LAMBDA_WEIGHTS[:3]).values()
    return _over_h_power(i, j, al1, al2, LAMBDA_WEIGHTS[3])


def closed_solution(order: int, equivariant: bool = True) -> dict[tuple[int, int], object]:
    """The closed-form solution {(i, j): coefficient}, i+j <= order.

    Coefficients are RatFuncs over the lambda registry, or Fractions in the
    plain flavor.
    """
    coeff = _lambda_coeff if equivariant else closed_a
    return {(i, j): coeff(i, j) for i, j in _triangle(order)}


# -- verification: coefficient recursions ----------------------------------------------


def _check_identities(report: VerificationReport, n_max: int, a, weights,
                      rebuild_max: int) -> None:
    """The lattice coefficient identities at weights (lambda_0, lambda_1, lambda_2, h).

    a(i, j) is the coefficient lookup, zero outside the quadrant; the values
    are Fractions with Fraction weights, or RatFuncs with polynomial weights.
    """
    if n_max < 0:
        raise ValueError("total-degree bound must be >= 0")
    l0, l1, l2, h = weights
    al1, al2 = _part3_chart((l0, l1, l2)).values()
    theta = al1 + al2
    l012 = l0 * l1 * l2
    rebuilt = {(0, 0): 1}
    for i, j in _triangle(n_max):
        loc = f"i={i} j={j}"
        if (i, j) == (0, 0):
            report.check_equal("i=0 j=0 base", a(0, 0), 1)
            continue
        # the bracket h * linear, multiplied in one linear factor at a time
        linear = h * (i * i - i * j + j * j) + al1 * i + al2 * j
        report.check_equal(
            f"{loc} second-order", a(i, j) * linear * h, a(i - 1, j) + a(i, j - 1)
        )
        eig3 = (h * i - l0) * (h * (i - j) + l1) * (h * j + l2) + l012
        report.check_equal(
            f"{loc} third-order",
            eig3 * a(i, j),
            (l0 - h * i) * a(i, j - 1) + (l2 + h * j) * a(i - 1, j),
        )
        if i >= 1 and j >= 1:
            report.check_equal(
                f"{loc} cross-ratio",
                a(i, j - 1) * (h * i) * (h * i + al1) * (h * i + theta),
                a(i - 1, j) * (h * j) * (h * j + al2) * (h * j + theta),
            )
        if j == 0:
            row = 1
            for m in range(1, i + 1):
                row = row / (h * m) / (h * m + al1)
            report.check_equal(f"{loc} row", a(i, 0), row)
        # uniqueness scaffold: the second-order recursion pins every
        # coefficient once the base is fixed
        if i + j <= rebuild_max:
            rebuilt[(i, j)] = (
                rebuilt.get((i - 1, j), 0) + rebuilt.get((i, j - 1), 0)
            ) / h / linear
            report.check_equal(f"{loc} rebuilt", rebuilt[(i, j)], a(i, j))


def verify_recursions_plain(n_max: int) -> VerificationReport:
    """Hand-derived identities for the plain coefficients, exact over Q."""
    with VerificationReport("toda-plain", {"max_total": n_max}) as report:
        flat = (Fraction(0), Fraction(0), Fraction(0), Fraction(1))
        _check_identities(report, n_max, closed_a, flat, rebuild_max=8)
        for i, j in _triangle(n_max):
            if (i, j) != (0, 0):
                report.check_equal(f"i={i} j={j} symmetry", closed_a(i, j), closed_a(j, i))
    return report


def verify_recursions_equivariant(n_max: int) -> VerificationReport:
    """Weighted coefficient identities over the lambda chart, exact."""
    with VerificationReport("toda-eq", {"max_total": n_max}) as report:
        _check_identities(report, n_max, _lambda_coeff, LAMBDA_WEIGHTS, rebuild_max=5)
        # symmetry in the weight registry: swap both indices and weights
        reg = _a2().registry
        swap = {"alpha_1": reg.var("alpha_2"), "alpha_2": reg.var("alpha_1")}
        for i, j in _triangle(n_max):
            report.check_equal(
                f"i={i} j={j} symmetry",
                closed_a_equivariant(i, j),
                substitute(closed_a_equivariant(j, i), swap),
            )
            specialized = closed_a_equivariant(i, j).substitute(
                {"alpha_1": 0, "alpha_2": 0, "h": 1}
            )
            report.check_equal(
                f"i={i} j={j} specialized", specialized.const_value(), closed_a(i, j)
            )
    return report


# -- verification: operator annihilation ----------------------------------------------


def verify_operator_annihilation(n_max: int,
                                 equivariant: bool = True) -> VerificationReport:
    """The built operators kill the closed series; a nonzero control is kept."""
    name = "toda-eq-operators" if equivariant else "toda-operators"
    with VerificationReport(
        name, {"max_total": n_max, "equivariant": equivariant}
    ) as report:
        d2, d3 = build_operators(equivariant)
        series = closed_solution(n_max, equivariant)
        for label, op in (("second", d2), ("third", d3)):
            image = apply(op, series, n_max)
            report.note(f"{label}: certified through order {n_max - op.max_shift}")
            for i, j in sorted(image, key=lambda ij: (sum(ij), ij)):
                report.fail(f"{label} i={i} j={j}", image[(i, j)], 0)
        # negative control: the plain second operator moves constants
        plain2, _ = build_operators(False)
        control = apply(plain2, {(0, 0): 1}, 2)
        report.check_equal("control (1,0)", control.get((1, 0), 0), 1)
        report.check_equal("control (0,1)", control.get((0, 1), 0), 1)
        report.check_equal("control nonzero", not control, False)
    return report


def verify_batyrev(n_max: int) -> VerificationReport:
    """Binomial-sum coefficients equal the closed ones; the binomial identity too."""
    with VerificationReport("batyrev", {"max_index": n_max}) as report:
        if n_max < 0:
            raise ValueError("index bound must be >= 0")
        for i in range(n_max + 1):
            for j in range(n_max + 1):
                report.check_equal(
                    f"i={i} j={j}", batyrev_b(i, j), closed_a(i, j)
                )
                report.check_equal(
                    f"i={i} j={j} binomial sum",
                    sum(comb(i, r) * comb(j, r) for r in range(min(i, j) + 1)),
                    comb(i + j, i),
                )
    return report


# -- verification: the flag-series bridge ----------------------------------------------


def verify_corollary_3_5(n_max: int) -> VerificationReport:
    """Flag-recursion output, rescaled by q -> q/h, equals the lattice solution.

    The left side comes from the reflection recursion (the identity table of
    the rank-two solver); the right side is certified by operator
    annihilation.  Their equality is the bridge between the two halves.
    """
    with VerificationReport("corollary35", {"max_total": n_max}) as report:
        from . import flaggw

        system = _a2()
        z_id = flaggw.solve_flag_recursion(system, n_max)
        h = system.registry.var("h")
        for i, j in _triangle(n_max):
            report.check_equal(
                f"i={i} j={j}", z_id[(i, j)] / h ** (i + j), closed_a_equivariant(i, j)
            )
    return report
