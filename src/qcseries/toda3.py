"""Rank-three Toda-lattice operators and their hypergeometric solutions.

Everything happens in the two ratio variables v_1, v_2.  The lattice
operators d_k = p_k(u, v) - sigma_k(lambda) come from the characteristic
polynomial of the deformed tridiagonal matrix (Givental and Kim), with u_a
read as the Euler expression lambda_a + h (theta_a - theta_(a+1)), where
theta_1 = v_1 d/dv_1, theta_2 = v_2 d/dv_2 and theta_0 = theta_3 = 0, and
v_a read as multiplication.  An operator acts on one monomial at a time:
v_1^i v_2^j is an eigenvector of every u_a, and v^e shifts it.  Within each
monomial of p_k the u's and v's touch disjoint indices, so no ordering
choice arises.

The solutions are double series with coefficients given in closed form
three ways (plain, binomial-sum, equivariant); verification routines check
the hand-derived coefficient recursions and, independently, that the built
operators annihilate the closed series through the certified truncation
order.  The coefficient identities are coded once, in the weights lambda_0,
lambda_1, lambda_2 and h: the plain flavor runs them at zero weights and
h = 1 over the rationals.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import cache
from math import comb, factorial

from .exactalg import (
    MultiPoly,
    RatFunc,
    VarRegistry,
    substitute,
)
from .report import VerificationReport, timed
from . import flaggw

UV_REGISTRY = VarRegistry(["u_0", "u_1", "u_2", "v_1", "v_2"])
LAMBDA_REGISTRY = VarRegistry(["lambda_0", "lambda_1", "lambda_2", "h"])
ALPHA_REGISTRY = flaggw._a2_setup().registry

# weight chart linking the two coefficient registries
ALPHA_TO_LAMBDA = flaggw._a2_setup().system.lambda_chart(LAMBDA_REGISTRY, "part3")


# -- the matrix side -------------------------------------------------------------------


def char_poly() -> tuple[MultiPoly, MultiPoly, MultiPoly]:
    """Trace, second minors, and determinant of the deformed triangular matrix."""
    reg = UV_REGISTRY
    u = [reg.var(f"u_{i}") for i in range(3)]
    v1, v2 = reg.var("v_1"), reg.var("v_2")
    m = [
        [u[0], reg.const(-1), reg.zero()],
        [v1, u[1], reg.const(-1)],
        [reg.zero(), v2, u[2]],
    ]
    p1 = m[0][0] + m[1][1] + m[2][2]
    p2 = reg.zero()
    for a, b in itertools.combinations(range(3), 2):
        p2 = p2 + (m[a][a] * m[b][b] - m[a][b] * m[b][a])
    p3 = (
        m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
        - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
        + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
    )
    out = (p1, p2, p3)
    # undeformed limit must give the elementary symmetric functions
    zero_v = {"v_1": RatFunc.zero(reg), "v_2": RatFunc.zero(reg)}
    sym = [
        u[0] + u[1] + u[2],
        u[0] * u[1] + u[0] * u[2] + u[1] * u[2],
        u[0] * u[1] * u[2],
    ]
    for p, s in zip(out, sym):
        if substitute(p, zero_v) != RatFunc.from_poly(s):
            raise AssertionError("deformation does not vanish at v = 0")
    return out


# -- lattice operators ----------------------------------------------------------------


class TodaOperator:
    """d_k = p_k(u, v) - sigma_k(lambda), acting on the double series.

    On v_1^i v_2^j, with beta = (0, i, j, 0), u_a multiplies by the eigenvalue
    lambda_a + h (beta_a - beta_(a+1)) and v^e shifts (i, j) by e.  In each
    monomial of p_k the shift acts first, so the eigenvalues are read at the
    shifted index; sigma_k is a constant.
    """

    __slots__ = ("registry", "poly", "sigma", "weights", "max_shift")

    def __init__(self, poly: MultiPoly, sigma: MultiPoly,
                 weights: tuple[MultiPoly, MultiPoly, MultiPoly, MultiPoly]):
        self.registry = sigma.registry
        self.poly = poly
        self.sigma = sigma
        self.weights = weights
        self.max_shift = max(e + f for (*_, e, f), _ in poly.monomials())

    def act_monomial(self, i: int, j: int) -> dict[tuple[int, int], RatFunc]:
        """Image of v_1^i v_2^j as a map (exponent pair) -> coefficient."""
        *lam, h = self.weights
        out = {(i, j): -self.sigma}
        for (*us, e, f), c in self.poly.monomials():
            beta = (0, i + e, j + f, 0)
            w = self.registry.const(c)
            for a, power in enumerate(us):
                if power:
                    w = w * (lam[a] + h.scale(beta[a] - beta[a + 1])) ** power
            key = beta[1:3]
            out[key] = out[key] + w if key in out else w
        return {k: RatFunc.from_poly(w) for k, w in out.items() if not w.is_zero}


# -- double series ---------------------------------------------------------------------


class BiSeries:
    """Truncated double series: coefficients for all index pairs with i+j <= order."""

    __slots__ = ("registry", "order", "coeffs")

    def __init__(self, registry: VarRegistry, order: int,
                 coeffs: dict[tuple[int, int], RatFunc] | None = None):
        if order < 0:
            raise ValueError("truncation order must be >= 0")
        clean = {}
        for (i, j), c in (coeffs or {}).items():
            if i < 0 or j < 0:
                raise ValueError("indices must be nonnegative")
            if i + j > order:
                raise ValueError("coefficient beyond the truncation order")
            if not c.is_zero:
                clean[(i, j)] = c
        self.registry = registry
        self.order = order
        self.coeffs = clean

    def coefficient(self, i: int, j: int) -> RatFunc:
        if i < 0 or j < 0:
            return RatFunc.zero(self.registry)
        return self.coeffs.get((i, j), RatFunc.zero(self.registry))

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def nonzero_indices(self) -> list[tuple[int, int]]:
        return sorted(self.coeffs, key=lambda ij: (sum(ij), ij))

    def substitute(self, bindings) -> "BiSeries":
        return BiSeries(
            self.registry,
            self.order,
            {ij: c.substitute(bindings) for ij, c in self.coeffs.items()},
        )


def apply(opr: TodaOperator, s: BiSeries) -> BiSeries:
    """Exact action, certified through s.order minus the operator's shift."""
    if opr.registry != s.registry:
        raise ValueError("registry mismatch between operator and series")
    new_order = s.order - opr.max_shift
    if new_order < 0:
        raise ValueError("series order too small for this operator's shift")
    out: dict[tuple[int, int], RatFunc] = {}
    for (i, j), c in s.coeffs.items():
        for (ii, jj), w in opr.act_monomial(i, j).items():
            if ii + jj > new_order:
                continue
            key = (ii, jj)
            out[key] = out.get(key, RatFunc.zero(s.registry)) + w * c
    return BiSeries(s.registry, new_order, out)


# -- building the operators ------------------------------------------------------------


def build_operators(equivariant: bool = True) -> tuple[TodaOperator, TodaOperator]:
    """The two nontrivial lattice operators, over lambda_0..lambda_2, h.

    Plain mode fixes the weights to zero and the deformation scale to one.
    The trace operator vanishes identically in ratio coordinates, which is
    asserted.
    """
    reg = LAMBDA_REGISTRY
    if equivariant:
        weights = tuple(reg.var(n) for n in reg.names)
    else:
        weights = (reg.zero(), reg.zero(), reg.zero(), reg.one())
    l0, l1, l2, _ = weights
    sigma = (l0 + l1 + l2, l0 * l1 + l0 * l2 + l1 * l2, l0 * l1 * l2)
    d1, d2, d3 = (TodaOperator(p, s, weights) for p, s in zip(char_poly(), sigma))
    # p_1 is linear in u, so each d_1 weight is affine in (i, j): zero at
    # three non-collinear points means zero everywhere
    if any(d1.act_monomial(i, j) for i, j in ((0, 0), (1, 0), (0, 1))):
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
    (the memoization rule of `projgw`).
    """
    if i < 0 or j < 0:
        return RatFunc.zero(ALPHA_REGISTRY)
    setup = flaggw._a2_setup()
    return flaggw.a2_closed_coeff(setup, i, j) * RatFunc.from_factored(
        setup.registry.one(), [setup.h] * (i + j)
    )


@cache
def _lambda_coeff(i: int, j: int) -> RatFunc:
    return substitute(closed_a_equivariant(i, j), ALPHA_TO_LAMBDA, LAMBDA_REGISTRY)


def closed_solution(order: int, equivariant: bool = True) -> BiSeries:
    """The closed-form solution series over the lambda registry."""
    reg = LAMBDA_REGISTRY
    coeffs: dict[tuple[int, int], RatFunc] = {}
    for i in range(order + 1):
        for j in range(order + 1 - i):
            if equivariant:
                coeffs[(i, j)] = _lambda_coeff(i, j)
            else:
                coeffs[(i, j)] = RatFunc.from_scalar(reg, closed_a(i, j))
    return BiSeries(reg, order, coeffs)


# -- verification: coefficient recursions ----------------------------------------------


def _check_identities(report: VerificationReport, n_max: int, a, weights,
                      rebuild_max: int) -> None:
    """The lattice coefficient identities at weights (lambda_0, lambda_1, lambda_2, h).

    a(i, j) is the coefficient lookup, zero outside the quadrant; values and
    weights are Fractions or RatFuncs alike.
    """
    l0, l1, l2, h = weights
    al1, al2 = l1 - l0, l2 - l1
    theta = al1 + al2
    l012 = l0 * l1 * l2
    rebuilt = {(0, 0): 1}
    for i in range(n_max + 1):
        for j in range(n_max + 1 - i):
            loc = f"i={i} j={j}"
            if (i, j) == (0, 0):
                report.check_equal("i=0 j=0 base", a(0, 0), 1)
                continue
            # two linear factors, so that a quotient by bracket stays factored
            linear = h * (i * i - i * j + j * j) + al1 * i + al2 * j
            bracket = h * linear
            report.check_equal(
                f"{loc} second-order", bracket * a(i, j), a(i - 1, j) + a(i, j - 1)
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
                    (h * i) * (h * i + al1) * (h * i + theta) * a(i, j - 1),
                    (h * j) * (h * j + al2) * (h * j + theta) * a(i - 1, j),
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
    report = VerificationReport("toda-plain", {"max_total": n_max})
    with timed(report):
        flat = (Fraction(0), Fraction(0), Fraction(0), Fraction(1))
        _check_identities(report, n_max, closed_a, flat, rebuild_max=8)
        for i in range(n_max + 1):
            for j in range(n_max + 1 - i):
                if (i, j) != (0, 0):
                    report.check_equal(
                        f"i={i} j={j} symmetry", closed_a(i, j), closed_a(j, i)
                    )
    return report


def verify_recursions_equivariant(n_max: int) -> VerificationReport:
    """Weighted coefficient identities over the lambda chart, exact."""
    report = VerificationReport("toda-eq", {"max_total": n_max})
    with timed(report):
        weights = tuple(
            RatFunc.from_poly(LAMBDA_REGISTRY.var(n)) for n in LAMBDA_REGISTRY
        )
        _check_identities(report, n_max, _lambda_coeff, weights, rebuild_max=5)

        # symmetry in the weight registry: swap both indices and weights
        swap = {
            "alpha_1": ALPHA_REGISTRY.var("alpha_2"),
            "alpha_2": ALPHA_REGISTRY.var("alpha_1"),
        }
        for i in range(n_max + 1):
            for j in range(n_max + 1 - i):
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
    report = VerificationReport(
        name, {"max_total": n_max, "equivariant": equivariant}
    )
    with timed(report):
        reg = LAMBDA_REGISTRY
        d2, d3 = build_operators(equivariant)
        series = closed_solution(n_max, equivariant)
        for label, op in (("second", d2), ("third", d3)):
            image = apply(op, series)
            report.note(f"{label}: certified through order {image.order}")
            for i, j in image.nonzero_indices():
                report.fail(
                    f"{label} i={i} j={j}", image.coefficient(i, j).text(), "0"
                )
        # negative control: the plain second operator moves constants
        plain2, _ = build_operators(False)
        control = apply(plain2, BiSeries(reg, 2, {(0, 0): RatFunc.one(reg)}))
        report.check_equal("control (1,0)", control.coefficient(1, 0), RatFunc.one(reg))
        report.check_equal("control (0,1)", control.coefficient(0, 1), RatFunc.one(reg))
        report.check_equal("control nonzero", control.is_zero, False)
    return report


def verify_batyrev(n_max: int) -> VerificationReport:
    """Binomial-sum coefficients equal the closed ones; the binomial identity too."""
    report = VerificationReport("batyrev", {"max_index": n_max})
    with timed(report):
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
    report = VerificationReport("corollary35", {"max_total": n_max})
    with timed(report):
        setup = flaggw._a2_setup()
        z_id = flaggw.solve_flag_recursion(setup, n_max)
        h = RatFunc.from_poly(ALPHA_REGISTRY.var("h"))
        for i in range(n_max + 1):
            for j in range(n_max + 1 - i):
                report.check_equal(
                    f"i={i} j={j}",
                    z_id[(i, j)] / h ** (i + j),
                    closed_a_equivariant(i, j),
                )
    return report
