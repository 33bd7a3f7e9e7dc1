"""Equivariant hypergeometric series on projective space, two independent ways.

The closed-form coefficients live in the field of rational functions of the
fixed-point weights and the parameter h.  The same tables are rebuilt degree
by degree from the fixed-point recursion, whose data is a coefficient linking
adjacent fixed points along a line covered k-fold plus an h-substitution.
Verification routines check, with exact arithmetic, that the two routes
agree and that the well-known first-order and Euler-class prefactor
identities hold.

Everything is computed in difference coordinates mu_a = lambda_a - lambda_0,
that is with lambda_0 = 0: `ProjSetup.lam(0)` is zero and `lam(a)` is the
variable named lambda_a.  Every quantity here is a function of the
differences lambda_a - lambda_b and of h: the closed-form factors
lambda_i - lambda_j + m*h, the linear forms of the coupling coefficient
(whose weight coefficients sum to 0), the poles, the Euler classes and the
shift h -> (lambda_j - lambda_i)/k.  So each lies in the image of

    phi: Q(mu_1..mu_n, h) -> Q(lambda_0..lambda_n, h),  mu_a -> lambda_a - lambda_0,

and is phi of the value computed here.  The images lambda_1 - lambda_0, ...,
lambda_n - lambda_0, h are algebraically independent, so phi is an injective
field homomorphism; it commutes with +, *, / and with the h-substitution.
Two routes are therefore equal in mu exactly when they are equal in lambda,
and comparing with lambda_0 = 0 drops no check while every polynomial
carries one variable fewer.  `series proj` prints its tables in lambda by
applying phi.

Only the table of fixed point 0 is solved, as the base table of A_n/P_1
(`flaggw.solve_flag_recursion` with the Levi on nodes 2..n) read in the
weights by the chart alpha_a -> lambda_(a-1) - lambda_a
(`RootSystem.lambda_chart` of the weights `lam(0)`, ..., `lam(n)`).  The
table of point i is the base table under the chart after w_i, the
reflection in alpha_1 + ... + alpha_i, which swaps points 0 and i.

Memoization rule: only the inputs a route reads are memoized, once per
process.  These are the closed forms (`closed_b`) and the couplings
(`recursion_coeff`), pure functions of the dimension and their indices,
which `ProjSetup` hashes by.  A route's output is never memoized: solver
tables, `recursion_sum` results and residue splits are computed afresh, so
every comparison still computes both of its sides.  The memoized functions
stay module-level names that callers look up at call time, so replacing one
(as a negative control does) reaches every caller.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import factorial

from .exactalg import (
    MultiPoly,
    RatFunc,
    VarRegistry,
    partial_fractions,
    recombine,
    substitute,
)
from .report import VerificationReport


class ProjSetup:
    """Dimension n plus the registry lambda_0..lambda_n, h, normalized to lambda_0 = 0.

    The weight of fixed point 0 is the zero polynomial and the weight of
    fixed point a >= 1 is the variable lambda_a, which stands for the
    difference lambda_a - lambda_0 (see the module docstring).  No quantity
    built here contains the variable lambda_0; it stays in the registry as
    the target of the map phi back to lambda (`to_lambda`).
    """

    __slots__ = ("n", "registry")

    def __init__(self, n: int):
        if n < 0:
            raise ValueError("dimension must be >= 0")
        self.n = n
        self.registry = VarRegistry([f"lambda_{i}" for i in range(n + 1)] + ["h"])

    def __eq__(self, other) -> bool:
        return isinstance(other, ProjSetup) and self.n == other.n

    def __hash__(self) -> int:
        return hash(self.n)

    def lam(self, i: int) -> MultiPoly:
        if not 0 <= i <= self.n:
            raise IndexError(f"fixed-point index {i} out of range 0..{self.n}")
        if i == 0:
            return self.registry.zero()
        return self.registry.var(f"lambda_{i}")

    def to_lambda(self) -> dict[str, MultiPoly]:
        """Bindings of phi: the variable lambda_a goes to lambda_a - lambda_0."""
        lam0 = self.registry.var("lambda_0")
        return {f"lambda_{a}": self.lam(a) - lam0 for a in range(1, self.n + 1)}

    def root_chart(self, part: str) -> tuple[VarRegistry, dict[str, MultiPoly]]:
        """The weights in root variables: the target registry and the bindings.

        The roots are alpha (alpha_1..alpha_n when n > 1); lambda_a, which
        stands for lambda_a - lambda_0, goes to -(alpha_1 + ... + alpha_a) in
        part 'part1' and to that sum in 'part3', inverting the lambda chart
        of the weights or of the negated weights.  ValueError at n = 0, which
        has no roots, or for another part.
        """
        if self.n == 0:
            raise ValueError("no root chart in dimension 0")
        if part not in ("part1", "part3"):
            raise ValueError("part must be 'part1' or 'part3'")
        names = ["alpha"] if self.n == 1 else [f"alpha_{i}" for i in range(1, self.n + 1)]
        target = VarRegistry(names + ["h"])
        bindings = {}
        acc = target.zero()
        for a, name in enumerate(names, start=1):
            alpha = target.var(name)
            acc = acc - alpha if part == "part1" else acc + alpha
            bindings[f"lambda_{a}"] = acc
        return target, bindings

    @property
    def h(self) -> MultiPoly:
        return self.registry.var("h")

    def points(self) -> range:
        return range(self.n + 1)


def euler_e(setup: ProjSetup, i: int) -> MultiPoly:
    """Euler class of the tangent space at the i-th fixed point."""
    out = setup.registry.one()
    for b in setup.points():
        if b != i:
            out = out * (setup.lam(i) - setup.lam(b))
    return out


# -- closed-form series coefficients ------------------------------------------------


@cache
def closed_b(setup: ProjSetup, i: int, d: int) -> RatFunc:
    """Coefficient of q^d in the s-normalization: 1/(d! prod_{j!=i} prod_m (lambda_i-lambda_j+mh))."""
    if d < 0:
        raise ValueError("degree must be >= 0")
    return RatFunc.from_factored(
        setup.registry.one(), _poles(setup, i, d).values(), scale=factorial(d)
    )


def _poles(setup: ProjSetup, i: int, d: int) -> dict[tuple[int, int], MultiPoly]:
    """The factor lambda_i - lambda_j + m*h of closed_b(i, d), keyed by (j, m)."""
    base = setup.lam(i)
    return {
        (j, m): base - setup.lam(j) + setup.h.scale(m)
        for j in setup.points()
        if j != i
        for m in range(1, d + 1)
    }


def closed_B(setup: ProjSetup, i: int, d: int) -> RatFunc:
    """Coefficient in the unscaled normalization; equals closed_b divided by h^d."""
    return closed_b(setup, i, d) / setup.h**d


@cache
def recursion_coeff(setup: ProjSetup, i: int, j: int, k: int) -> RatFunc:
    """Coupling coefficient between fixed points i and j for a k-fold cover."""
    if i == j:
        raise ValueError("fixed points must differ")
    if k < 1:
        raise ValueError("cover multiplicity must be >= 1")
    setup.lam(i)
    setup.lam(j)
    dens = [
        _cover_form(setup, i, j, k, b, m)
        for b in setup.points()
        if b != i
        for m in range(1, k + 1)
        if (b, m) != (j, k)
    ]
    return RatFunc.from_factored(setup.registry.one(), dens, scale=factorial(k))


def _cover_form(setup: ProjSetup, i: int, j: int, k: int, b: int,
                m: int) -> MultiPoly:
    """Character (k-m)/k*lambda_i + m/k*lambda_j - lambda_b of the k-fold i-j cover."""
    return (
        setup.lam(i).scale(Fraction(k - m, k))
        + setup.lam(j).scale(Fraction(m, k))
        - setup.lam(b)
    )


# -- series tables -------------------------------------------------------------------


def _recursion_terms(setup: ProjSetup, k_max: int) -> dict[int, list]:
    """{i: the (j, k) terms of fixed point i's recursion, for k <= k_max}.

    A term reads fixed point j at k degrees lower; its weight is
    recursion_coeff(i, j, k) over the pole lambda_i - lambda_j + k*h, and
    its shift is h -> (lambda_j - lambda_i)/k.  j runs outer, k inner.
    """
    per_i = {i: [] for i in setup.points()}
    for i, terms in per_i.items():
        for j in setup.points():
            if j == i:
                continue
            shift_base = setup.lam(j) - setup.lam(i)
            for k in range(1, k_max + 1):
                pole = setup.lam(i) - setup.lam(j) + setup.h.scale(k)
                shift = {"h": shift_base.scale(Fraction(1, k))}
                terms.append((j, (k,), recursion_coeff(setup, i, j, k) / pole, shift))
    return per_i


def solve_recursion(setup: ProjSetup, d_max: int) -> dict[int, dict[int, RatFunc]]:
    """Build all tables from degree 0 upward using only the recursion data.

    Returns {i: {d: coefficient}} for every fixed point i and degree
    0 <= d <= d_max, with i and d ascending.  The tables are in the b
    normalization of `closed_b`, except in dimension 0, whose single table
    is in the B normalization of `closed_B`.  Like every value here they
    are normalized to lambda_0 = 0; substituting `setup.to_lambda()` gives
    them in lambda_0..lambda_n.

    Point i's table is the base table of A_n/P_1 under the chart after w_i
    (see the module docstring).
    """
    if d_max < 0:
        raise ValueError("degree bound must be >= 0")
    if setup.n == 0:
        # no lines between distinct fixed points, hence no recursion terms;
        # the exponential closed form is exact here
        return {0: {d: 1 / (setup.h**d * factorial(d)) for d in range(d_max + 1)}}
    from . import flaggw
    from .roots import RootSystem
    system = RootSystem.type_A(setup.n)
    base = flaggw.solve_flag_recursion(system, d_max, tuple(range(1, setup.n)))
    chart = system.lambda_chart([setup.lam(a) for a in setup.points()])
    tables = {}
    for i in setup.points():
        w = system.reflection((1,) * i + (0,) * (setup.n - i)) if i else system.identity
        bindings = {name: substitute(system.root_form(w.act(root)), chart, setup.registry)
                    for name, root in zip(chart, system.simple_roots)}
        tables[i] = {d: substitute(z, bindings, setup.registry) for (d,), z in base.items()}
    return tables


# -- verification --------------------------------------------------------------------


def verify_theorem_3_3(setup: ProjSetup, d_max: int, method: str) -> VerificationReport:
    """Check that the closed-form table satisfies the fixed-point recursion.

    method='direct' sums the full right side and compares; method='residue'
    matches simple-fraction residues in h termwise, which checks the same
    identity pole by pole.
    """
    with VerificationReport(
        "proj-recursion", {"n": setup.n, "max_d": d_max, "method": method}
    ) as report:
        if method not in ("direct", "residue"):
            raise ValueError(f"unknown method {method!r}")
        if setup.n == 0:
            report.note("no recursion terms in dimension 0; exponential form checked")
            for d, z in solve_recursion(setup, d_max)[0].items():
                report.check_equal(f"d={d}", z, closed_B(setup, 0, d))
            return report
        if d_max < 1:
            raise ValueError("degree bound must be >= 1 when n >= 1")
        if method == "direct":
            from .flaggw import recursion_sum
            terms = _recursion_terms(setup, d_max)
        for i in setup.points():
            for d in range(1, d_max + 1):
                if method == "direct":
                    # the closed form supplies the lower degrees as well
                    report.check_equal(
                        f"i={i} d={d}",
                        closed_b(setup, i, d),
                        recursion_sum(
                            setup.registry, terms[i], (d,),
                            lambda j, e: closed_b(setup, j, *e),
                        ),
                    )
                else:
                    _residue_check(setup, i, d, report)
    return report


def verify_solver(setup: ProjSetup, d_max: int) -> VerificationReport:
    """Recursion-solver tables against the closed form, at every point and degree.

    The tables of dimension 0 are in the B normalization, so it needs n >= 1.
    """
    with VerificationReport("proj-solver", {"n": setup.n, "max_d": d_max}) as report:
        if setup.n == 0:
            raise ValueError("the solver check needs n >= 1")
        for i, table in solve_recursion(setup, d_max).items():
            for d, z in table.items():
                report.check_equal(f"i={i} d={d}", z, closed_b(setup, i, d))
    return report


def _residue_check(setup: ProjSetup, i: int, d: int,
                   report: VerificationReport) -> None:
    poles = _poles(setup, i, d)
    parts = partial_fractions(closed_b(setup, i, d), "h", list(poles.values()))
    for (j, k), (residue, _factor) in zip(poles, parts):
        shift = (setup.lam(j) - setup.lam(i)).scale(Fraction(1, k))
        expected = recursion_coeff(setup, i, j, k) * substitute(
            closed_b(setup, j, d - k), {"h": shift}
        )
        report.check_equal(f"i={i} d={d} pole j={j} k={k}", residue, expected)


def verify_first_order_split(setup: ProjSetup) -> VerificationReport:
    """Simple-fraction split of the first-order coefficient's denominator.

    1/prod_{j!=i}(lambda_i-lambda_j+h) decomposes with residues
    1/prod_{b!=i,j}(lambda_j-lambda_b), one per pole in h.
    """
    with VerificationReport("first-order-split", {"n": setup.n}) as report:
        if setup.n == 0:
            report.skip("no poles in dimension 0")
            return report
        reg = setup.registry
        for i in setup.points():
            poles = _poles(setup, i, 1)
            total = closed_b(setup, i, 1)
            parts = partial_fractions(total, "h", list(poles.values()))
            for (j, _m), (residue, _factor) in zip(poles, parts):
                expect_dens = [
                    setup.lam(j) - setup.lam(b)
                    for b in setup.points()
                    if b != i and b != j
                ]
                expected = RatFunc.from_factored(reg.one(), expect_dens)
                report.check_equal(f"i={i} pole j={j}", residue, expected)
            report.check_equal(f"i={i} recombined", total, recombine(parts, reg))
    return report


def euler_prefactor_identity(setup: ProjSetup, i: int, j: int, k: int,
                             d: int) -> VerificationReport:
    """Normal-bundle Euler product against the recursion coefficient.

    Builds the localized one-cover contribution from its raw factors (the
    Euler class at i, the cover weight (lambda_j-lambda_i)/k, the 1/k
    automorphism factor, and the double product over characters) and checks
    it equals recursion_coeff/(kh+lambda_i-lambda_j) times the residual
    weight power, as a rational-function identity.
    """
    with VerificationReport(
        "euler-prefactor", {"n": setup.n, "i": i, "j": j, "k": k, "d": d}
    ) as report:
        if i == j:
            raise ValueError("fixed points must differ")
        if not 1 <= k <= d:
            raise ValueError("need 1 <= k <= d")
        reg = setup.registry
        li, lj, h = setup.lam(i), setup.lam(j), setup.h
        weight = (lj - li).scale(Fraction(1, k))

        big = [
            (b, m, _cover_form(setup, i, j, k, b, m))
            for b in setup.points()
            for m in range(0, k + 1)
            if (b, m) not in ((i, 0), (j, k))
        ]

        # the b=i slice of the product collapses to k! times the k-th power
        # of the cover weight, and the m=0 slice to the Euler class at i
        slice_i = reg.one()
        for b, m, f in big:
            if b == i:
                slice_i = slice_i * f
        report.check_equal("b=i slice", slice_i, (weight**k).scale(factorial(k)))
        slice_m0 = reg.one()
        for b, m, f in big:
            if m == 0:
                slice_m0 = slice_m0 * f
        report.check_equal("m=0 slice", slice_m0, euler_e(setup, i))

        pole = h + (li - lj).scale(Fraction(1, k))
        # the Euler class and the weight power as their linear factors
        lhs = RatFunc.from_factored(
            [li - setup.lam(b) for b in setup.points() if b != i] + [weight] * d,
            [pole] + [f for _, _, f in big],
            scale=k,
        )
        rhs = recursion_coeff(setup, i, j, k) / (h.scale(k) + li - lj) * weight ** (d - k)
        report.check_equal("identity", lhs, rhs)
    return report
