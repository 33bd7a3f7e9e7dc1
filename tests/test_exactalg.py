"""Core exact-arithmetic tests: frozen examples plus algebraic property suites."""

import operator
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qcseries import exactalg
from qcseries.exactalg import (
    MAX_DEGREE,
    MultiPoly,
    PoleError,
    RatFunc,
    VarRegistry,
    homogeneous_degree,
    partial_fractions,
    recombine,
    substitute,
)

REG = VarRegistry(["alpha", "h"])
ALPHA = REG.var("alpha")
H = REG.var("h")


def rf(p) -> RatFunc:
    return RatFunc.coerce(REG, p)


# -- polynomials -------------------------------------------------------------


def test_product_of_linear_factors_expands():
    # (h + alpha)(2h + alpha) hand-expanded
    got = (H + ALPHA) * (2 * H + ALPHA)
    want = 2 * H**2 + 3 * ALPHA * H + ALPHA**2
    assert got == want
    assert rf(H + ALPHA) * rf(2 * H + ALPHA) == rf(want)


def test_poly_text_is_graded_lex_descending():
    p = (H + ALPHA) * (2 * H + ALPHA)
    assert p.text() == "alpha^2 + 3*alpha*h + 2*h^2"
    assert REG.zero().text() == "0"
    assert REG.const(Fraction(-3, 4)).text() == "-3/4"


def test_registry_mismatch_rejected():
    other = VarRegistry(["x"])
    with pytest.raises(ValueError):
        ALPHA + other.var("x")
    with pytest.raises(ValueError):
        ALPHA * other.var("x")
    with pytest.raises(ValueError):
        rf(ALPHA) + RatFunc.coerce(other, other.var("x"))
    with pytest.raises(ValueError):
        rf(ALPHA) * RatFunc.coerce(other, other.var("x"))


def test_values_over_different_registries_compare_unequal():
    # comparison across registries says False, as it does between two
    # polynomials or two rational functions, so a check records a failure
    # instead of crashing; arithmetic across them still raises
    other = VarRegistry(["x"])
    x = other.var("x")
    f = rf(ALPHA) / rf(H)
    for left, right in [(f, x), (x, f), (rf(ALPHA), other.one()), (other.one(), rf(ALPHA)),
                        (ALPHA, x), (f, RatFunc.coerce(other, x))]:
        assert (left == right, left != right) == (False, True)
    with pytest.raises(ValueError):
        f - x
    with pytest.raises(ValueError):
        x * f


def test_bool_is_not_a_coefficient():
    # a bool is an int to Python but no coefficient or exponent of either
    # type: arithmetic with it raises, in either order, and == says False
    # without raising
    for value in (ALPHA, REG.one(), rf(ALPHA) / rf(H), RatFunc.one(REG)):
        for flag in (True, False):
            for op in (operator.add, operator.sub, operator.mul, operator.truediv,
                       operator.pow):
                with pytest.raises(TypeError):
                    op(value, flag)
                with pytest.raises(TypeError):
                    op(flag, value)
            assert (value == flag, flag == value, value != flag) == (False, False, True)


def test_a_constant_polynomial_hashes_as_its_value():
    # equal objects hash equal: a constant equals its value
    for c in (3, Fraction(-5, 7), 0):
        assert REG.const(c) == c and hash(REG.const(c)) == hash(c)
        assert len({REG.const(c), c}) == 1


def test_a_polynomial_divides_by_a_number_or_a_polynomial():
    # a number scales; a polynomial gives the RatFunc quotient, and a RatFunc
    # divisor goes to the RatFunc's reflected method
    p = ALPHA**2 + 3 * H
    assert p / 2 == p.scale(Fraction(1, 2)) and isinstance(p / 2, MultiPoly)
    assert p / Fraction(1, 3) == 3 * p
    assert (p / (ALPHA + H)) * (ALPHA + H) == p
    assert p / H == rf(p) / rf(H) and isinstance(p / H, RatFunc)
    f = rf(ALPHA) / rf(H)
    assert p / f == rf(p) * rf(H) / rf(ALPHA)
    for zero in (0, Fraction(0), REG.zero()):
        with pytest.raises(ZeroDivisionError):
            p / zero
    with pytest.raises(ValueError):
        p / (ALPHA**2 + H)
    with pytest.raises(ValueError):
        p / VarRegistry(["x"]).var("x")


def test_divide_exact_roundtrip_and_failure():
    p = (H + ALPHA) ** 3 * (2 * H + ALPHA)
    q = p.divide_exact(H + ALPHA)
    assert q == (H + ALPHA) ** 2 * (2 * H + ALPHA)
    assert p.divide_exact(H - ALPHA) is None


def test_degree_overflow_raises_and_never_wraps():
    # every packed field has a guard bit; a monomial past MAX_DEGREE must be
    # refused, never wrapped into another monomial
    assert MultiPoly(REG, {(MAX_DEGREE, 0): 1}).degree_in("alpha") == MAX_DEGREE
    for mono in [(MAX_DEGREE + 1, 0), (0, 1 << 16), (20000, 20000)]:
        with pytest.raises(ValueError):
            MultiPoly(REG, {mono: 1})
    top = ALPHA**MAX_DEGREE
    assert list(top.monomials()) == [((MAX_DEGREE, 0), 1)]
    with pytest.raises(OverflowError):
        ALPHA ** (1 << 15)
    with pytest.raises(OverflowError):
        (ALPHA**2 + H) ** (MAX_DEGREE // 2 + 1)
    with pytest.raises(OverflowError):
        top * H
    with pytest.raises(OverflowError):
        H ** 20000 * (ALPHA**20000 + 1)
    assert (top * 2 + H).divide_exact(H) is None
    assert top.divide_exact(ALPHA) == ALPHA ** (MAX_DEGREE - 1)


def test_factor_order_is_lex_in_exponent_vectors():
    # factors sort by key(), whose terms run in lex order of the exponent
    # vectors, lowest first: y + 1 starts at the constant (0, 0, 0), x + y at
    # y = (0, 1, 0) and x at x = (1, 0, 0), although x + y and x share the
    # graded leading term x
    x, y = PREG.var("x"), PREG.var("y")
    f = RatFunc.from_factored(PREG.one(), [x, x + y, y + 1])
    assert f.text() == "1/((y + 1)(x + y)x)"


def test_divisibility_test_sees_every_field():
    # a field of the dividend below the divisor's fails the division even when
    # the total degree and the higher fields would allow it
    x, y, z = PREG.var("x"), PREG.var("y"), PREG.var("z")
    assert (x**3).divide_exact(y) is None
    assert (x**2 * z).divide_exact(y + z) is None
    assert (y**5).divide_exact(z) is None
    assert (x * y * z**4).divide_exact(z) == x * y * z**3


# -- rational functions ------------------------------------------------------


def test_sum_of_reciprocal_linear_forms():
    # 1/(alpha + h) + 1/(-alpha + h) == 2h/(h^2 - alpha^2)
    got = rf(1) / rf(ALPHA + H) + rf(1) / rf(H - ALPHA)
    want = RatFunc.from_factored(2 * H, [H + ALPHA, H - ALPHA])
    assert got == want


def test_denominator_is_expanded_primitive_positive_lead():
    f = rf(1) / rf(ALPHA + H) / rf(ALPHA + 2 * H) / 2
    assert f.denominator == ALPHA**2 + 3 * ALPHA * H + 2 * H**2
    assert f.numerator == REG.const(Fraction(1, 2))
    assert f.text() == "1/(2(alpha + h)(alpha + 2*h))"
    # an already-expanded product is no denominator factor: build it from
    # its linear factors
    with pytest.raises(ValueError):
        rf(1) / (rf(ALPHA + H) * rf(ALPHA + 2 * H) * 2)
    assert (rf(H) / rf(ALPHA + H)).text() == "h/(alpha + h)"
    assert (rf(1) / (rf(H) ** 2 * 2)).text() == "1/(2h^2)"


def test_cancellation_by_trial_division():
    f = rf((H + ALPHA) ** 2 * (2 * H + ALPHA)) / rf(H + ALPHA) / rf(H - ALPHA)
    assert f == rf((H + ALPHA) * (2 * H + ALPHA)) / rf(H - ALPHA)
    # the factored form actually cancelled, not just compared equal
    assert f.denominator == ALPHA - H  # primitive, positive grlex lead
    # building it over both factors at once cancels the same copy
    g = RatFunc.from_factored((H + ALPHA) ** 2 * (2 * H + ALPHA), [H + ALPHA, H - ALPHA])
    assert g == f


def test_division_by_zero_ratfunc():
    with pytest.raises(ZeroDivisionError):
        rf(1) / RatFunc.zero(REG)
    with pytest.raises(ZeroDivisionError):
        RatFunc.from_factored(REG.one(), [REG.zero()])


def test_nonlinear_denominator_factors_and_divisors_raise():
    # every denominator factor has total degree 1: each entry point that adds
    # a factor, and divide_exact, refuses one of higher degree
    x, y, z = (PREG.var(nm) for nm in PREG.names)
    one = PREG.one()
    with pytest.raises(ValueError):
        RatFunc.from_factored(one, [x * y + z])
    with pytest.raises(ValueError):
        RatFunc.from_poly(x * y + z).reciprocal()
    with pytest.raises(ValueError):
        RatFunc.from_factored(x, [y + 1]) / RatFunc.from_poly(x**2 + y)
    with pytest.raises(ValueError):
        RatFunc.from_factored(one, [x + z]).substitute({"x": y**2})
    for p in (x * y + x, PREG.zero(), x):
        with pytest.raises(ValueError):
            p.divide_exact(x * y + 1)
    # a monomial image still splits into its variables: x -> y*z gives z and y
    got = RatFunc.from_factored(one, [x]).substitute({"x": y * z})
    assert got.factors == ((z, 1), (y, 1))


def test_substitute_simple_and_pole():
    # f = 1/(alpha + h), h -> -alpha/2 gives 2/alpha
    f = rf(1) / rf(ALPHA + H)
    got = f.substitute({"h": rf(-ALPHA) / 2})
    assert got == rf(2) / rf(ALPHA)
    with pytest.raises(PoleError):
        (rf(1) / rf(H)).substitute({"h": 0})
    # polynomial substitution stays exact: p -> value
    assert substitute(H, {"h": rf(ALPHA) ** 2}) == rf(ALPHA) ** 2


def test_ratfunc_substitute_raises_like_multipoly_substitute():
    # h occurs in the numerator, alpha only in the denominator factor
    f = rf(H) / rf(ALPHA + H)
    h_only = VarRegistry(["h"])
    with pytest.raises(KeyError):
        H.substitute({"beta": 1})
    with pytest.raises(KeyError):
        f.substitute({"beta": 1})
    with pytest.raises(ValueError):
        (ALPHA + H).substitute({"h": h_only.var("h")}, h_only)
    with pytest.raises(ValueError):
        f.substitute({"h": h_only.var("h")}, h_only)
    # a polynomial value over a registry other than the target
    for g in (H, f):
        with pytest.raises(ValueError):
            g.substitute({"h": h_only.var("h")})
    # a value is a polynomial: one with a denominator factor raises
    reciprocal = rf(1) / rf(ALPHA)
    for g in (H, f):
        with pytest.raises(ValueError):
            g.substitute({"h": reciprocal})
        with pytest.raises(ValueError):
            substitute(g, {"h": reciprocal})
    # a vanishing factor is a pole, also where the numerator vanishes too
    with pytest.raises(PoleError):
        f.substitute({"h": -ALPHA})
    with pytest.raises(PoleError):
        f.substitute({"alpha": 0, "h": 0})


def test_substitute_is_simultaneous():
    # alpha -> h, h -> alpha must swap, not chain
    f = rf(ALPHA + 2 * H)
    got = f.substitute({"alpha": H, "h": ALPHA})
    assert got == rf(H + 2 * ALPHA)


def test_substitute_across_registries():
    target = VarRegistry(["lambda_0", "lambda_1", "h"])
    lam0, lam1 = target.var("lambda_0"), target.var("lambda_1")
    f = rf(1) / rf(ALPHA + H)
    got = f.substitute({"alpha": RatFunc.from_poly(lam0 - lam1)}, target)
    assert got == RatFunc.coerce(target, 1) / RatFunc.from_poly(lam0 - lam1 + target.var("h"))


def test_homogeneous_degree():
    f = RatFunc.from_factored(2 * H, [H - ALPHA, H + ALPHA])
    assert homogeneous_degree(f) == -1
    assert homogeneous_degree(rf(H + ALPHA**2)) is None
    assert homogeneous_degree(RatFunc.zero(REG)) == 0
    # a denominator factor with a constant term mixes degrees 1 and 0
    assert homogeneous_degree(RatFunc.from_factored(2 * H, [H + 1])) is None


# -- partial fractions --------------------------------------------------------


def test_partial_fractions_two_factors():
    # 1/((h+alpha)(2h+alpha)) = (-1/alpha)/(h+alpha) + (2/alpha)/(2h+alpha)
    factors = [H + ALPHA, 2 * H + ALPHA]
    decomp = partial_fractions(RatFunc.from_factored(REG.one(), factors), "h", factors)
    assert len(decomp) == 2
    r1, f1 = decomp[0]
    r2, f2 = decomp[1]
    assert f1 == H + ALPHA and r1 == rf(-1) / rf(ALPHA)
    assert f2 == 2 * H + ALPHA and r2 == rf(2) / rf(ALPHA)
    assert recombine(decomp, REG) == rf(1) / rf(H + ALPHA) / rf(2 * H + ALPHA)


def test_partial_fractions_residue_zero_for_a_cancelled_factor():
    # (h+alpha)/((h+alpha)(2h+alpha)) reduces to 1/(2h+alpha): h+alpha is no pole
    factors = [H + ALPHA, 2 * H + ALPHA]
    f = RatFunc.from_factored(H + ALPHA, factors, scale=3)
    decomp = partial_fractions(f, "h", factors)
    assert decomp[0] == (RatFunc.zero(REG), H + ALPHA)
    assert decomp[1] == (rf(Fraction(1, 3)), 2 * H + ALPHA)
    assert recombine(decomp, REG) == f
    assert partial_fractions(RatFunc.zero(REG), "h", factors)[1][0].is_zero


def test_partial_fractions_preconditions():
    two = [H + ALPHA, 2 * H + ALPHA]
    f = RatFunc.from_factored(REG.one(), two)
    with pytest.raises(ValueError):
        partial_fractions(f, "h", [H + ALPHA, 2 * H + 2 * ALPHA, 2 * H + ALPHA])  # same root
    with pytest.raises(ValueError):
        partial_fractions(RatFunc.from_factored(H**2, two), "h", two)  # numerator degree too big
    with pytest.raises(ValueError):
        partial_fractions(f, "h", two + [ALPHA + REG.one()])  # no h at all
    with pytest.raises(ValueError):
        partial_fractions(f, "h", two + [ALPHA * H + ALPHA])  # non-constant lead
    with pytest.raises(ValueError):
        partial_fractions(f, "h", two + [H**2 + ALPHA])  # not linear in h
    with pytest.raises(ValueError):
        partial_fractions(f / rf(H), "h", two)  # pole h not listed
    with pytest.raises(ValueError):
        partial_fractions(f / rf(H + ALPHA), "h", two)  # pole of multiplicity 2
    # a constant multiple of a pole is the same pole, and a factor free of h,
    # of any multiplicity, is a constant for the split
    g = f / rf(3 * ALPHA**2)
    decomp = partial_fractions(g, "h", [3 * H + 3 * ALPHA, 2 * H + ALPHA])
    assert recombine(decomp, REG) == g


# -- canonical text --------------------------------------------------------------


def test_monomial_factor_text_reads_back_byte_identical():
    reg = VarRegistry(["x1", "x2", "x3"])
    x2, x3 = reg.var("x2"), reg.var("x3")
    # a monomial factor is split into its variables, which print in factor
    # order, and rebuilding from the printed factors gives the same bytes
    f = RatFunc.from_factored(reg.one(), [x2 * x3])
    assert f.text() == "1/(x3*x2)"
    assert RatFunc.from_factored(f.numerator, expanded_factors(f)).text() == f.text()
    g = RatFunc.from_factored(x2, [x2**2 * x3, x2 + x3])
    assert g.text() == "1/(x3(x2 + x3)x2)"
    assert RatFunc.from_factored(g.numerator, expanded_factors(g)).text() == g.text()
    # a reciprocal splits a monomial numerator the same way, so the
    # numerator cancels against its variables
    q = RatFunc.from_poly(x2) / RatFunc.from_poly(x2**2 * x3)
    assert q.text() == "1/(x3*x2)"


def test_juxtaposition_in_denominator_text():
    # a `*` separates two names only; a power, a scalar or a parenthesis
    # already ends the piece before, and a lone factor drops its parentheses
    reg = VarRegistry(["y", "x", "h"])
    x, y = reg.var("x"), reg.var("y")
    assert RatFunc.from_factored(reg.one(), [x, y]).text() == "1/(x*y)"
    assert RatFunc.from_factored(reg.one(), [x, x, y]).text() == "1/(x^2y)"
    reg = VarRegistry(["x", "y", "h"])
    x, h = reg.var("x"), reg.var("h")
    assert RatFunc.from_factored(reg.one(), [x.scale(2)]).text() == "1/(2x)"
    assert RatFunc.from_factored(reg.one(), [x + h]).text() == "1/(x + h)"
    assert RatFunc.from_factored(reg.one(), [(x + h).scale(2)]).text() == "1/(2(x + h))"


# -- property suites -------------------------------------------------------------


def coeffs():
    return st.one_of(
        st.integers(min_value=-6, max_value=6),
        st.builds(Fraction, st.integers(-6, 6), st.integers(1, 5)),
    )


def monos(nvars=3, maxdeg=3):
    return st.tuples(*([st.integers(0, maxdeg)] * nvars))


PREG = VarRegistry(["x", "y", "z"])


def polys():
    return st.dictionaries(monos(), coeffs(), max_size=5).map(
        lambda d: PREG.zero() + MultiPoly(PREG, {m: c for m, c in d.items() if c != 0})
    )


def nonzero_polys():
    return polys().filter(lambda p: not p.is_zero)


def linear_forms():
    return st.tuples(
        st.integers(-4, 4), st.integers(-4, 4), st.integers(-4, 4), st.integers(-6, 6)
    ).map(lambda t: PREG.linear({"x": t[0], "y": t[1], "z": t[2]}) + t[3]).filter(
        lambda f: not f.is_const
    )


def ratfuncs():
    return st.builds(
        lambda n, d: RatFunc.from_factored(n, [d]), polys(), linear_forms()
    )


def monomial_polys():
    return st.builds(lambda m, c: MultiPoly(PREG, {m: c}), monos(), coeffs().filter(bool))


def invertible_ratfuncs():
    # the numerator becomes the reciprocal's denominator, so it is linear or
    # a monomial
    return st.builds(
        lambda n, d: RatFunc.from_factored(n, [d]),
        st.one_of(linear_forms(), monomial_polys()), linear_forms(),
    )


def invertible(f):
    return not f.is_zero and (
        len(f.num.terms) == 1 or all(sum(m) <= 1 for m, _ in f.num.monomials()))


@settings(max_examples=60, deadline=None)
@given(polys(), polys(), polys())
def test_poly_ring_axioms(a, b, c):
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + PREG.zero() == a
    assert a * PREG.one() == a
    assert a - a == PREG.zero()


@settings(max_examples=40, deadline=None)
@given(ratfuncs(), ratfuncs(), ratfuncs(), invertible_ratfuncs())
def test_ratfunc_field_axioms(a, b, c, d):
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a - a == RatFunc.zero(PREG)
    if not d.is_zero:
        assert d * d.reciprocal() == RatFunc.one(PREG)
        assert (b / d) * d == b


@settings(max_examples=40, deadline=None)
@given(polys(), st.one_of(linear_forms(), monomial_polys()), ratfuncs(), st.integers(-6, 6))
def test_polynomials_and_rational_functions_mix(p, q, f, n):
    # a polynomial operand acts as the rational function it equals, on
    # either side, and a number over a polynomial is a rational function
    rp, rq = RatFunc.from_poly(p), RatFunc.from_poly(q)
    mixed = (p * f, p + f, p - f, f - p, n / q, p / q)
    assert mixed == (rp * f, rp + f, rp - f, f - rp, n / rq, rp / rq)
    assert all(isinstance(value, RatFunc) for value in mixed)
    if n:
        # a polynomial over a number stays a polynomial
        assert p / n == rp / n and isinstance(p / n, MultiPoly)
    stranger = VarRegistry(["u"]).var("u")
    for op in (operator.add, operator.sub, operator.mul, operator.truediv):
        with pytest.raises(ValueError):
            op(stranger, f)
        with pytest.raises(ValueError):
            op(f, stranger)


@settings(max_examples=60, deadline=None)
@given(st.one_of(ratfuncs(), invertible_ratfuncs()), st.integers(-3, 4))
def test_power_is_the_repeated_product(f, n):
    assume(n >= 0 or invertible(f))
    factor = f if n >= 0 else f.reciprocal()
    want = RatFunc.one(PREG)
    for _ in range(abs(n)):
        want = want * factor
    assert f**n == want
    zero = RatFunc.zero(PREG)
    assert zero**0 == 1
    with pytest.raises(ZeroDivisionError):
        zero**-1


@settings(max_examples=40, deadline=None)
@given(ratfuncs(), ratfuncs(), st.integers(-4, 4), st.integers(-4, 4))
def test_substitution_is_a_homomorphism(a, b, xv, yv):
    bindings = {"x": RatFunc.coerce(PREG, xv), "y": RatFunc.coerce(PREG, yv)}
    try:
        sa = a.substitute(bindings)
        sb = b.substitute(bindings)
        ssum = (a + b).substitute(bindings)
        sprod = (a * b).substitute(bindings)
    except PoleError:
        return
    assert ssum == sa + sb
    assert sprod == sa * sb


@settings(max_examples=40, deadline=None)
@given(nonzero_polys(), nonzero_polys())
def test_homogeneous_degree_additive_on_products(a, b):
    da = homogeneous_degree(RatFunc.from_poly(a))
    db = homogeneous_degree(RatFunc.from_poly(b))
    if da is None or db is None:
        return
    assert homogeneous_degree(RatFunc.from_poly(a * b)) == da + db
    if invertible(RatFunc.from_poly(b)):
        assert homogeneous_degree(RatFunc.from_poly(a) / RatFunc.from_poly(b)) == da - db


@settings(max_examples=30, deadline=None)
@given(
    st.lists(st.integers(-8, 8), min_size=2, max_size=4, unique=True),
    st.lists(coeffs(), min_size=1, max_size=3),
)
def test_partial_fractions_recombine_exactly(shifts, numcoeffs):
    # denominator prod (h + s*alpha + s^2), numerator of low h-degree
    reg = REG
    a, h = ALPHA, H
    factors = [h + s * a + reg.const(s * s) for s in shifts]
    roots = [RatFunc.from_poly(-(s * a) - reg.const(s * s)) for s in shifts]
    distinct = all(
        not (roots[i] == roots[j]) for i in range(len(roots)) for j in range(i + 1, len(roots))
    )
    if not distinct:
        return
    numerator = reg.zero()
    for i, c in enumerate(numcoeffs[: len(factors) - 1 or 1]):
        if i >= len(factors):
            break
        numerator = numerator + (h**i) * c
    if numerator.is_zero or numerator.degree_in("h") >= len(factors):
        return
    f = RatFunc.from_factored(numerator, factors, scale=Fraction(1, 3))
    decomp = partial_fractions(f, "h", factors)
    target = RatFunc.from_poly(numerator) * 3
    for factor in factors:
        target = target / RatFunc.from_poly(factor)
    assert recombine(decomp, reg) == target


@settings(max_examples=15, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(-3, 3).filter(bool), st.integers(-3, 3), st.integers(-4, 4)),
        min_size=2, max_size=3,
    ),
    st.lists(st.tuples(st.integers(0, 2), st.integers(-3, 3)), min_size=1, max_size=3),
    st.booleans(),
)
def test_partial_fractions_residues_match_sympy(forms, numterms, cancel):
    # residue of (a*h + b) against a * sympy.residue(f, h, -b/a), which sympy
    # reads off a series expansion rather than by evaluating f*(a*h + b)
    sympy = pytest.importorskip("sympy")
    factors = [H.scale(a) + ALPHA.scale(c) + REG.const(e) for a, c, e in forms]
    if len({p.primitive()[1] for p in factors}) < len(factors):
        return
    numerator = REG.zero()
    for t, (e, c) in enumerate(numterms[: len(factors) - 1]):
        numerator = numerator + (ALPHA**e).scale(c) * H**t
    if cancel:
        # the first factor cancels from f's canonical form: residue 0
        numerator = numerator * factors[0]
    if numerator.is_zero:
        return
    f = RatFunc.from_factored(numerator, factors, scale=2)
    alpha, h = sympy.symbols("alpha h")
    f_sym = to_sympy(numerator, (alpha, h)) / 2
    for p in factors:
        f_sym /= to_sympy(p, (alpha, h))
    decomp = partial_fractions(f, "h", factors)
    assert [factor for _, factor in decomp] == factors
    for (residue, _), (a, c, e) in zip(decomp, forms):
        theirs = a * sympy.residue(f_sym, h, -sympy.Rational(1, a) * (c * alpha + e))
        ours = to_sympy(residue.numerator, (alpha, h)) / to_sympy(residue.denominator, (alpha, h))
        assert sympy.cancel(ours - theirs) == 0
    if cancel:
        assert decomp[0][0].is_zero


# -- trial division, the cancellation rules and the integer division path ---------


def int_polys():
    return st.dictionaries(monos(maxdeg=2), st.integers(-9, 9), min_size=1, max_size=5).map(
        lambda d: PREG.zero() + MultiPoly(PREG, d)
    ).filter(lambda p: not p.is_zero)


@settings(max_examples=80, deadline=None)
@given(linear_forms(), st.one_of(int_polys(), nonzero_polys()), st.integers(1, 3))
def test_true_factor_always_cancels(f, q, k):
    # trial division finds every copy: k copies of f in the numerator must
    # all cancel against k + 1 in the denominator, leaving exactly q/f
    f = f.primitive()[1]
    if q.divide_exact(f) is not None:
        return
    got = RatFunc.from_factored(f**k * q, [f] * (k + 1))
    assert got.factors == ((f, 1),)
    assert got.numerator == q


def to_sympy(p, symbols):
    import sympy

    total = sympy.Integer(0)
    for mono, c in p.monomials():
        c = Fraction(c)
        term = sympy.Rational(c.numerator, c.denominator)
        for s, e in zip(symbols, mono):
            term *= s**e
        total += term
    return total


@settings(max_examples=40, deadline=None)
@given(
    st.lists(linear_forms(), min_size=2, max_size=4),
    st.lists(
        st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3),
                  st.integers(-3, 3).filter(bool)),
        min_size=1, max_size=5,
    ),
)
def test_reduced_sums_match_sympy_cancel(pool, terms):
    # sum of c * a / (b * e) over linear forms from a small pool, so shared and
    # cancelling factors are common; the reduced denominator must be sympy's
    sympy = pytest.importorskip("sympy")
    symbols = sympy.symbols("x y z")
    ours = RatFunc.zero(PREG)
    theirs = sympy.Integer(0)
    for a, b, e, c in terms:
        na, fb, fe = (pool[i % len(pool)] for i in (a, b, e))
        ours = ours + RatFunc.from_factored(na.scale(c), [fb, fe])
        theirs += c * to_sympy(na, symbols) / (to_sympy(fb, symbols) * to_sympy(fe, symbols))
    num, den = sympy.fraction(sympy.cancel(theirs))
    our_num = to_sympy(ours.numerator, symbols)
    our_den = to_sympy(ours.denominator, symbols)
    assert sympy.expand(our_num * den - num * our_den) == 0
    assert sympy.cancel(our_den / den).is_number


def canonical(f):
    return f.scalar, f.num, [(g.key(), m) for g, m in f.factors]


def expanded_factors(f):
    return [g for g, m in f.factors for _ in range(m)]


@st.composite
def linear_ratfuncs(draw, pool):
    # scale * (product of pool forms) / (product of pool forms), so numerator
    # and denominator share forms often
    index = st.integers(0, len(pool) - 1)
    num = PREG.const(draw(st.integers(-3, 3).filter(bool)))
    for i in draw(st.lists(index, max_size=3)):
        num = num * pool[i]
    dens = [pool[i] for i in draw(st.lists(index, max_size=4))]
    return RatFunc.from_factored(num, dens, draw(st.integers(1, 3)))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_cancellation_rules_match_full_trial_division(data):
    # products, quotients, sums and reciprocals of functions whose factors
    # are linear skip the divisions their operands rule out; from_factored
    # tries every factor, so both must give the same canonical triple
    pool = data.draw(st.lists(linear_forms(), min_size=2, max_size=4))
    a = data.draw(linear_ratfuncs(pool))
    b = data.draw(linear_ratfuncs(pool))
    da, db = expanded_factors(a), expanded_factors(b)
    cases = {
        "mul": (a * b, RatFunc.from_factored(a.numerator * b.numerator, da + db)),
        "add": (a + b, RatFunc.from_factored(
            a.numerator * b.denominator + b.numerator * a.denominator, da + db)),
    }
    if invertible(a):
        cases["reciprocal"] = (a.reciprocal(), RatFunc.from_factored(a.denominator, [a.numerator]))
    if invertible(b):
        cases["div"] = (a / b, RatFunc.from_factored(a.numerator * b.denominator, da + [b.numerator]))
    for op, (ours, oracle) in cases.items():
        assert canonical(ours) == canonical(oracle), op
        assert ours.num.primitive() == (1, ours.num), op
        assert all(g.primitive() == (1, g) for g, _ in ours.factors), op


def test_cancellation_where_the_rules_allow_it():
    x, y = PREG.var("x"), PREG.var("y")
    f = x + y
    # a sum cancels a linear factor of equal multiplicity in both summands
    assert canonical(RatFunc.from_factored(x, [f]) + RatFunc.from_factored(y, [f])) == \
        canonical(RatFunc.one(PREG))
    assert canonical(RatFunc.from_factored(x, [f, f]) + RatFunc.from_factored(y, [f, f])) == \
        canonical(RatFunc.from_factored(PREG.one(), [f]))


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_equality_matches_sympy(data):
    # == compares canonical forms alone, which holds only because the reduced
    # form is unique; sympy decides the same question by cancelling A - B.
    # Each b is a built by another route, and is compared as it is and
    # perturbed
    sympy = pytest.importorskip("sympy")
    pool = data.draw(st.lists(linear_forms(), min_size=2, max_size=4))
    a = data.draw(linear_ratfuncs(pool))
    c = data.draw(linear_ratfuncs(pool))
    extra = data.draw(st.sampled_from(pool))
    routes = [
        RatFunc.from_factored(a.numerator, expanded_factors(a)),
        a + c - c,
        RatFunc.from_factored(a.numerator * extra, expanded_factors(a) + [extra]),
    ]
    if invertible(c):
        routes.append((a * c) / c)
    # the ratio is 1 exactly when the drawn form is a constant multiple of extra
    ratio = RatFunc.from_factored(data.draw(st.sampled_from(pool)), [extra])
    perturbations = [lambda f: f + c, lambda f: f * -1, lambda f: f * Fraction(1, 3),
                     lambda f: f * ratio]

    def as_sympy(f):
        return sympy_of(f.numerator) / sympy_of(f.denominator)

    for b in routes:
        for other in (b, data.draw(st.sampled_from(perturbations))(b)):
            assert (a == other) == (sympy.cancel(as_sympy(a) - as_sympy(other)) == 0)


def test_divide_exact_rejects_on_the_trailing_monomial(monkeypatch):
    # the leading monomials x^2 and x divide, the trailing ones 1 and y do
    # not, so the division fails before the long division would start
    monkeypatch.setattr(exactalg, "_divide_linear", None)
    x, y = PREG.var("x"), PREG.var("y")
    assert (x**2 + 1).divide_exact(x + y) is None


def test_divide_exact_fraction_and_nonprimitive_paths():
    x, y = PREG.var("x"), PREG.var("y")
    half = x.scale(Fraction(1, 2)) + y
    # Fraction coefficients on either side keep the rational path
    assert ((x + y) * half).divide_exact(half) == x + y
    assert ((x + y) * half).divide_exact(x + y) == half
    assert ((x + y) ** 2).divide_exact(half) is None
    # a non-primitive integer divisor has a non-integral quotient
    assert ((x + 1) ** 2).divide_exact(2 * x + 2) == (x + 1).scale(Fraction(1, 2))
    assert ((x + 1) ** 2).divide_exact(2 * x + 4) is None
    # the integer path gives up on the first non-dividing leading coefficient
    assert (3 * x**2 + y).divide_exact(2 * x + y) is None
    assert (6 * x**2 + 3 * x * y).divide_exact(2 * x + y) == 3 * x


def test_linear_division_takes_no_heap(monkeypatch):
    # a divisor of total degree 1 is divided slice by slice in its
    # lex-first variable, and no other division loop is left to take; the
    # long division only ever sees primitive integer operands
    assert not hasattr(exactalg, "heapq") and not hasattr(exactalg, "_divide_heap")
    calls = []
    linear = exactalg._divide_linear

    def counted(p, g, glead):
        assert p.primitive()[1] is p and g.primitive()[1] is g
        calls.append(g)
        return linear(p, g, glead)

    monkeypatch.setattr(exactalg, "_divide_linear", counted)
    x, y, z = PREG.var("x"), PREG.var("y"), PREG.var("z")
    q = x**2 * y - 3 * y * z + z.scale(Fraction(1, 2)) + 5
    # unit, integer and rational leads, with and without a constant term
    divisors = (x + y - 2, y - z, 3 * y + 2 * z + 1, -x, z + Fraction(1, 3))
    for g in divisors:
        assert (q * g).divide_exact(g) == q
    assert (q * (x + y) + 1).divide_exact(x + y) is None
    assert (y * q + z).divide_exact(y - z) is None
    # the constant 1 fails the trailing-monomial test before any loop runs;
    # -x and z + 1/3 are divided as x and 3*z + 1
    assert calls == [x + y - 2, y - z, 3 * y + 2 * z + 1, x, 3 * z + 1, y - z]


@st.composite
def linear_divisors(draw, reg):
    # a*x_k + (later variables) + c: a unit or not, with or without a
    # constant term, integer or Fraction coefficients
    first = draw(st.integers(0, len(reg) - 1))
    form = {reg.names[first]: draw(coeffs().filter(bool))}
    for nm in reg.names[first + 1:]:
        form[nm] = draw(st.sampled_from([0, 0, 1, -1, 2, 3, Fraction(1, 2)]))
    return reg.linear(form) + draw(st.sampled_from([0, 0, 1, -2, 5, Fraction(3, 2)]))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_linear_division_matches_sympy(data):
    # the dividend is g*q + e, integral or not; a small e makes both
    # outcomes common, and unit, negative, integer and rational leads all
    # reach the long division through divide_exact's primitive parts
    sympy = pytest.importorskip("sympy")
    reg = data.draw(st.sampled_from(SYMPY_REGS[:3]))
    g = data.draw(linear_divisors(reg))
    integer = st.integers(-6, 6)
    q = data.draw(registry_polys(reg, coeff=data.draw(st.sampled_from([integer, coeffs()]))))
    e = data.draw(st.sampled_from([reg.zero(), reg.const(1)]) | registry_polys(reg, max_size=2))
    num = g * q + e
    if num.is_zero:
        return
    got = num.divide_exact(g)
    if got is not None:
        assert got * g == num
    _, rem = sympy.div(sympy_of(num), sympy_of(g), *sympy.symbols(reg.names), domain="QQ")
    assert (got is None) == (rem != 0)


def primitive_by_the_general_loop(p):
    # the clearing of denominators that MultiPoly.primitive falls back on
    den_lcm = 1
    for c in p.terms.values():
        if isinstance(c, Fraction):
            den_lcm = den_lcm * c.denominator // gcd(den_lcm, c.denominator)
    ints = {m: int(c * den_lcm) for m, c in p.terms.items()}
    num_gcd = 0
    for v in ints.values():
        num_gcd = gcd(num_gcd, v)
    if ints[max(ints)] < 0:
        num_gcd = -num_gcd
    return Fraction(num_gcd, den_lcm), {m: v // num_gcd for m, v in ints.items()}


@settings(max_examples=100, deadline=None)
@given(st.one_of(int_polys().map(lambda p: p.scale(-3)), int_polys(), nonzero_polys()))
def test_primitive_matches_the_general_loop(p):
    scale, prim = p.primitive()
    want_scale, want_terms = primitive_by_the_general_loop(p)
    assert scale == want_scale and type(scale) is Fraction
    assert prim.terms == want_terms
    assert all(type(c) is int for c in prim.terms.values())
    if scale == 1:
        # an already primitive polynomial is its own primitive part
        assert prim is p


# -- differential tests against sympy, registries of 2 to 7 variables --------------

SYMPY_REGS = [VarRegistry([f"x{i}" for i in range(n)]) for n in range(2, 8)]


@st.composite
def registry_polys(draw, reg=None, min_size=0, max_size=4, maxdeg=3, coeff=None):
    reg = draw(st.sampled_from(SYMPY_REGS)) if reg is None else reg
    terms = draw(st.dictionaries(
        st.tuples(*[st.integers(0, maxdeg)] * len(reg)), coeffs() if coeff is None else coeff,
        min_size=min_size, max_size=max_size,
    ))
    return reg.zero() + MultiPoly(reg, terms)


def sympy_of(p):
    import sympy

    return to_sympy(p, sympy.symbols(p.registry.names))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_products_match_sympy(data):
    sympy = pytest.importorskip("sympy")
    a = data.draw(registry_polys())
    b = data.draw(registry_polys(a.registry))
    assert sympy.expand(sympy_of(a * b) - sympy_of(a) * sympy_of(b)) == 0
    assert sympy_of(a**2) == sympy.expand(sympy_of(a) ** 2)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_exact_quotients_match_sympy(data):
    sympy = pytest.importorskip("sympy")
    f = data.draw(linear_divisors(data.draw(st.sampled_from(SYMPY_REGS))))
    q = data.draw(registry_polys(f.registry))
    assert (f * q).divide_exact(f) == q
    _, rem = sympy.div(sympy_of(f * q), sympy_of(f), *sympy.symbols(f.registry.names),
                       domain="QQ")
    assert rem == 0


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_divide_exact_fails_exactly_when_sympy_leaves_a_remainder(data):
    # f*q + e is divisible by f exactly when e is; e is small, so both
    # outcomes occur
    sympy = pytest.importorskip("sympy")
    reg = data.draw(st.sampled_from(SYMPY_REGS))
    f = data.draw(linear_divisors(reg))
    q = data.draw(registry_polys(reg))
    e = data.draw(registry_polys(reg, max_size=2))
    num = f * q + e
    got = num.divide_exact(f)
    _, rem = sympy.div(sympy_of(num), sympy_of(f), *sympy.symbols(reg.names), domain="QQ")
    assert (got is None) == (rem != 0)
    if got is not None:
        assert got * f == num


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_substitute_matches_sympy(data):
    # each variable is kept, bound to a small constant or a small polynomial;
    # sympy substitutes simultaneously
    sympy = pytest.importorskip("sympy")
    reg = data.draw(st.sampled_from(SYMPY_REGS))
    p = data.draw(registry_polys(reg, maxdeg=2))
    values = st.one_of(
        st.none(), st.integers(-3, 3), registry_polys(reg, max_size=2, maxdeg=1),
    )
    bindings = {nm: v for nm in reg.names if (v := data.draw(values)) is not None}
    got = p.substitute(bindings)
    # a polynomial image is built as a polynomial
    assert got.factors == ()

    def as_sympy(v):
        if isinstance(v, RatFunc):
            return sympy_of(v.numerator) / sympy_of(v.denominator)
        return sympy_of(v) if isinstance(v, MultiPoly) else v

    symbols = dict(zip(reg.names, sympy.symbols(reg.names)))
    want = sympy_of(p).subs(
        {symbols[nm]: as_sympy(v) for nm, v in bindings.items()}, simultaneous=True,
    )
    assert sympy.cancel(as_sympy(got) - want) == 0


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_text_round_trip_matches_sympy(data):
    # sympy reads text() back to the same function, and rebuilding f from its
    # own canonical parts prints the same bytes, so f was fully reduced
    sympy = pytest.importorskip("sympy")
    from sympy.parsing.sympy_parser import (
        convert_xor, implicit_multiplication, parse_expr, standard_transformations,
    )

    reg = data.draw(st.sampled_from(SYMPY_REGS))
    num = data.draw(registry_polys(reg, maxdeg=2))
    # linear factors and monomials, which split into their variables
    monomials = registry_polys(reg, min_size=1, max_size=1, maxdeg=1,
                               coeff=st.integers(-3, 3).filter(bool))
    dens = data.draw(st.lists(linear_divisors(reg) | monomials, min_size=0, max_size=3))
    scale = data.draw(st.integers(1, 4))
    f = RatFunc.from_factored(num, dens, scale)
    text = f.text()
    assert RatFunc.from_factored(f.numerator, expanded_factors(f)).text() == text
    symbols = dict(zip(reg.names, sympy.symbols(reg.names)))
    read = parse_expr(
        text, local_dict=symbols,
        transformations=standard_transformations + (implicit_multiplication, convert_xor),
    )
    want = sympy_of(num) / (scale * sympy.Mul(*[sympy_of(d) for d in dens]))
    assert sympy.cancel(read - want) == 0


def evaluate(p, bindings, target=None):
    # p at the bindings by ring arithmetic over the target, term by term; this
    # shares no code with substitution
    target = p.registry if target is None else target
    out = target.zero()
    for mono, c in p.monomials():
        term = target.const(c)
        for nm, e in zip(p.registry.names, mono):
            if e:
                term = term * (bindings[nm] if nm in bindings else target.var(nm)) ** e
        out = out + term
    return out


def divide_per_factor(f, bindings, target=None):
    # evaluate the numerator and each factor apart, dividing by each image
    out = RatFunc.from_poly(evaluate(f.num, bindings, target)) * f.scalar
    for g, m in f.factors:
        image = evaluate(g, bindings, target)
        if image.is_zero:
            raise PoleError("a denominator factor vanishes")
        for _ in range(m):
            out = out / image
    return out


def test_substitute_cancels_what_the_images_share():
    # z -> y turns the factor (x + z)^2 into (x + y)^2, one copy of which
    # cancels against the numerator
    x, y, z = (PREG.var(nm) for nm in PREG.names)
    f = RatFunc.from_factored(x + y, [x + z, x + z, x - y])
    got = f.substitute({"z": y})
    assert canonical(got) == canonical(RatFunc.from_factored(PREG.one(), [x + y, x - y]))
    assert got.text() == divide_per_factor(f, {"z": y}).text()


def field_value(p, point):
    # p at a point of sympy's rational function field, one element per variable
    total = point[0].field.zero
    for mono, c in p.monomials():
        term = point[0].field(Fraction(c))
        for v, e in zip(point, mono):
            if e:
                term *= v**e
        total += term
    return total


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_substitute_matches_per_factor_division_and_sympy(data):
    # repeated and shared linear factors; each variable is kept, or bound to
    # a constant or a linear form.  sympy's field of rational functions
    # reduces by gcd, so equal values are equal elements.
    sympy = pytest.importorskip("sympy")
    pool = data.draw(st.lists(linear_forms(), min_size=2, max_size=4))
    f = data.draw(linear_ratfuncs(pool))
    values = st.one_of(
        st.none(), st.integers(-3, 3), linear_forms(),
        linear_forms().map(lambda g: g.scale(Fraction(1, 2))),
    )
    bindings = {nm: v for nm in PREG.names if (v := data.draw(values)) is not None}
    try:
        want = divide_per_factor(f, bindings)
    except PoleError:
        with pytest.raises(PoleError):
            f.substitute(bindings)
        return
    got = f.substitute(bindings)
    assert got.text() == want.text()

    field, *gens = sympy.field(",".join(PREG.names), sympy.QQ)

    def value(v):
        if isinstance(v, RatFunc):
            return field_value(v.numerator, gens) / field_value(v.denominator, gens)
        return field_value(v, gens) if isinstance(v, MultiPoly) else field(v)

    point = [value(bindings[nm]) if nm in bindings else g for nm, g in zip(PREG.names, gens)]
    assert value(got) == field_value(f.numerator, point) / field_value(f.denominator, point)


def test_linear_map_folds_every_kind_of_factor_image():
    # every factor is linear, so each one's image is read off the integer
    # linear map; each case agrees with per-factor division and with a value
    # built by hand
    x, y, z = (PREG.var(nm) for nm in PREG.names)
    f = RatFunc.from_factored(x + 2 * y, [x + z, y + z, x - y], 3)
    # a factor that maps to zero is a pole
    with pytest.raises(PoleError):
        f.substitute({"z": -x})
    # a constant image joins the scalar
    got = f.substitute({"x": 3, "z": -2})
    assert got == RatFunc.from_factored(2 * y + 3, [y - 2, 3 - y], 3)
    assert all(not g.is_const for g, _ in got.factors)
    assert f.substitute({"x": 1, "y": 2, "z": 0}) == Fraction(-5, 6)
    # a monomial image keeps its variables: 2x is the factor x, and y*z
    # (from a nonlinear value) splits into y and z
    assert f.substitute({"z": x}).text() == "(x + 2*y)/(6(x - y)(x + y)x)"
    monomial = RatFunc.from_factored(x + 1, [x, y - 2 * z])
    got = monomial.substitute({"x": y * z})
    assert got.text() == "(y*z + 1)/((y - 2*z)z*y)"
    # equal images merge, also when they differ in sign
    g = RatFunc.from_factored(PREG.one(), [x + z, y + z])
    assert canonical(g.substitute({"x": y})) == canonical(
        RatFunc.from_factored(PREG.one(), [y + z, y + z]))
    assert canonical(g.substitute({"x": -y - 2 * z})) == canonical(
        RatFunc.from_factored(PREG.const(-1), [y + z, y + z]))
    # values over denominators 2 and 3 share the scale lcm(2, 3) = 6
    thirds = {"x": y.scale(Fraction(1, 2)), "z": y.scale(Fraction(1, 3))}
    assert exactalg._Evaluation(PREG, exactalg._union(x + y + z), thirds, None).scale == 6
    assert canonical(f.substitute(thirds)) == canonical(
        RatFunc.from_factored(PREG.const(-3), [y, y], 2))
    # a polynomial image divides the scale back out, also for a nonlinear
    # numerator, whose image is built from products of powers
    assert (x + 2 * y + z).substitute(thirds) == RatFunc.from_poly(y.scale(Fraction(17, 6)))
    nonlinear = RatFunc.from_factored(x * y + z, [x + 2 * y + z])
    assert nonlinear.substitute(thirds).text() == "3/17*y + 2/17"
    for bindings in ({"x": 3, "z": -2}, {"x": 1, "y": 2, "z": 0}, {"z": x}, thirds):
        assert f.substitute(bindings).text() == divide_per_factor(f, bindings).text()
        assert nonlinear.substitute(bindings).text() == \
            divide_per_factor(nonlinear, bindings).text()
    assert got.text() == divide_per_factor(monomial, {"x": y * z}).text()
    for bindings in ({"x": y}, {"x": -y - 2 * z}):
        assert g.substitute(bindings).text() == divide_per_factor(g, bindings).text()


def test_fractions_over_one_act_like_their_ints():
    # public operations can leave a Fraction with denominator 1 as a
    # coefficient; it equals, hashes, keys and substitutes like its int
    x, y, z = (PREG.var(nm) for nm in PREG.names)
    twin = 3 * x - 2 * y + 5
    p = twin.scale(Fraction(1, 2)).scale(2)
    assert all(type(c) is Fraction for c in p.terms.values())
    assert (p == twin, hash(p), p.key()) == (True, hash(twin), twin.key())
    assert x.scale(Fraction(3, 2)).scale(2).key() == (3 * x).key()
    # as a binding value it adds nothing to the scale, and maps as the int
    evaluation = exactalg._Evaluation(PREG, exactalg._union(x + y + z), {"x": p}, None)
    assert evaluation.scale == 1
    assert all(type(c) is int for row in evaluation.table.values() for _, c in row)
    f = RatFunc.from_factored(x + 2 * y, [x + z, y + z, x - y], 3)
    nonlinear = RatFunc.from_factored(x * y + z, [x + 2 * y + z])
    for g in (f, nonlinear, x + z):
        assert canonical(g.substitute({"x": p})) == canonical(g.substitute({"x": twin}))
        both = substitute(g, {"x": p, "z": p}), substitute(g, {"x": twin, "z": twin})
        assert both[0].text() == both[1].text()


TREG = VarRegistry(["u", "y", "x", "v"])


def target_linear_forms():
    return st.tuples(*[st.integers(-3, 3)] * 5).map(
        lambda t: TREG.linear(dict(zip(TREG.names, t[:4]))) + t[4])


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_substitute_into_another_registry_matches_per_factor_division(data):
    # x and y are kept (the target has them, in another order) or bound; z is
    # not in the target, so it is always bound; a value is a constant or a
    # linear form over the target, with denominators 1 to 3
    pool = data.draw(st.lists(linear_forms(), min_size=2, max_size=4))
    f = data.draw(linear_ratfuncs(pool))
    values = st.one_of(
        st.integers(-3, 3),
        st.tuples(target_linear_forms(), st.integers(1, 3)).map(
            lambda t: t[0].scale(Fraction(1, t[1]))),
    )
    bindings = {"z": data.draw(values)}
    for nm in ("x", "y"):
        if (v := data.draw(st.one_of(st.none(), values))) is not None:
            bindings[nm] = v
    try:
        want = divide_per_factor(f, bindings, TREG)
    except PoleError:
        with pytest.raises(PoleError):
            f.substitute(bindings, TREG)
        return
    got = f.substitute(bindings, TREG)
    assert got.registry is TREG
    assert got.text() == want.text()


# -- numerators given as factors, and products with a linear form -----------------


def to_sympy_ratfunc(f, symbols):
    return to_sympy(f.numerator, symbols) / to_sympy(f.denominator, symbols)


def assert_matches_sympy(ours, theirs, symbols):
    import sympy

    num, den = sympy.fraction(sympy.cancel(theirs))
    our_num = to_sympy(ours.numerator, symbols)
    our_den = to_sympy(ours.denominator, symbols)
    assert sympy.expand(our_num * den - num * our_den) == 0
    assert sympy.cancel(our_den / den).is_number


@st.composite
def numerator_factors(draw, pool):
    # associates of the denominator forms (negated or scaled copies), other
    # linear forms, monomials, constants (zero among them), and at most one
    # nonlinear factor; repeats come from drawing a pool form twice
    index = st.integers(0, len(pool) - 1)
    factor = st.one_of(
        st.builds(lambda i, c: pool[i].scale(c), index, coeffs().filter(bool)),
        linear_forms(),
        monomial_polys(),
        coeffs().map(PREG.const),
    )
    factors = draw(st.lists(factor, min_size=1, max_size=5))
    if draw(st.booleans()):
        factors.insert(draw(st.integers(0, len(factors))), draw(nonzero_polys()))
    return factors


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_numerator_factors_give_the_value_of_their_product(data):
    # a sequence numerator is the numerator its product is: linear factors
    # cancel by key, the nonlinear one by trial division, and sympy agrees
    sympy = pytest.importorskip("sympy")
    pool = data.draw(st.lists(linear_forms(), min_size=1, max_size=3))
    dens = [pool[i] for i in data.draw(st.lists(st.integers(0, len(pool) - 1), max_size=4))]
    nums = data.draw(numerator_factors(pool))
    scale = data.draw(coeffs().filter(bool))
    ours = RatFunc.from_factored(nums, dens, scale)
    product = PREG.one()
    for p in nums:
        product = product * p
    assert canonical(ours) == canonical(RatFunc.from_factored(product, dens, scale))
    symbols = sympy.symbols("x y z")
    theirs = to_sympy(product, symbols) / sympy.Rational(scale.numerator, scale.denominator)
    for d in dens:
        theirs /= to_sympy(d, symbols)
    assert_matches_sympy(ours, theirs, symbols)


def test_numerator_factors_need_one_registry_and_one_factor():
    with pytest.raises(ValueError):
        RatFunc.from_factored([], [H])
    with pytest.raises(ValueError):
        RatFunc.from_factored([ALPHA, PREG.var("x")], [H])
    # an associate of a denominator factor cancels, and its content stays
    assert RatFunc.from_factored([ALPHA.scale(-2) - H.scale(2)], [H + ALPHA]) == -2


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_product_with_a_linear_form_matches_sympy(data):
    # the linear operand is compared with each factor, not divided by it
    sympy = pytest.importorskip("sympy")
    pool = data.draw(st.lists(linear_forms(), min_size=1, max_size=3))
    f = data.draw(linear_ratfuncs(pool))
    g = data.draw(st.one_of(
        st.builds(lambda p, c: p.scale(c), st.sampled_from(pool), coeffs().filter(bool)),
        linear_forms(),
    ))
    symbols = sympy.symbols("x y z")
    theirs = to_sympy_ratfunc(f, symbols) * to_sympy(g, symbols)
    oracle = RatFunc.from_factored(f.numerator * g, expanded_factors(f))
    for ours in (f * g, g * f):
        assert canonical(ours) == canonical(oracle)
        assert_matches_sympy(ours, theirs, symbols)
