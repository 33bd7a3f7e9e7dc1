"""Core exact-arithmetic tests: frozen examples plus algebraic property suites."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcseries.exactalg import (
    LinearFactorization,
    MultiPoly,
    PoleError,
    RatFunc,
    VarRegistry,
    homogeneous_degree,
    parse_text,
    partial_fractions,
    recombine,
    shifted_factorial,
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


def test_divide_exact_roundtrip_and_failure():
    p = (H + ALPHA) ** 3 * (2 * H + ALPHA)
    q = p.divide_exact(H + ALPHA)
    assert q == (H + ALPHA) ** 2 * (2 * H + ALPHA)
    assert p.divide_exact(H - ALPHA) is None


# -- rational functions ------------------------------------------------------


def test_sum_of_reciprocal_linear_forms():
    # 1/(alpha + h) + 1/(-alpha + h) == 2h/(h^2 - alpha^2)
    got = rf(1) / rf(ALPHA + H) + rf(1) / rf(H - ALPHA)
    want = rf(2 * H) / rf(H**2 - ALPHA**2)
    assert got == want


def test_denominator_is_expanded_primitive_positive_lead():
    f = rf(1) / rf(ALPHA + H) / rf(ALPHA + 2 * H) / 2
    assert f.denominator == ALPHA**2 + 3 * ALPHA * H + 2 * H**2
    assert f.numerator == REG.const(Fraction(1, 2))
    assert f.text() == "1/(2(alpha + h)(alpha + 2*h))"
    # dividing by an already-expanded product keeps one opaque factor
    g = rf(1) / (rf(ALPHA + H) * rf(ALPHA + 2 * H) * 2)
    assert g == f
    assert g.text() == "1/(2(alpha^2 + 3*alpha*h + 2*h^2))"
    assert (rf(H) / rf(ALPHA + H)).text() == "h/(alpha + h)"
    assert (rf(1) / (rf(H) ** 2 * 2)).text() == "1/(2h^2)"


def test_cancellation_by_trial_division():
    f = rf((H + ALPHA) ** 2 * (2 * H + ALPHA)) / rf(H + ALPHA) / rf(H - ALPHA)
    assert f == rf((H + ALPHA) * (2 * H + ALPHA)) / rf(H - ALPHA)
    # the factored form actually cancelled, not just compared equal
    assert f.denominator == ALPHA - H  # primitive, positive grlex lead
    # dividing by an expanded product keeps one opaque factor but the same value
    g = rf((H + ALPHA) ** 2 * (2 * H + ALPHA)) / rf((H + ALPHA) * (H - ALPHA))
    assert g == f


def test_division_by_zero_ratfunc():
    with pytest.raises(ZeroDivisionError):
        rf(1) / RatFunc.zero(REG)
    with pytest.raises(ZeroDivisionError):
        RatFunc.from_num_den(REG.one(), REG.zero())


def test_substitute_simple_and_pole():
    # f = 1/(alpha + h), h -> -alpha/2 gives 2/alpha
    f = rf(1) / rf(ALPHA + H)
    got = f.substitute({"h": rf(-ALPHA) / 2})
    assert got == rf(2) / rf(ALPHA)
    with pytest.raises(PoleError):
        (rf(1) / rf(H)).substitute({"h": 0})
    # polynomial substitution stays exact: p -> value
    assert substitute(H, {"h": rf(ALPHA) ** 2}) == rf(ALPHA) ** 2


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
    f = rf(2 * H) / rf(H**2 - ALPHA**2)
    assert homogeneous_degree(f) == -1
    assert homogeneous_degree(rf(H + ALPHA**2)) is None
    assert homogeneous_degree(RatFunc.zero(REG)) == 0
    assert homogeneous_degree(f, {"alpha": 2, "h": 2}) == -2


def test_shifted_factorial():
    assert shifted_factorial(REG, 0, ALPHA, H) == REG.one()
    assert shifted_factorial(REG, 2, ALPHA, H) == (H + ALPHA) * (2 * H + ALPHA)


# -- partial fractions --------------------------------------------------------


def test_partial_fractions_two_factors():
    # 1/((h+alpha)(2h+alpha)) = (-1/alpha)/(h+alpha) + (2/alpha)/(2h+alpha)
    fz = LinearFactorization("h", [H + ALPHA, 2 * H + ALPHA], RatFunc.one(REG))
    decomp = partial_fractions(RatFunc.one(REG), fz, REG.one())
    assert len(decomp) == 2
    r1, f1 = decomp[0]
    r2, f2 = decomp[1]
    assert f1 == H + ALPHA and r1 == rf(-1) / rf(ALPHA)
    assert f2 == 2 * H + ALPHA and r2 == rf(2) / rf(ALPHA)
    assert recombine(decomp, REG) == rf(1) / (rf(H + ALPHA) * rf(2 * H + ALPHA))


def test_partial_fractions_preconditions():
    with pytest.raises(ValueError):
        LinearFactorization("h", [H + ALPHA, 2 * H + 2 * ALPHA], RatFunc.one(REG))  # same root
    fz = LinearFactorization("h", [H + ALPHA, 2 * H + ALPHA], RatFunc.one(REG))
    with pytest.raises(ValueError):
        partial_fractions(RatFunc.one(REG), fz, H**2)  # numerator degree too big
    with pytest.raises(ValueError):
        LinearFactorization("h", [ALPHA + REG.one()], RatFunc.one(REG))  # no h at all
    with pytest.raises(ValueError):
        LinearFactorization("h", [ALPHA * H + ALPHA], RatFunc.one(REG))  # non-constant lead
    with pytest.raises(ValueError):
        partial_fractions(rf(H), fz, REG.one())  # scale involves h


def test_factorization_expand_reconstructs():
    fz = LinearFactorization("h", [H + ALPHA, 2 * H + ALPHA], rf(3 * ALPHA))
    assert fz.expand() == rf(3 * ALPHA * (H + ALPHA) * (2 * H + ALPHA))


# -- canonical text round trip --------------------------------------------------


def test_text_parse_roundtrip():
    cases = [
        rf(1) / rf(ALPHA + H),
        rf(1) / (rf(ALPHA + H) * rf(ALPHA + 2 * H) * 2),
        rf(2 * H) / rf(H**2 - ALPHA**2),
        rf(-ALPHA) / 3,
        RatFunc.zero(REG),
        rf(ALPHA**2 - Fraction(1, 2) * H),
    ]
    for f in cases:
        assert parse_text(REG, f.text()) == f


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


def ratfuncs():
    return st.builds(
        lambda n, d: RatFunc.from_num_den(n, d), polys(), nonzero_polys()
    )


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
@given(ratfuncs(), ratfuncs(), ratfuncs())
def test_ratfunc_field_axioms(a, b, c):
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a - a == RatFunc.zero(PREG)
    if not a.is_zero:
        assert a * a.reciprocal() == RatFunc.one(PREG)
        assert (b / a) * a == b


@settings(max_examples=40, deadline=None)
@given(ratfuncs(), ratfuncs(), st.integers(-4, 4), st.integers(-4, 4))
def test_substitution_is_a_homomorphism(a, b, xv, yv):
    bindings = {"x": RatFunc.from_scalar(PREG, xv), "y": RatFunc.from_scalar(PREG, yv)}
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
    fz = LinearFactorization("h", factors, RatFunc.one(reg))
    decomp = partial_fractions(RatFunc.from_scalar(reg, Fraction(1, 3)), fz, numerator)
    target = RatFunc.from_poly(numerator) / fz.expand() / Fraction(1, 3)
    assert recombine(decomp, reg) == target


# -- trial-division screen and the integer division path -------------------------


def linear_forms():
    return st.tuples(
        st.integers(-4, 4), st.integers(-4, 4), st.integers(-4, 4), st.integers(-6, 6)
    ).map(lambda t: PREG.linear({"x": t[0], "y": t[1], "z": t[2]}, t[3])).filter(
        lambda f: not f.is_const
    )


def quadratic_forms():
    quad = st.dictionaries(
        st.sampled_from([(2, 0, 0), (1, 1, 0), (0, 2, 0), (1, 0, 1), (0, 1, 1), (0, 0, 2)]),
        st.integers(-3, 3).filter(bool), min_size=1, max_size=3,
    )
    return st.tuples(quad, linear_forms()).map(
        lambda t: MultiPoly(PREG, t[0]) + t[1]
    )


def int_polys():
    return st.dictionaries(monos(maxdeg=2), st.integers(-9, 9), min_size=1, max_size=5).map(
        lambda d: PREG.zero() + MultiPoly(PREG, d)
    ).filter(lambda p: not p.is_zero)


@settings(max_examples=80, deadline=None)
@given(st.one_of(linear_forms(), quadratic_forms()), st.one_of(int_polys(), nonzero_polys()),
       st.integers(1, 3))
def test_true_factor_always_cancels(f, q, k):
    # the screen may only reject: k copies of f in the numerator must all
    # cancel against k + 1 in the denominator, leaving exactly q/f
    f = f.primitive()[1]
    if q.divide_exact(f) is not None:
        return
    got = RatFunc.from_factored(f**k * q, [f] * (k + 1))
    assert got.factors == ((f, 1),)
    assert got.numerator == q


def to_sympy(p, symbols):
    import sympy

    total = sympy.Integer(0)
    for mono, c in p.terms.items():
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
