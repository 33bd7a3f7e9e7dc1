"""Lattice operators in two ratio variables and their closed-form solutions."""

import random
from fractions import Fraction
from math import comb, factorial

import pytest

from qcseries import flaggw, toda3
from qcseries.exactalg import MultiPoly, RatFunc
from qcseries.roots import RootSystem
from qcseries.toda3 import (
    LAMBDA_REGISTRY,
    TodaOperator,
    UV_REGISTRY,
    apply,
    batyrev_b,
    build_operators,
    char_poly,
    closed_a,
    closed_a_equivariant,
    closed_solution,
    verify_batyrev,
    verify_corollary_3_5,
    verify_operator_annihilation,
    verify_recursions_equivariant,
    verify_recursions_plain,
)

LREG = LAMBDA_REGISTRY


# -- characteristic polynomial ---------------------------------------------------------


def test_char_poly_matches_minor_expansion():
    reg = UV_REGISTRY
    u0, u1, u2 = (reg.var(f"u_{i}") for i in range(3))
    v1, v2 = reg.var("v_1"), reg.var("v_2")
    p1, p2, p3 = char_poly()
    assert p1 == u0 + u1 + u2
    assert p2 == u0 * u1 + u0 * u2 + u1 * u2 + v1 + v2
    assert p3 == u0 * u1 * u2 + u0 * v2 + u2 * v1


# -- building the two operators --------------------------------------------------------

GRID = ((0, 0), (1, 0), (0, 1), (2, 1), (1, 3), (3, 3))


def nonzero(image):
    return {k: c for k, c in image.items() if not c.is_zero}


def test_plain_operators_match_hand_expansion():
    d2, d3 = build_operators(equivariant=False)

    def c(x):
        return RatFunc.coerce(LREG, x)

    for i, j in GRID:
        assert d2.act_monomial((i, j)) == nonzero(
            {(i, j): c(-(i * i - i * j + j * j)), (i + 1, j): c(1), (i, j + 1): c(1)}
        )
        assert d3.act_monomial((i, j)) == nonzero(
            {(i, j): c(i * j * j - i * i * j), (i, j + 1): c(-i), (i + 1, j): c(j)}
        )


def test_trace_operator_check_is_exact(monkeypatch):
    p1, p2, p3 = char_poly()
    # an extra shift, and an extra u_0 whose plain weight -i vanishes at (0, 0)
    for extra in (UV_REGISTRY.var("v_1"), UV_REGISTRY.var("u_0")):
        monkeypatch.setattr(toda3, "char_poly", lambda: (p1 + extra, p2, p3))
        for equivariant in (True, False):
            with pytest.raises(AssertionError, match="trace operator"):
                build_operators(equivariant)


def test_sigma_is_read_off_the_continuant():
    # sigma_k is p_k at u = lambda, v = 0: e_k of the weights, for numbers
    # (the plain flavor's and others) and for lambda, h polynomials alike
    lam = tuple(LREG.var(f"lambda_{a}") for a in range(3))
    for weights in ((0, 0, 0, 1), (Fraction(1, 2), 3, -5, 7), lam + (LREG.var("h"),)):
        x0, x1, x2, _ = weights
        e = [x0 + x1 + x2, x0 * x1 + x0 * x2 + x1 * x2, x0 * x1 * x2]
        assert [TodaOperator(p, weights).sigma for p in char_poly()] == e
    d2, d3 = build_operators(equivariant=True)
    assert (d2.sigma, d3.sigma) == (e[1], e[2])


def test_equivariant_second_operator_monomial_action():
    d2, _ = build_operators(equivariant=True)
    l0, l1, l2, h = (RatFunc.from_poly(LREG.var(n)) for n in LREG.names)
    a1, a2 = l1 - l0, l2 - l1
    one = RatFunc.one(LREG)
    for i, j in ((1, 0), (0, 1), (2, 1), (3, 3)):
        image = d2.act_monomial((i, j))
        eigen = -(h * h * (i * i - i * j + j * j) + a1 * h * i + a2 * h * j)
        assert image == {(i, j): eigen, (i + 1, j): one, (i, j + 1): one}
    # at the origin only the shifts survive
    assert d2.act_monomial((0, 0)) == {(1, 0): one, (0, 1): one}


def test_equivariant_third_operator_monomial_action():
    _, d3 = build_operators(equivariant=True)
    l0, l1, l2, h = (RatFunc.from_poly(LREG.var(n)) for n in LREG.names)
    for i, j in GRID:
        e0, e1, e2 = l0 - h * i, l1 + h * (i - j), l2 + h * j
        assert d3.act_monomial((i, j)) == nonzero(
            {(i, j): e0 * e1 * e2 - l0 * l1 * l2, (i, j + 1): e0, (i + 1, j): e2}
        )


def test_equivariant_specializes_to_plain():
    # the equivariant images are lambda, h polynomials; at zero weights and
    # h = 1 they are the plain images, which are rationals
    flat = {"lambda_0": 0, "lambda_1": 0, "lambda_2": 0, "h": 1}
    eq_ops = build_operators(equivariant=True)
    plain_ops = build_operators(equivariant=False)
    for eq_op, plain_op in zip(eq_ops, plain_ops):
        for i, j in GRID:
            image = eq_op.act_monomial((i, j))
            assert all(isinstance(c, MultiPoly) for c in image.values())
            specialized = nonzero({k: c.substitute(flat) for k, c in image.items()})
            assert specialized == plain_op.act_monomial((i, j))


def test_plain_flavor_is_exact_over_q():
    series = closed_solution(12, equivariant=False)
    assert all(isinstance(c, (int, Fraction)) for c in series.values())
    for op in build_operators(equivariant=False):
        for beta in series:
            image = op.act_monomial(beta)
            assert all(isinstance(c, (int, Fraction)) for c in image.values())
        assert apply(op, series, 12) == {}


# -- closed-form coefficients ----------------------------------------------------------


def test_plain_coefficients_spot_values():
    assert closed_a(0, 0) == 1
    assert closed_a(1, 0) == 1
    assert closed_a(1, 1) == 2
    assert closed_a(2, 1) == Fraction(3, 4)
    assert closed_a(2, 2) == Fraction(3, 8)
    assert closed_a(-1, 2) == 0
    assert closed_a(4, 0) == Fraction(1, factorial(4) ** 2)


def test_binomial_sum_form_matches_closed():
    for i in range(7):
        for j in range(7):
            assert batyrev_b(i, j) == closed_a(i, j)
            assert sum(comb(i, r) * comb(j, r) for r in range(min(i, j) + 1)) == comb(
                i + j, i
            )
    assert batyrev_b(0, 3) == Fraction(1, 36)


def test_equivariant_coefficients_spot_values():
    reg = RootSystem.type_A(2).registry
    a1, a2, h = (reg.var(n) for n in reg.names)
    th = a1 + a2
    assert closed_a_equivariant(0, 0) == RatFunc.one(reg)
    assert closed_a_equivariant(1, 0) == RatFunc.from_factored(
        reg.one(), [h, h + a1]
    )
    # shared factors of the two highest-weight factorials cancel
    expected11 = RatFunc.from_factored(
        h.scale(2) + th, [h, h, h + a1, h + a2, h + th]
    )
    assert closed_a_equivariant(1, 1) == expected11
    assert closed_a_equivariant(-1, 0).is_zero
    # an input of the checks, built once per process
    assert closed_a_equivariant(2, 3) is closed_a_equivariant(2, 3)


def test_equivariant_specialization_to_plain_coefficients():
    flat = {"alpha_1": 0, "alpha_2": 0, "h": 1}
    for i in range(4):
        for j in range(4 - i):
            specialized = closed_a_equivariant(i, j).substitute(flat)
            assert specialized.const_value() == closed_a(i, j)


# -- series and truncation -------------------------------------------------------------


def test_apply_certifies_reduced_order():
    d2, _ = build_operators(equivariant=False)
    assert d2.max_shift == 1
    assert apply(d2, closed_solution(4, equivariant=False), 4) == {}
    # the shifts of the constant series land past order 1 - 1 = 0
    one = RatFunc.one(LREG)
    assert apply(d2, {(0, 0): one}, 2) == {(1, 0): one, (0, 1): one}
    assert apply(d2, {(0, 0): one}, 1) == {}
    with pytest.raises(ValueError):
        apply(d2, {(0, 0): one}, 0)


def test_apply_detects_wrong_coefficient():
    d2, _ = build_operators(equivariant=False)
    coeffs = closed_solution(3, equivariant=False)
    coeffs[(1, 1)] = RatFunc.coerce(LREG, 3)
    image = apply(d2, coeffs, 3)
    assert image
    assert (1, 1) in image


def test_operator_action_matches_recursion_on_random_series():
    rng = random.Random(7)
    coeffs = {
        (i, j): RatFunc.coerce(LREG, rng.randint(-5, 5))
        for i in range(4)
        for j in range(4 - i)
    }
    zero = RatFunc.zero(LREG)

    def a(i, j):
        return coeffs.get((i, j), zero)

    d2, _ = build_operators(equivariant=False)
    image = apply(d2, coeffs, 3)
    for idx in range(3):
        for jdx in range(3 - idx):
            direct = (
                a(idx - 1, jdx)
                + a(idx, jdx - 1)
                - a(idx, jdx) * (idx * idx - idx * jdx + jdx * jdx)
            )
            assert image.get((idx, jdx), zero) == direct


# -- verification reports --------------------------------------------------------------


def test_plain_recursions_hold():
    report = verify_recursions_plain(8)
    assert report.ok
    assert report.status == "pass"


def test_equivariant_recursions_hold():
    report = verify_recursions_equivariant(4)
    assert report.ok


def test_plain_recursions_fail_on_a_wrong_coefficient(monkeypatch):
    closed = toda3.closed_a
    monkeypatch.setattr(
        toda3, "closed_a", lambda i, j: closed(i, j) + (1 if (i, j) == (2, 1) else 0)
    )
    report = verify_recursions_plain(4)
    assert report.status == "fail"
    assert any(loc.startswith("i=2 j=1 ") for loc, _, _ in report.failures)


def test_equivariant_recursions_fail_on_a_wrong_coefficient(monkeypatch):
    coeff = toda3._lambda_coeff
    monkeypatch.setattr(
        toda3, "_lambda_coeff",
        lambda i, j: coeff(i, j) * (2 if (i, j) == (1, 1) else 1),
    )
    report = verify_recursions_equivariant(3)
    assert report.status == "fail"
    assert any(loc.startswith("i=1 j=1 ") for loc, _, _ in report.failures)


def test_operator_annihilation_both_modes():
    plain = verify_operator_annihilation(5, equivariant=False)
    assert plain.ok
    assert any("certified through order 4" in n for n in plain.notes)
    eq = verify_operator_annihilation(4, equivariant=True)
    assert eq.ok


def test_operator_annihilation_fails_on_a_negated_deformation(monkeypatch):
    # p_2 is linear in v_1, so this is p_2 with v_1 negated: the v_1 shift of
    # the second operator changes sign, and every entry of the image that
    # reads a(i - 1, j) fails, as does the control; d_3 is untouched
    p1, p2, p3 = char_poly()
    negated = p2 - UV_REGISTRY.var("v_1").scale(2)
    monkeypatch.setattr(toda3, "char_poly", lambda: (p1, negated, p3))
    for equivariant in (True, False):
        report = verify_operator_annihilation(3, equivariant)
        assert [loc for loc, _, _ in report.failures] == [
            "second i=1 j=0", "second i=1 j=1", "second i=2 j=0", "control (1,0)",
        ]


def test_batyrev_report():
    assert verify_batyrev(6).ok


def test_flag_bridge_small_box():
    report = verify_corollary_3_5(2)
    assert report.ok
    assert report.status == "pass"


def test_flag_bridge_fails_on_a_wrong_closed_coefficient(monkeypatch):
    # the solver side never reads closed_a_equivariant, so one wrong value
    # fails its own bidegree and no other
    closed = toda3.closed_a_equivariant
    monkeypatch.setattr(
        toda3, "closed_a_equivariant",
        lambda i, j: closed(i, j) * (2 if (i, j) == (1, 1) else 1),
    )
    report = verify_corollary_3_5(3)
    assert [loc for loc, _, _ in report.failures] == ["i=1 j=1"]


def test_flag_bridge_fails_on_a_wrong_solver_table(monkeypatch):
    # the identity terms that read the s_1 table are the alpha_1 steps;
    # doubling them corrupts every identity entry with i >= 1, each of which
    # takes such a step, and no entry with i = 0
    terms = flaggw._recursion_terms
    system = RootSystem.type_A(2)
    s1 = system.simple_reflections[0]

    def doubled(root_system, total_max, w, levi=()):
        ts = terms(root_system, total_max, w, levi)
        if w != system.identity:
            return ts
        return [(lw, step, 2 * weight if lw == s1 else weight, shift)
                for lw, step, weight, shift in ts]

    monkeypatch.setattr(flaggw, "_recursion_terms", doubled)
    report = verify_corollary_3_5(3)
    assert [loc for loc, _, _ in report.failures] == [
        "i=1 j=0", "i=1 j=1", "i=1 j=2", "i=2 j=0", "i=2 j=1", "i=3 j=0",
    ]


def specialize(coeffs, flat):
    return {ij: c.substitute(flat) for ij, c in coeffs.items()}


def test_closed_solution_specialization_tower():
    flat = {"lambda_0": 0, "lambda_1": 0, "lambda_2": 0, "h": 1}
    eq = closed_solution(3, equivariant=True)
    plain = closed_solution(3, equivariant=False)
    assert specialize(eq, flat) == plain


def test_apply_commutes_with_specialization():
    # specializing weights before or after acting gives the same series
    flat = {"lambda_0": 0, "lambda_1": 0, "lambda_2": 0, "h": 1}
    l0, l2 = LREG.var("lambda_0"), LREG.var("lambda_2")
    coeffs = {
        (i, j): RatFunc.from_poly(l0.scale(i) + l2 + LREG.const(j + 1))
        for i in range(3)
        for j in range(3 - i)
    }
    eq_ops = build_operators(equivariant=True)
    plain_ops = build_operators(equivariant=False)
    for eq_op, plain_op in zip(eq_ops, plain_ops):
        assert eq_op.max_shift == plain_op.max_shift
        left = specialize(apply(eq_op, coeffs, 2), flat)
        right = apply(plain_op, specialize(coeffs, flat), 2)
        assert nonzero(left) == right
