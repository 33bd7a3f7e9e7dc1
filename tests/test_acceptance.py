"""Acceptance gate: one test per top-level deliverable, exact equality only.

Each test covers one acceptance item and prints a single PASS line on
success; under `pytest -v` the test name itself is the per-item verdict.
Every comparison is exact (canonical rational functions or integers); there
are no tolerances anywhere.
"""

import random
from fractions import Fraction
from math import factorial

from qcseries import cli, flaggw, projgw, toda3
from qcseries.exactalg import (
    PoleError,
    RatFunc,
    VarRegistry,
    homogeneous_degree,
    partial_fractions,
    recombine,
    substitute,
)
from qcseries.flaggw import A2_THETA, coeff_C_id
from qcseries.roots import CartanMatrix, RootSystem


def _ok(report):
    assert report.status == "pass", report.render()


def test_01_projective_recursion_matches_closed_form():
    # two routes per dimension: the triangular solver and direct substitution
    for n, d_max in ((1, 5), (2, 5), (3, 3)):
        setup = projgw.ProjSetup(n)
        tables = projgw.solve_recursion(setup, d_max)
        assert len(tables) == n + 1
        for i, table in tables.items():
            for d in range(d_max + 1):
                assert table[d] == projgw.closed_b(setup, i, d)
        _ok(projgw.verify_theorem_3_3(setup, d_max, "direct"))
    print("PASS 01 projective solver equals closed form, recursion verified")


def test_02_rank_one_series_renders_exactly():
    setup = projgw.ProjSetup(1)
    table = projgw.solve_recursion(setup, 2)[0]
    target, bindings = setup.root_chart("part1")
    coeffs = [substitute(table[d], bindings, target) for d in range(3)]
    assert (
        cli.q_series_text(coeffs)
        == "1 + q/(alpha + h) + q^2/(2(alpha + h)(alpha + 2*h))"
    )
    print("PASS 02 rank-one series text is byte-exact")


def test_03_rank_one_coupling_spot_values():
    setup = projgw.ProjSetup(1)
    reg = setup.registry
    alpha = RatFunc.from_poly(setup.lam(0) - setup.lam(1))
    assert projgw.recursion_coeff(setup, 0, 1, 1) == RatFunc.one(reg)
    assert projgw.recursion_coeff(setup, 0, 1, 2) == RatFunc.one(reg) / alpha
    want3 = RatFunc.coerce(reg, Fraction(3, 4)) / alpha / alpha
    assert projgw.recursion_coeff(setup, 0, 1, 3) == want3
    print("PASS 03 coupling coefficients 1, 1/a, 3/(4a^2)")


def test_04_first_order_split():
    for n in (1, 2, 3):
        _ok(projgw.verify_first_order_split(projgw.ProjSetup(n)))
    print("PASS 04 first-order partial-fraction identity, n <= 3")


def test_05_degree_bookkeeping():
    for n in (1, 2, 3):
        setup = projgw.ProjSetup(n)
        for i in setup.points():
            for d in range(6):
                assert homogeneous_degree(projgw.closed_b(setup, i, d)) == -d * n
                assert (
                    homogeneous_degree(projgw.closed_B(setup, i, d)) == -d * n - d
                )
            for j in setup.points():
                if j == i:
                    continue
                for k in range(1, 6):
                    assert (
                        homogeneous_degree(projgw.recursion_coeff(setup, i, j, k))
                        == -k * n + 1
                    )
    print("PASS 05 homogeneity degrees -dn, -dn-d, -kn+1")


def test_06_euler_prefactor_identity():
    for n in (1, 2):
        setup = projgw.ProjSetup(n)
        for d in range(1, 4):
            for k in range(1, d + 1):
                for i in setup.points():
                    for j in setup.points():
                        if i != j:
                            _ok(projgw.euler_prefactor_identity(setup, i, j, k, d))
    print("PASS 06 euler prefactor identity, n <= 2, d <= 3")


def test_07_flag_coefficient_closed_forms():
    # simple roots across every rank <= 3 system against k^k/(k!)^2 a^(1-k)
    for cm in (
        CartanMatrix.type_A(1),
        CartanMatrix.type_A(2),
        CartanMatrix.type_A(3),
        CartanMatrix.type_B(2),
        CartanMatrix.type_B(3),
        CartanMatrix.type_G2(),
    ):
        system = RootSystem(cm)
        for alpha in system.simple_roots:
            for k in range(1, 5):
                form = system.root_form(alpha)
                want = RatFunc.from_factored(
                    system.registry.one(),
                    [form] * (k - 1),
                    scale=Fraction(factorial(k) ** 2, k**k),
                )
                assert coeff_C_id(system, alpha, k) == want
    # the rank-two long root against the independently assembled table value
    a2 = RootSystem(CartanMatrix.type_A(2))
    reg = a2.registry
    a, b = reg.var("alpha_1"), reg.var("alpha_2")
    for k in range(1, 4):
        dens = [a, b]
        for m in range(1, k):
            diff = a.scale(m) - b.scale(k - m)
            dens += [diff, diff]
        want = RatFunc.from_factored(
            -(a + b), dens, scale=Fraction(factorial(k) ** 2, k ** (2 * (k - 1)))
        )
        assert coeff_C_id(a2, A2_THETA, k) == want
    print("PASS 07 flag coefficients: simple roots k <= 4, long root k <= 3")


def test_08_rank_one_flag_equals_projective():
    _ok(flaggw.verify_a1_crosscheck(5))
    print("PASS 08 rank-one flag route equals projective route, d <= 5")


def test_09_rank_two_recursion_and_pole_cancellation():
    _ok(flaggw.verify_a2_theorem_3_2(4))
    for i, j in ((0, 1), (1, 1), (1, 2), (2, 2)):
        _ok(flaggw.verify_lemma_3_4(i, j))
    print("PASS 09 rank-two recursion through total degree 4")


def test_10_toda_plain_recursions_and_operators():
    _ok(toda3.verify_recursions_plain(8))
    _ok(toda3.verify_operator_annihilation(6, equivariant=False))
    # negative control: the second operator moves the constant series
    d2, _ = toda3.build_operators(equivariant=False)
    reg = toda3.LAMBDA_REGISTRY
    moved = toda3.apply(d2, {(0, 0): RatFunc.one(reg)}, 2)
    assert moved == {(1, 0): RatFunc.one(reg), (0, 1): RatFunc.one(reg)}
    print("PASS 10 plain recursions i+j <= 8, annihilation order 6, control")


def test_11_binomial_table_equivalence():
    _ok(toda3.verify_batyrev(6))
    print("PASS 11 binomial-sum table equals closed table, i,j <= 6")


def test_12_toda_equivariant_recursions_and_specialization():
    _ok(toda3.verify_recursions_equivariant(5))
    _ok(toda3.verify_operator_annihilation(5, equivariant=True))
    flat = {"lambda_0": 0, "lambda_1": 0, "lambda_2": 0, "h": 1}
    eq = toda3.closed_solution(5, equivariant=True)
    plain = toda3.closed_solution(5, equivariant=False)
    assert {ij: c.substitute(flat) for ij, c in eq.items()} == plain
    print("PASS 12 equivariant recursions i+j <= 5, annihilation, specialization")


def test_13_flag_solver_matches_equivariant_closed_form():
    _ok(toda3.verify_corollary_3_5(4))
    print("PASS 13 flag solver equals operator-certified closed form, total 4")


def test_14_library_property_battery():
    rng = random.Random(20260817)
    reg = VarRegistry(["x", "y", "h"])
    x, y, h = reg.var("x"), reg.var("y"), reg.var("h")

    def poly():
        acc = reg.const(rng.randint(-3, 3))
        for _ in range(rng.randint(1, 3)):
            term = reg.const(rng.randint(-4, 4))
            for nm in ("x", "y", "h"):
                term = term * reg.var(nm) ** rng.randint(0, 2)
            acc = acc + term
        return acc

    def linear():
        # every denominator factor is linear
        while True:
            p = reg.linear({nm: rng.randint(-3, 3) for nm in ("x", "y", "h")}) + rng.randint(-3, 3)
            if not p.is_zero:
                return p

    def ratfunc():
        dens = [linear() for _ in range(rng.randint(0, 2))]
        return RatFunc.from_factored(poly(), dens)

    def divisor():
        # a divisor's numerator becomes a denominator, so it is linear too
        dens = [linear() for _ in range(rng.randint(0, 2))]
        return RatFunc.from_factored(linear(), dens)

    zero, one = RatFunc.zero(reg), RatFunc.one(reg)
    for _ in range(25):
        f, g, k, q = ratfunc(), ratfunc(), ratfunc(), divisor()
        assert (f + g) + k == f + (g + k)
        assert f + g == g + f
        assert f * g == g * f
        assert (f * g) * k == f * (g * k)
        assert f * (g + k) == f * g + f * k
        assert f + zero == f and f * one == f
        assert f - f == zero
        if not q.is_zero:
            assert (f / q) * q == f
            assert q / q == one

    # partial fractions recombine to the original function
    for _ in range(10):
        shifts = rng.sample(range(-6, 7), rng.randint(2, 4))
        factors = [h + x.scale(c) for c in shifts]
        num = reg.zero()
        for t in range(len(factors)):
            num = num + (x ** rng.randint(0, 2)).scale(rng.randint(-3, 3)) * h**t
        decomp = partial_fractions(
            RatFunc.from_factored(num, factors, scale=Fraction(1, 3)), "h", factors
        )
        target = RatFunc.from_poly(num) * 3
        for f in factors:
            target = target / RatFunc.from_poly(f)
        assert recombine(decomp, reg) == target

    # substitution is a ring map wherever it is defined
    target = VarRegistry(["s", "t"])
    s, t = target.var("s"), target.var("t")
    bindings = {"x": s + t, "y": s - t, "h": t.scale(2)}
    mapped = 0
    for _ in range(12):
        f, g = ratfunc(), ratfunc()
        try:
            prod_img = substitute(f * g, bindings, target)
            sum_img = substitute(f + g, bindings, target)
            f_img = substitute(f, bindings, target)
            g_img = substitute(g, bindings, target)
        except PoleError:
            continue
        assert prod_img == f_img * g_img
        assert sum_img == f_img + g_img
        mapped += 1
    assert mapped >= 5

    # reflection involution, composition, and inversion-set length
    for cm in (CartanMatrix.type_A(2), CartanMatrix.type_A(3)):
        system = RootSystem(cm)
        areg = system.registry
        sample = RatFunc.from_factored(
            areg.var("alpha_1") + areg.var("h"),
            [areg.var(f"alpha_{i + 1}") for i in range(len(cm))],
        )
        for refl in system.simple_reflections:
            assert (refl * refl).is_identity
        for w in system.weyl_elements:
            assert len(w.inversion_set()) == w.length()
            assert (w * w.inverse()).is_identity
            for refl in system.simple_reflections:
                composed = system.act_on_ratfunc(w * refl, sample)
                stepped = system.act_on_ratfunc(w, system.act_on_ratfunc(refl, sample))
                assert composed == stepped
            back = system.act_on_ratfunc(
                w.inverse(), system.act_on_ratfunc(w, sample)
            )
            assert back == sample
    print("PASS 14 ring/field, partial-fraction, substitution, reflection laws")
