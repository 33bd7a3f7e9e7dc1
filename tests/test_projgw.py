"""Projective-space series: Euler classes, closed forms, recursion."""

from fractions import Fraction

import pytest

from qcseries import flaggw, projgw
from qcseries.exactalg import RatFunc, homogeneous_degree, substitute
from qcseries.projgw import (
    ProjSetup,
    closed_B,
    closed_b,
    euler_e,
    euler_prefactor_identity,
    recursion_coeff,
    solve_recursion,
    verify_first_order_split,
    verify_solver,
    verify_theorem_3_3,
)
from qcseries.roots import CartanMatrix, RootSystem

P1 = ProjSetup(1)
P2 = ProjSetup(2)


def euler_rf(setup, i):
    return RatFunc.from_poly(euler_e(setup, i))


def over_euler(setup, i, value):
    # value / e_i, over the linear factors lambda_i - lambda_b of e_i
    factors = [setup.lam(i) - setup.lam(b) for b in setup.points() if b != i]
    return value * RatFunc.from_factored(setup.registry.one(), factors)


def point_class_at(setup, i, j):
    # the point class of i is prod_{b != i} (u - lambda_b); its value at the
    # fixed point j is that product at u = lambda_j
    value = setup.registry.one()
    for b in setup.points():
        if b != i:
            value = value * (setup.lam(j) - setup.lam(b))
    return RatFunc.from_poly(value)


def localize(setup, values):
    # fixed-point formula: the integral of a class is sum_i value_i / e_i
    acc = RatFunc.zero(setup.registry)
    for i in setup.points():
        acc = acc + over_euler(setup, i, values[i])
    return acc


# -- Euler classes -------------------------------------------------------------------


def test_phi_and_euler_basics():
    assert euler_e(P1, 0) == P1.lam(0) - P1.lam(1)
    assert euler_e(P2, 1) == (P2.lam(1) - P2.lam(0)) * (P2.lam(1) - P2.lam(2))
    assert euler_e(ProjSetup(0), 0) == ProjSetup(0).registry.one()


def test_phi_vanishes_off_its_point():
    for setup in (P1, P2):
        for i in setup.points():
            for j in setup.points():
                expected = euler_rf(setup, i) if j == i else RatFunc.zero(setup.registry)
                assert point_class_at(setup, i, j) == expected


def test_integrate_point_classes_and_constants():
    for setup in (P1, P2):
        for i in setup.points():
            values = [point_class_at(setup, i, j) for j in setup.points()]
            assert localize(setup, values) == RatFunc.one(setup.registry)
        # constants have no top-degree part
        assert localize(setup, [RatFunc.one(setup.registry)] * (setup.n + 1)).is_zero
    p0 = ProjSetup(0)
    assert localize(p0, [RatFunc.one(p0.registry)]) == RatFunc.one(p0.registry)


def test_integrate_top_power_is_one():
    # sum of lambda_i^n over Euler classes collapses to 1
    for setup in (P1, P2, ProjSetup(3)):
        values = [RatFunc.from_poly(setup.lam(i)) ** setup.n for i in setup.points()]
        assert localize(setup, values) == RatFunc.one(setup.registry)


def test_pairing_diagonalizes_point_classes():
    for setup in (P1, P2):
        for i in setup.points():
            for j in setup.points():
                values = [
                    point_class_at(setup, i, m) * point_class_at(setup, j, m)
                    for m in setup.points()
                ]
                got = localize(setup, values)
                if i == j:
                    assert got == euler_rf(setup, i)
                else:
                    assert got.is_zero


# -- closed forms --------------------------------------------------------------------


def test_closed_b_low_degrees():
    reg = P1.registry
    a = P1.lam(0) - P1.lam(1)
    h = P1.h
    assert closed_b(P1, 0, 0) == RatFunc.one(reg)
    assert closed_b(P1, 0, 1) == RatFunc.from_factored(reg.one(), [a + h])
    assert closed_b(P1, 0, 2) == RatFunc.from_factored(
        reg.one(), [a + h, a + h.scale(2)], scale=2
    )
    assert closed_b(P2, 0, 1) == RatFunc.from_factored(
        P2.registry.one(),
        [P2.lam(0) - P2.lam(1) + P2.h, P2.lam(0) - P2.lam(2) + P2.h],
    )


def test_closed_b_canonical_text():
    # lambda_0 = 0, so lambda_1 stands for lambda_1 - lambda_0; the texts in
    # lambda_0..lambda_n are pinned through `series proj` in test_cli
    assert closed_b(P1, 0, 1).text() == "-1/(lambda_1 - h)"
    assert closed_b(P1, 0, 2).text() == "1/(2(lambda_1 - 2*h)(lambda_1 - h))"


def test_closed_B_and_normalized_scalings():
    for setup, i, d in ((P1, 0, 2), (P2, 1, 3)):
        h = RatFunc.from_poly(setup.h)
        assert closed_B(setup, i, d) * h**d == closed_b(setup, i, d)
        # dividing by the Euler class lowers the degree by the dimension
        normalized = over_euler(setup, i, closed_B(setup, i, d))
        assert homogeneous_degree(normalized) == -d * setup.n - d - setup.n


def test_normalized_coeff_first_degree():
    a = P1.lam(0) - P1.lam(1)
    want = RatFunc.from_factored(P1.registry.one(), [a, a + P1.h, P1.h])
    assert closed_B(P1, 0, 1) / euler_rf(P1, 0) == want


def test_recursion_coeff_rank_one_values():
    reg = P1.registry
    a = P1.lam(0) - P1.lam(1)
    assert recursion_coeff(P1, 0, 1, 1) == RatFunc.one(reg)
    assert recursion_coeff(P1, 0, 1, 2) == RatFunc.from_factored(reg.one(), [a])
    assert recursion_coeff(P1, 0, 1, 3) == RatFunc.from_factored(
        reg.one(), [a, a], scale=Fraction(4, 3)
    )
    # swapping the endpoints flips the sign of the weight
    b = P1.lam(1) - P1.lam(0)
    assert recursion_coeff(P1, 1, 0, 2) == RatFunc.from_factored(reg.one(), [b])


def test_recursion_coeff_simple_cover():
    # k=1 couples through the complementary fixed points only
    got = recursion_coeff(P2, 0, 1, 1)
    want = RatFunc.from_factored(P2.registry.one(), [P2.lam(1) - P2.lam(2)])
    assert got == want
    got = recursion_coeff(P2, 2, 0, 1)
    want = RatFunc.from_factored(P2.registry.one(), [P2.lam(0) - P2.lam(1)])
    assert got == want


def test_recursion_coeff_rejects_equal_points():
    with pytest.raises(ValueError):
        recursion_coeff(P1, 0, 0, 1)


# -- degree bookkeeping --------------------------------------------------------------


def test_homogeneity_degrees():
    for setup in (P1, P2):
        n = setup.n
        for i in setup.points():
            for d in range(1, 4):
                assert homogeneous_degree(closed_b(setup, i, d)) == -d * n
                assert homogeneous_degree(closed_B(setup, i, d)) == -d * n - d
            for j in setup.points():
                if j == i:
                    continue
                for k in range(1, 4):
                    assert homogeneous_degree(recursion_coeff(setup, i, j, k)) == -k * n + 1


# -- recursion solver ----------------------------------------------------------------


def test_solver_matches_closed_forms():
    for setup, dmax in ((P1, 4), (P2, 3)):
        tables = solve_recursion(setup, dmax)
        assert list(tables) == list(setup.points())
        for i, table in tables.items():
            for d in range(dmax + 1):
                assert table[d] == closed_b(setup, i, d)


def test_every_table_is_the_swap_image_of_table_0():
    # the solver reads point i's table as the image of point 0's under the
    # swap w_i = (0 i); the reference route solves all n+1 tables, each
    # from Part I's own terms
    for setup, dmax in ((P1, 6), (P2, 5), (ProjSetup(3), 4), (ProjSetup(4), 2)):
        got = solve_recursion(setup, dmax)
        terms = projgw._recursion_terms(setup, dmax).items()
        want = flaggw.solve_tables(setup.registry, terms, [(d,) for d in range(dmax + 1)])
        assert list(got) == list(want)
        for i in setup.points():
            assert list(got[i]) == list(range(dmax + 1))
            for d in range(dmax + 1):
                assert got[i][d] == want[i][(d,)], (setup.n, i, d)
                assert got[i][d].text() == want[i][(d,)].text(), (setup.n, i, d)


def theta_reflection_times(monkeypatch, simple):
    # on A2, the reflection in theta = alpha_1 + alpha_2 (P^2's w_2, and the
    # s_theta its theta terms read) becomes s_theta times a simple reflection
    reflect = RootSystem.reflection

    def patched(system, alpha):
        w = reflect(system, alpha)
        return w * reflect(system, simple) if system.rank == 2 and alpha == (1, 1) else w

    monkeypatch.setattr(RootSystem, "reflection", patched)


def test_any_weyl_representative_of_a_point_reads_its_table(monkeypatch):
    # s_2 lies in P^2's Levi and fixes the base table, so s_theta and
    # s_theta s_2, which both carry point 0 to point 2, read the same tables
    want = solve_recursion(P2, 3)
    theta_reflection_times(monkeypatch, (0, 1))
    assert solve_recursion(P2, 3) == want
    assert verify_solver(P2, 3).ok


def test_root_charts_of_the_weights():
    # mu_a = lambda_a - lambda_0 is minus (part1) or plus (part3) the sum of
    # the first a roots; dimension 0 has no roots
    target, bindings = ProjSetup(2).root_chart("part1")
    a1, a2 = target.var("alpha_1"), target.var("alpha_2")
    assert target.names == ("alpha_1", "alpha_2", "h")
    assert bindings == {"lambda_1": -a1, "lambda_2": -a1 - a2}
    target, bindings = ProjSetup(1).root_chart("part3")
    assert bindings == {"lambda_1": target.var("alpha")}
    for n, part in ((0, "part1"), (1, "part2")):
        with pytest.raises(ValueError):
            ProjSetup(n).root_chart(part)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_root_chart_inverts_the_lambda_chart(n):
    # the weights' lambda chart followed by the root chart sends each root to
    # itself in part1 and to its negative in part3, in the printed names
    setup = ProjSetup(n)
    chart = RootSystem(CartanMatrix.type_A(n)).lambda_chart([setup.lam(a) for a in setup.points()])
    for part, sign in (("part1", 1), ("part3", -1)):
        target, bindings = setup.root_chart(part)
        names = target.names[:-1]
        assert [substitute(chart[f"alpha_{a}"], bindings, target) for a in range(1, n + 1)] == [
            target.var(name).scale(sign) for name in names
        ]


@pytest.mark.parametrize("n, d_max", [(2, 3), (3, 2)])
def test_part3_tables_are_the_part1_tables_at_negated_roots(n, d_max):
    # no golden pins a chart at n >= 2, nor part3 at any n
    setup = ProjSetup(n)
    target, part1 = setup.root_chart("part1")
    _, part3 = setup.root_chart("part3")
    negate = {name: -target.var(name) for name in target.names[:-1]}
    for i, table in solve_recursion(setup, d_max).items():
        for d, value in table.items():
            assert substitute(value, part3, target) == substitute(
                substitute(value, part1, target), negate), (i, d)


def test_solver_sums_one_recursion_per_degree(monkeypatch):
    # only point 0's table is solved: one recursion sum per degree, where
    # solving all n+1 tables takes n+1
    calls = []
    summed = flaggw.recursion_sum

    def counted(*args):
        calls.append(args[2])
        return summed(*args)

    monkeypatch.setattr(flaggw, "recursion_sum", counted)
    solve_recursion(ProjSetup(3), 3)
    assert calls == [(1,), (2,), (3,)]


def test_solver_tables_ascend_in_degree():
    # the tables' readers iterate them as returned
    for n in range(4):
        for table in solve_recursion(ProjSetup(n), 3).values():
            assert list(table) == list(range(4))


def test_solver_dimension_zero_is_exponential():
    p0 = ProjSetup(0)
    tables = solve_recursion(p0, 3)
    assert list(tables) == [0]
    table = tables[0]
    for d in range(4):
        assert table[d] == closed_B(p0, 0, d)
    h = RatFunc.from_poly(p0.h)
    assert table[2] == RatFunc.one(p0.registry) / (h**2 * 2)
    assert table[3] == RatFunc.one(p0.registry) / (h**3 * 6)


def test_table_form_conversions():
    # a solver table in the b form becomes the B form on dividing by h^d
    h = RatFunc.from_poly(P1.h)
    for i, table in solve_recursion(P1, 2).items():
        assert table[2] / h**2 == closed_B(P1, i, 2)


# -- verification reports ------------------------------------------------------------


def test_verify_recursion_direct_and_residue():
    for method in ("direct", "residue"):
        rep = verify_theorem_3_3(P1, 3, method=method)
        assert rep.ok and rep.status == "pass"
    rep = verify_theorem_3_3(P2, 2, method="residue")
    assert rep.ok


def warm_both_routes(setup, d_max):
    # closed_b and recursion_coeff are memoized: a perturbation installed
    # after both routes have filled the caches must still reach every caller
    for method in ("direct", "residue"):
        assert verify_theorem_3_3(setup, d_max, method).ok


def test_closed_forms_and_couplings_are_built_once():
    # ProjSetup hashes by its dimension, so a fresh setup finds the entry
    assert closed_b(ProjSetup(2), 1, 3) is closed_b(ProjSetup(2), 1, 3)
    assert recursion_coeff(ProjSetup(2), 0, 2, 2) is recursion_coeff(ProjSetup(2), 0, 2, 2)
    assert ProjSetup(2) == P2 and hash(ProjSetup(2)) == hash(P2)
    assert ProjSetup(1) != P2


def test_verify_recursion_direct_fails_on_a_wrong_lower_coefficient(monkeypatch):
    # the direct check reads its lower degrees from closed_b, so one wrong
    # lower value must surface at the degree that reads it
    warm_both_routes(ProjSetup(1), 2)
    closed = projgw.closed_b

    def doubled_at_1_1(setup, i, d):
        value = closed(setup, i, d)
        return value * 2 if (i, d) == (1, 1) else value

    monkeypatch.setattr(projgw, "closed_b", doubled_at_1_1)
    rep = verify_theorem_3_3(ProjSetup(1), 2, "direct")
    assert rep.status == "fail"
    assert "i=0 d=2" in [loc for loc, _, _ in rep.failures]


def doubled_coupling_at_0_1_1(monkeypatch):
    coupling = projgw.recursion_coeff

    def doubled_at_0_1_1(setup, i, j, k):
        value = coupling(setup, i, j, k)
        return value * 2 if (i, j, k) == (0, 1, 1) else value

    monkeypatch.setattr(projgw, "recursion_coeff", doubled_at_0_1_1)


def test_verify_recursion_residue_fails_on_a_wrong_coupling(monkeypatch):
    # the residue route predicts each residue from recursion_coeff, so one
    # wrong coupling must surface at every pole that reads it
    warm_both_routes(ProjSetup(1), 2)
    doubled_coupling_at_0_1_1(monkeypatch)
    rep = verify_theorem_3_3(ProjSetup(1), 2, "residue")
    assert [loc for loc, _, _ in rep.failures] == [
        "i=0 d=1 pole j=1 k=1", "i=0 d=2 pole j=1 k=1",
    ]


def test_verify_solver_rejects_dimension_zero():
    # the n = 0 table is in the B normalization and closed_b is in the b
    # one, so a comparison there would report a false failure at d = 1
    with pytest.raises(ValueError, match="n >= 1"):
        verify_solver(ProjSetup(0), 2)

def test_verify_solver_fails_on_a_wrong_coupling(monkeypatch):
    # the solver's coupling between points 0 and 1 is the root coefficient
    # at alpha_1; doubled at k = 1, it enters table 0 at every degree from
    # d = 1, and table 1 is the image of table 0, so it fails at the same
    # degrees
    assert verify_solver(P1, 2).ok
    coeff = flaggw.coeff_C_id

    def doubled_at_alpha_1_k_1(system, alpha, k, levi=()):
        value = coeff(system, alpha, k, levi)
        return value * 2 if (alpha, k) == ((1,), 1) else value

    monkeypatch.setattr(flaggw, "coeff_C_id", doubled_at_alpha_1_k_1)
    rep = verify_solver(P1, 2)
    assert [loc for loc, _, _ in rep.failures] == [
        "i=0 d=1", "i=0 d=2", "i=1 d=1", "i=1 d=2",
    ]


def test_a_wrong_coupling_at_point_1_reaches_the_routes_that_read_it(monkeypatch):
    # the solver reads no recursion_coeff, so the (1, 0, 1) coupling does
    # not reach it; the direct and residue routes read every point's
    # couplings and still catch it
    warm_both_routes(P1, 2)
    coupling = projgw.recursion_coeff

    def doubled_at_1_0_1(setup, i, j, k):
        value = coupling(setup, i, j, k)
        return value * 2 if (i, j, k) == (1, 0, 1) else value

    monkeypatch.setattr(projgw, "recursion_coeff", doubled_at_1_0_1)
    assert verify_solver(P1, 2).ok
    rep = verify_theorem_3_3(P1, 2, "direct")
    assert [loc for loc, _, _ in rep.failures] == ["i=1 d=1", "i=1 d=2"]
    rep = verify_theorem_3_3(P1, 2, "residue")
    assert [loc for loc, _, _ in rep.failures] == [
        "i=1 d=1 pole j=0 k=1", "i=1 d=2 pole j=0 k=1",
    ]


def test_verify_solver_fails_on_a_wrong_weyl_representative(monkeypatch):
    # s_theta s_1 carries point 0 to point 1, not 2: P^1 has no theta and
    # is right; on P^2 table 2 is read as a wrong image from d = 1, and the
    # theta terms of table 0 read a wrong table from d = 2
    theta_reflection_times(monkeypatch, (1, 0))
    assert verify_solver(P1, 2).ok
    rep = verify_solver(P2, 2)
    assert [loc for loc, _, _ in rep.failures] == [
        "i=0 d=2", "i=1 d=2", "i=2 d=1", "i=2 d=2",
    ]


def unread(*args):
    raise AssertionError("a route read the other route's coupling")


def test_the_solver_reads_no_projective_coupling(monkeypatch):
    monkeypatch.setattr(projgw, "recursion_coeff", unread)
    with pytest.raises(AssertionError):
        verify_theorem_3_3(P1, 1, "residue")
    for n in (1, 2, 3):
        assert verify_solver(ProjSetup(n), 3).ok


def test_the_recursion_routes_read_no_root_coupling(monkeypatch):
    monkeypatch.setattr(flaggw, "coeff_C_id", unread)
    with pytest.raises(AssertionError):
        solve_recursion(P1, 1)
    for n in range(4):
        for method in ("direct", "residue"):
            assert verify_theorem_3_3(ProjSetup(n), 2, method).ok, (n, method)


def test_direct_route_fails_on_a_doubled_shift(monkeypatch):
    # a term reads point j's table at h -> (lambda_j - lambda_i)/k; at degree
    # 1 it reads only closed_b(j, 0) = 1, which no shift moves, so exactly
    # the degrees from 2 up fail, at every point
    terms = projgw._recursion_terms

    def doubled(setup, k_max):
        return {i: [(j, step, weight, {"h": shift["h"].scale(2)})
                    for j, step, weight, shift in ts]
                for i, ts in terms(setup, k_max).items()}

    monkeypatch.setattr(projgw, "_recursion_terms", doubled)
    for n in (1, 2):
        rep = verify_theorem_3_3(ProjSetup(n), 3, "direct")
        assert [loc for loc, _, _ in rep.failures] == [
            f"i={i} d={d}" for i in range(n + 1) for d in (2, 3)
        ]


def test_euler_prefactor_fails_on_a_wrong_coupling(monkeypatch):
    # the identity's right side is recursion_coeff(0, 1, 1); the two slices
    # are built from the cover characters alone and must still hold
    doubled_coupling_at_0_1_1(monkeypatch)
    for d in (1, 2):
        rep = euler_prefactor_identity(P1, 0, 1, 1, d)
        assert [loc for loc, _, _ in rep.failures] == ["identity"]


def test_first_order_split_fails_on_a_wrong_residue(monkeypatch):
    # the first residue split off is doubled; its pole check and the
    # recombined value must both fail, and nothing else
    split = projgw.partial_fractions
    calls = []

    def first_residue_doubled(f, var, factors):
        parts = split(f, var, factors)
        calls.append(parts)
        if len(calls) == 1:
            (residue, factor), *rest = parts
            parts = [(residue * 2, factor), *rest]
        return parts

    monkeypatch.setattr(projgw, "partial_fractions", first_residue_doubled)
    rep = verify_first_order_split(P1)
    assert [loc for loc, _, _ in rep.failures] == ["i=0 pole j=1", "i=0 recombined"]


def test_verify_recursion_dimension_zero():
    rep = verify_theorem_3_3(ProjSetup(0), 3, "direct")
    assert rep.ok and rep.notes


def test_first_order_split():
    for setup in (P1, P2, ProjSetup(3)):
        rep = verify_first_order_split(setup)
        assert rep.ok, rep.render()
    assert verify_first_order_split(ProjSetup(0)).status == "skipped"


def test_euler_prefactor_identity_small_cases():
    for i, j, k, d in ((0, 1, 1, 1), (0, 1, 1, 2), (0, 1, 2, 2), (1, 0, 2, 3)):
        assert euler_prefactor_identity(P1, i, j, k, d).ok
    for i, j, k, d in ((0, 1, 1, 1), (0, 2, 2, 2), (1, 2, 2, 3)):
        assert euler_prefactor_identity(P2, i, j, k, d).ok


def test_euler_prefactor_identity_rejects_bad_input():
    with pytest.raises(ValueError):
        euler_prefactor_identity(P1, 0, 0, 1, 1)
    with pytest.raises(ValueError):
        euler_prefactor_identity(P1, 0, 1, 3, 2)


# -- substitution sanity -------------------------------------------------------------


def test_recursion_h_substitution_matches_manual():
    # the shifted argument lands on plain rational functions of the weights
    a = P1.lam(0) - P1.lam(1)
    got = substitute(closed_b(P1, 1, 1), {"h": a.scale(Fraction(1, 2))})
    # lambda_1 - lambda_0 + a/2 = -a/2
    want = RatFunc.from_factored(P1.registry.one(), [a], scale=Fraction(-1, 2))
    assert got == want
