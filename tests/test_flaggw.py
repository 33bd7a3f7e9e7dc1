"""Flag-space recursion coefficients, solver tables, and the rank-two closed form."""

from fractions import Fraction
from math import factorial, prod

import pytest

from qcseries import flaggw, projgw, toda3
from qcseries.exactalg import (
    RatFunc,
    VarRegistry,
    homogeneous_degree,
    substitute,
)
from qcseries.flaggw import (
    A2_THETA,
    _pole_weight,
    a2_closed_coeff,
    coeff_C_id,
    solve_flag_recursion,
    verify_a1_crosscheck,
    verify_a2_theorem_3_2,
    verify_lemma_3_4,
)
from qcseries.projgw import ProjSetup, euler_e
from qcseries.roots import CartanMatrix, RootSystem

A1 = RootSystem(CartanMatrix.type_A(1))
A2 = RootSystem(CartanMatrix.type_A(2))
A3 = RootSystem(CartanMatrix.type_A(3))
B2 = RootSystem(CartanMatrix.type_B(2))
B3 = RootSystem(CartanMatrix.type_B(3))
G2 = RootSystem(CartanMatrix.type_G2())


def simple_root_value(system, alpha, k):
    # k^k / (k!)^2 * alpha^(1-k)
    reg = system.registry
    form = system.root_form(alpha)
    return RatFunc.from_factored(
        reg.one(), [form] * (k - 1), scale=Fraction(factorial(k) ** 2, k**k)
    )


# -- recursion coefficients at the identity ------------------------------------------


def test_simple_root_coefficients_all_types():
    for system, kmax in ((A1, 4), (A2, 4), (A3, 4), (B2, 3), (G2, 2)):
        for alpha in system.simple_roots:
            for k in range(1, kmax + 1):
                got = coeff_C_id(system, alpha, k)
                assert got == simple_root_value(system, alpha, k)


def test_long_root_coefficient_rank_two():
    reg = A2.registry
    a1, a2 = reg.var("alpha_1"), reg.var("alpha_2")
    got1 = coeff_C_id(A2, A2_THETA, 1)
    assert got1 == RatFunc.from_factored(-(a1 + a2), [a1, a2])
    for k in range(1, 4):
        assert coeff_C_id(A2, A2_THETA, k) == _pole_weight(2, k)


def test_coefficients_are_homogeneous():
    for system in (B2, G2):
        for alpha in system.positive_roots:
            got = coeff_C_id(system, alpha, 2 if system is B2 else 1)
            assert homogeneous_degree(got) is not None


def test_coeff_rejects_bad_input():
    with pytest.raises(ValueError):
        coeff_C_id(A2, (-1, -1), 1)
    with pytest.raises(ValueError):
        coeff_C_id(A2, A2_THETA, 0)
    with pytest.raises(ValueError):
        coeff_C_id(A2, (2, 0), 1)
    with pytest.raises(ValueError):
        coeff_C_id(A2, (0, 0), 1)


def test_acted_coefficients():
    system = A2
    s1 = system.simple_reflections[0]
    al1, al2 = system.simple_roots
    reg = A2.registry

    def acted(w, alpha, k):
        return system.act_on_ratfunc(w, coeff_C_id(A2, alpha, k))

    assert acted(system.identity, A2_THETA, 2) == coeff_C_id(A2, A2_THETA, 2)
    assert acted(s1, al1, 1) == RatFunc.one(reg)
    theta_form = reg.var("alpha_1") + reg.var("alpha_2")
    assert acted(s1, al2, 2) == RatFunc.one(reg) / RatFunc.from_poly(theta_form)


def test_coeff_entry_type_checks_degree():
    # C(alpha, k) has degree 1 - k<rho, alpha_check>, at every Weyl element
    for w in A2.weyl_elements:
        value = A2.act_on_ratfunc(w, coeff_C_id(A2, A2_THETA, 2))
        assert homogeneous_degree(value) == -3


# -- the solver -----------------------------------------------------------------------


def full_solve(system, total_max):
    """Reference route: all |W| tables solved side by side, each reading the others."""
    betas = flaggw._beta_range(system.rank, total_max)
    terms = [(w, flaggw._recursion_terms(system, total_max, w)) for w in system.weyl_elements]
    return flaggw.solve_tables(system.registry, terms, betas)


def test_solver_rank_one_closed_form():
    reg = A1.registry
    alpha, h = reg.var("alpha_1"), reg.var("h")
    z_id = solve_flag_recursion(A1, 4)
    z_s1 = full_solve(A1, 4)[A1.simple_reflections[0]]
    for d in range(5):
        dens = [alpha + h.scale(m) for m in range(1, d + 1)]
        assert z_id[(d,)] == RatFunc.from_factored(
            reg.one(), dens, scale=factorial(d)
        )
        flipped = [h.scale(m) - alpha for m in range(1, d + 1)]
        assert z_s1[(d,)] == RatFunc.from_factored(
            reg.one(), flipped, scale=factorial(d)
        )


def test_solver_rank_two_matches_closed_form_all_elements():
    # total degree 4 covers the bidegrees (i, j) with i, j <= 2
    z_id = solve_flag_recursion(A2, 4)
    tables = full_solve(A2, 4)
    system = A2
    for i in range(3):
        for j in range(3):
            assert z_id[(i, j)] == a2_closed_coeff(i, j), (i, j)
    for w, table in tables.items():
        for i in range(3):
            for j in range(3):
                want = system.act_on_ratfunc(w, a2_closed_coeff(i, j))
                assert table[(i, j)] == want, (w, i, j)


def test_every_weyl_table_is_the_w_image_of_the_identity_table():
    # the solver reads every table but the identity's as a w-image; the
    # reference route solves all |W| tables, each from its own terms
    entries = 0
    for system, t in ((A2, 4), (B2, 4), (G2, 4), (A3, 3)):
        z_id = solve_flag_recursion(system, t)
        for w, table in full_solve(system, t).items():
            for beta, value in table.items():
                assert value == system.act_on_ratfunc(w, z_id[beta]), (w, beta)
                entries += 1
    assert entries == 870


def test_identity_tables_are_homogeneous():
    # Z_id(beta) has degree -sum(beta) in every type; with the coefficient
    # built from the height of alpha instead of <rho, alpha_check>, B2 and G2
    # fail first at (1, 1) and B3 at (0, 1, 1); no rank caps the solver, and
    # it never lists the Weyl group (A7 has 40,320 elements, B6 46,080)
    fresh = [(RootSystem(cartan), t) for cartan, t in (
        (CartanMatrix.type_A(4), 3), (CartanMatrix.type_B(4), 3),
        (CartanMatrix.type_A(7), 2), (CartanMatrix.type_B(6), 2))]
    for system, t in [(A2, 6), (B2, 6), (G2, 6), (A3, 4), (B3, 3)] + fresh:
        z_id = solve_flag_recursion(system, t)
        wrong = [beta for beta, c in z_id.items() if homogeneous_degree(c) != -sum(beta)]
        assert wrong == [], system.cartan
    for system, _ in fresh:
        assert "weyl_elements" not in vars(system), system.cartan


def test_solver_grading():
    z_id = solve_flag_recursion(A2, 4)
    for (i, j), c in z_id.items():
        assert homogeneous_degree(c) == -(i + j)


def test_solver_caps():
    with pytest.raises(ValueError):
        solve_flag_recursion(A2, -1)


def test_solver_rank_three_smoke():
    z_id = solve_flag_recursion(A3, 2)
    reg = A3.registry
    a1, h = reg.var("alpha_1"), reg.var("h")
    assert z_id[(0, 0, 0)] == RatFunc.one(reg)
    assert z_id[(1, 0, 0)] == RatFunc.one(reg) / RatFunc.from_poly(h + a1)
    for beta, c in z_id.items():
        assert homogeneous_degree(c) == -sum(beta)


# -- G/P: the solver with a Levi -----------------------------------------------------


def test_levi_is_validated():
    # Levi nodes are distinct 0-based simple-root indices; a Levi must leave
    # a node out, and a cover must leave the Levi
    for levi in ((3,), (-1,), (0, 1, 2), (1, 1)):
        with pytest.raises(ValueError):
            solve_flag_recursion(A3, 2, levi)
        with pytest.raises(ValueError):
            coeff_C_id(A3, (1, 0, 0), 1, levi)
    with pytest.raises(ValueError, match="off the Levi"):
        coeff_C_id(A3, (0, 1, 1), 1, (1, 2))


def test_charted_coefficient_is_the_projective_coupling():
    # on A_n with the Levi on nodes 2..n, the k-fold cover of the curve
    # alpha_1 + ... + alpha_j, read in the weights, is Part I's coupling of
    # fixed points 0 and j
    for n in range(1, 5):
        system, setup = RootSystem(CartanMatrix.type_A(n)), ProjSetup(n)
        chart = system.lambda_chart([setup.lam(a) for a in setup.points()])
        for j in range(1, n + 1):
            alpha = (1,) * j + (0,) * (n - j)
            for k in range(1, 4):
                value = coeff_C_id(system, alpha, k, tuple(range(1, n)))
                charted = substitute(value, chart, setup.registry)
                assert charted == projgw.recursion_coeff(setup, 0, j, k), (n, j, k)


def quadric_q3(d):
    # Q^3 = B2/P_1 by quantum Lefschetz: with p = eps_1 and the weights mu
    # = +-eps_1, +-eps_2, 0 of C^5, where eps_1 = alpha_1 + alpha_2 and
    # eps_2 = alpha_2, b(d) = h^d prod_{m<=2d} (2p + mh) / prod_mu prod_{m<=d} (p - mu + mh)
    reg = B2.registry
    a1, a2, h = map(reg.var, ("alpha_1", "alpha_2", "h"))
    p, eps2 = a1 + a2, a2
    num = h**d * prod((p.scale(2) + h.scale(m) for m in range(1, 2 * d + 1)), start=reg.one())
    dens = [p - mu + h.scale(m) for mu in (p, -p, eps2, -eps2, reg.zero())
            for m in range(1, d + 1)]
    return RatFunc.from_factored(num, dens)


def test_quadric_q3_table_is_its_closed_form():
    z = solve_flag_recursion(B2, 3, (1,))
    assert list(z) == [(d,) for d in range(4)]
    assert [d for d in range(4) if z[(d,)] != quadric_q3(d)] == []


def test_quadric_q3_needs_the_curve_degree_power(monkeypatch):
    # the curve of alpha_1 + 2 alpha_2 has degree 2 off the Levi; without
    # the power (-alpha/k)^(k(n-1)) its terms, first read at d = 2, are wrong
    coeff = flaggw.coeff_C_id

    def without_power(system, alpha, k, levi=()):
        n = sum(c for node, c in enumerate(system.coroot_coords(alpha)) if node not in levi)
        power = RatFunc.from_poly(system.root_form(alpha).scale(Fraction(-1, k)))
        return coeff(system, alpha, k, levi) / power ** (k * (n - 1))

    monkeypatch.setattr(flaggw, "coeff_C_id", without_power)
    z = solve_flag_recursion(B2, 3, (1,))
    assert [d for d in range(4) if z[(d,)] != quadric_q3(d)] == [2, 3]


def test_base_table_is_fixed_by_the_levi():
    # P^3 = A3/P_1: s_2 and s_3 fix the base table, so its image under w
    # depends only on w's coset, and reading it at s_alpha.P is well defined
    z = solve_flag_recursion(A3, 3, (1, 2))
    for s in A3.simple_reflections[1:]:
        for beta, value in z.items():
            assert A3.act_on_ratfunc(s, value) == value, (s, beta)
    s1 = A3.simple_reflections[0]
    assert A3.act_on_ratfunc(s1, z[(1,)]) != z[(1,)]


# -- rank-two closed form -------------------------------------------------------------


def test_a2_closed_low_bidegrees():
    reg = A2.registry
    a1, a2, h = reg.var("alpha_1"), reg.var("alpha_2"), reg.var("h")
    assert a2_closed_coeff(0, 0) == RatFunc.one(reg)
    assert a2_closed_coeff(1, 0) == RatFunc.from_factored(reg.one(), [h + a1])
    assert a2_closed_coeff(0, 1) == RatFunc.from_factored(reg.one(), [h + a2])
    # shared highest-root factors cancel only partially at (1,1)
    want = RatFunc.from_factored(
        (h + a1 + a2) * (h.scale(2) + a1 + a2),
        [h + a1, h + a2, h + a1 + a2, h + a1 + a2],
    )
    assert a2_closed_coeff(1, 1) == want


def test_a2_closed_is_built_cancelled():
    # reference: the whole shifted factorial of theta over every factor,
    # cancelled by the trial divisions of from_factored
    reg = A2.registry
    a1, a2, h = reg.var("alpha_1"), reg.var("alpha_2"), reg.var("h")
    th = a1 + a2
    for total in range(9):
        for i in range(total + 1):
            j = total - i
            num = prod((h.scale(m) + th for m in range(1, i + j + 1)), start=reg.one())
            dens = [h.scale(m) + a for m in range(1, i + 1) for a in (a1, th)]
            dens += [h.scale(m) + a for m in range(1, j + 1) for a in (a2, th)]
            old = RatFunc.from_factored(num, dens, scale=factorial(i) * factorial(j))
            assert a2_closed_coeff(i, j).text() == old.text(), (i, j)
    assert a2_closed_coeff(2, 3) is a2_closed_coeff(2, 3)


def test_solver_builds_no_step_past_the_total_degree(monkeypatch):
    # at total degree 4 the theta step k*(1, 1) fits only for k <= 2, the
    # simple-root steps for k <= 4
    built = []
    coeff = flaggw.coeff_C_id
    monkeypatch.setattr(flaggw, "coeff_C_id", lambda system, alpha, k, levi:
                        built.append((alpha, k)) or coeff(system, alpha, k, levi))
    flaggw.solve_flag_recursion(A2, 4)
    assert max(k for alpha, k in built if alpha == A2_THETA) == 2
    assert max(k for alpha, k in built if alpha != A2_THETA) == 4


def test_solver_sums_once_per_multidegree_and_acts_once_per_image(monkeypatch):
    # one recursion sum per multidegree of the triangle past 0, and each
    # w-image of a table entry is acted on once however many terms read it
    sums = []
    summed = flaggw.recursion_sum
    monkeypatch.setattr(flaggw, "recursion_sum",
                        lambda *args: sums.append(args[2]) or summed(*args))
    acted = []
    act = RootSystem.act_on_ratfunc
    monkeypatch.setattr(RootSystem, "act_on_ratfunc",
                        lambda system, w, f: acted.append((w, f)) or act(system, w, f))
    z_id = solve_flag_recursion(A2, 4)
    assert len(sums) == 14 and sorted(sums) == sorted(z_id)[1:]
    # acted holds every argument, so no id is reused while this runs
    beta_of = {id(value): beta for beta, value in z_id.items()}
    images = [(w, beta_of[id(f)]) for w, f in acted if id(f) in beta_of]
    assert images and len(images) == len(set(images))


def test_solver_keys_its_table_by_coordinate_sum_then_lexicographically():
    # the table's readers iterate it as returned, so this order is the
    # solver's contract: series flag prints its rows in it
    assert flaggw._beta_range(2, 2) == [(0, 0), (0, 1), (1, 0), (0, 2), (1, 1), (2, 0)]
    for system, t, levi in ((A2, 4, ()), (B2, 3, ()), (A3, 3, (1,))):
        z = solve_flag_recursion(system, t, levi)
        assert list(z) == flaggw._beta_range(system.rank - len(levi), t)


def test_a2_closed_symmetry():
    reg = A2.registry
    a1, a2 = reg.var("alpha_1"), reg.var("alpha_2")
    for i in range(3):
        for j in range(3):
            swapped = substitute(
                a2_closed_coeff(j, i), {"alpha_1": a2, "alpha_2": a1}
            )
            assert a2_closed_coeff(i, j) == swapped


def test_each_root_system_caches_one_registry():
    # the solver, the closed form and the lattice bridge build every A2
    # value over the registry the cached rank-two system holds
    b3 = RootSystem(CartanMatrix.type_B(3))
    assert b3.registry.names == ("alpha_1", "alpha_2", "alpha_3", "h")
    assert b3.registry is b3.registry
    reg = RootSystem.type_A(2).registry
    assert a2_closed_coeff(1, 1).registry is reg
    assert toda3.closed_a_equivariant(2, 1).registry is reg
    assert solve_flag_recursion(RootSystem.type_A(2), 2)[(1, 1)].registry is reg


# -- verification reports -------------------------------------------------------------


def test_verify_a1_crosscheck():
    rep = verify_a1_crosscheck(4)
    assert rep.ok, rep.render()


def test_verify_a1_crosscheck_fails_on_a_wrong_coupling(monkeypatch):
    # both tables come from coeff_C_id (the s1 table as the s1-image of the
    # identity table), so doubling it at k = 1 breaks the chart and
    # closed-form comparisons from d = 1 on; s1's own recursion is built from
    # the same doubled coefficient, so the broken tables still satisfy it
    coeff = flaggw.coeff_C_id

    def doubled_at_k_1(system, alpha, k, levi=()):
        value = coeff(system, alpha, k, levi)
        return value * 2 if k == 1 else value

    monkeypatch.setattr(flaggw, "coeff_C_id", doubled_at_k_1)
    rep = verify_a1_crosscheck(2)
    assert [loc for loc, _, _ in rep.failures] == [
        f"{check} d={d}" for d in (1, 2) for check in ("chart id", "chart s1", "closed")
    ]


def test_verify_a1_crosscheck_fails_on_a_wrong_s1_recursion(monkeypatch):
    # the solver reads only the identity's terms, so doubling s1's terms
    # breaks s1's own recursion and no other comparison
    terms = flaggw._recursion_terms
    s1 = RootSystem.type_A(1).simple_reflections[0]

    def doubled(system, total_max, w, levi=()):
        ts = terms(system, total_max, w, levi)
        if w != s1:
            return ts
        return [(lw, step, 2 * weight, shift) for lw, step, weight, shift in ts]

    monkeypatch.setattr(flaggw, "_recursion_terms", doubled)
    rep = verify_a1_crosscheck(5)
    assert [loc for loc, _, _ in rep.failures] == [
        f"s1 recursion d={d}" for d in range(1, 6)
    ]


def test_verify_a2_recursion_report():
    rep = verify_a2_theorem_3_2(3)
    assert rep.ok, rep.render()


def test_verify_a2_recursion_fails_on_a_wrong_lower_coefficient(monkeypatch):
    # the check reads its lower bidegrees from a2_closed_coeff, so a wrong
    # value there must break the recursion one step up, also once the
    # memoized values are built
    assert verify_a2_theorem_3_2(2).ok
    closed = flaggw.a2_closed_coeff

    def perturbed_at_1_0(i, j):
        value = closed(i, j)
        return value + 1 if (i, j) == (1, 0) else value

    monkeypatch.setattr(flaggw, "a2_closed_coeff", perturbed_at_1_0)
    rep = verify_a2_theorem_3_2(2)
    assert [loc for loc, _, _ in rep.failures] == ["i=1 j=0", "i=1 j=1", "i=2 j=0"]


def test_verify_lemma_3_4_fails_on_a_wrong_pole_weight(monkeypatch):
    # the printed prefactor feeds one prediction of the residue only; the
    # prediction through the recursion coefficient must still hold
    weight = flaggw._pole_weight

    def doubled_at_0_1(r, k):
        value = weight(r, k)
        return value * 2 if (r, k) == (0, 1) else value

    monkeypatch.setattr(flaggw, "_pole_weight", doubled_at_0_1)
    rep = verify_lemma_3_4(1, 1)
    assert [loc for loc, _, _ in rep.failures] == ["pole r=0 k=1"]


def test_verify_pole_cancellation_cases():
    for i, j in ((0, 0), (0, 1), (1, 1), (1, 2)):
        rep = verify_lemma_3_4(i, j)
        assert rep.ok, rep.render()
    with pytest.raises(ValueError):
        verify_lemma_3_4(2, 1)


# -- Euler classes in the type-A lambda chart -----------------------------------------


def lambda_euler(system, target, w):
    chart = system.lambda_chart([target.var(f"lambda_{a}") for a in range(system.rank + 1)])
    return system.euler_class(w).substitute(chart, target).as_poly()


def test_phi_rank_one_matches_projective_chart():
    # the flag variety of A1 is P^1: its two Euler classes are those of
    # projgw, through the part1 chart with projgw's lambda_0 = 0
    system = A1
    p1 = ProjSetup(1)
    chart = system.lambda_chart([p1.lam(0), p1.lam(1)])
    for w, i in ((system.identity, 0), (system.simple_reflections[0], 1)):
        euler = system.euler_class(w)
        assert euler.substitute(chart, p1.registry).as_poly() == euler_e(p1, i)


def test_flag_euler_matches_root_product():
    # in the lambda chart the product of positive roots is the Vandermonde
    # product, and w multiplies it by its sign
    system = A2
    target = VarRegistry([f"lambda_{i}" for i in range(3)])
    lam = [target.var(f"lambda_{i}") for i in range(3)]
    vandermonde = (lam[0] - lam[1]) * (lam[0] - lam[2]) * (lam[1] - lam[2])
    for w in system.weyl_elements:
        assert lambda_euler(system, target, w) == vandermonde.scale((-1) ** w.length())
