"""Flag-space hypergeometric series over a finite root system.

A space G/P is a root system plus the 0-based simple-root indices of a
Levi, () for G/B; P^n is A_n with the Levi on nodes 2..n (see
`projgw.solve_recursion`).  The tangent roots at the base point are the
positive roots with a nonzero coordinate off the Levi, one T-curve per
tangent root alpha, of degree alpha_check's coordinates off the Levi
(Goresky-Kottwitz-MacPherson).  The recursion data is one coefficient per
(Weyl element, tangent root, cover multiplicity).  The base-point
coefficient is assembled from a finite product extracted from a telescoping
cancellation: for each tangent root gamma != alpha with c = <gamma,
alpha_check>, the ratio of the shifted infinite products collapses to
1/prod_{m=1}^{kc}(gamma - (m/k)alpha) when c > 0, to
prod_{m=0}^{-kc-1}(gamma + (m/k)alpha) when c < 0, and to 1 when c = 0.

Only the base point's table is solved.  The (w, alpha, k) term of the
recursion is w applied to the identity's (alpha, k) term, weight and shift
h -> -alpha/k alike, and it reads the table at w s_alpha where that term
reads the one at s_alpha.  So the field automorphism w takes the identity's
recursion to w's, and Z_w(beta) = w.Z_id(beta) by induction on the degree
from Z_w(0) = 1; a test compares these w-images with a solve of all |W|
tables.  The base table is fixed by the Levi's Weyl group, so its image
depends only on the coset of w.

Rank-one tables reduce to the projective-line series under the lambda
chart, and the rank-two type-A tables have an independent closed form;
verification routines check both, along with the simple-fraction split of
the closed form whose residues regenerate the recursion coefficients.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import cache
from math import factorial

from .exactalg import (
    MultiPoly,
    RatFunc,
    VarRegistry,
    homogeneous_degree,
    partial_fractions,
    recombine,
    substitute,
)
from .report import VerificationReport
from .roots import RootSystem


def _curves(system: RootSystem, levi: tuple[int, ...]) -> dict:
    """{tangent root: degree of its T-curve, alpha_check's coordinates off the Levi}."""
    if len(set(levi)) != len(levi) or not set(levi) < set(range(system.rank)):
        raise ValueError(f"a Levi is distinct nodes of 0..{system.rank - 1}, not all of them")
    off = [node for node in range(system.rank) if node not in levi]
    return {g: tuple(system.coroot_coords(g)[node] for node in off)
            for g in system.positive_roots if any(g[node] for node in off)}


def coeff_C_id(system: RootSystem, alpha: tuple[int, ...], k: int,
               levi: tuple[int, ...] = ()) -> RatFunc:
    """Base-point coefficient of the k-fold cover of the alpha-curve of G/P, levi () for G/B.

    With n the degree of the curve, the sum of alpha_check's coordinates off
    the Levi, and c1 = sum <gamma, alpha_check> over the tangent roots, the
    value has degree 1 - k*(c1 - n): the power of alpha has degree
    k*n - 2k + 1 and the gamma != alpha factors -k(c1 - 2).  On G/B, c1 = 2n.
    """
    curves = _curves(system, levi)
    if alpha not in curves:
        raise ValueError("the covered direction must be a positive root off the Levi")
    if k < 1:
        raise ValueError("cover multiplicity must be >= 1")
    reg = system.registry
    n = sum(curves[alpha])
    a_form = system.root_form(alpha)

    num = [reg.one()]
    dens: list[MultiPoly] = []
    c1 = 0
    for gamma in curves:
        c = system.pairing(gamma, alpha)
        c1 += c
        if gamma == alpha:
            continue
        g_form = system.root_form(gamma)
        if c > 0:
            for m in range(1, k * c + 1):
                dens.append(g_form - a_form.scale(Fraction(m, k)))
        elif c < 0:
            for m in range(0, -k * c):
                num.append(g_form + a_form.scale(Fraction(m, k)))

    e = k * n - 2 * k + 1
    if e >= 0:
        num.extend([a_form] * e)
    else:
        dens.extend([a_form] * (-e))
    sign = -1 if (k * (n + 1)) % 2 else 1
    scalar = Fraction(sign) * Fraction(k) ** (k * (2 - n)) / factorial(k) ** 2
    value = RatFunc.from_factored(num, dens, scale=1 / scalar)
    if homogeneous_degree(value) != 1 - k * (c1 - n):
        raise AssertionError(
            "degree bookkeeping failed assembling the recursion coefficient"
        )
    return value


# -- the solver ----------------------------------------------------------------------


def recursion_sum(registry: VarRegistry, terms, degree: tuple[int, ...],
                  lower) -> RatFunc:
    """Right side of a fixed-point recursion at a (multi)degree.

    Each term (target, step, weight, shift) adds weight times the
    coefficient lower(target, degree - step), substituted by shift; a term
    whose lower degree would be negative adds nothing.  Each target's terms
    are summed first, with incremental cancellation, and the partial sums
    are then added in order of the targets' first appearance.  That keeps
    the sums' numerators smaller than adding in term order does.
    """
    partial: dict = {}
    for target, step, weight, shift in terms:
        prev = tuple(d - s for d, s in zip(degree, step))
        if min(prev) < 0:
            continue
        term = weight * substitute(lower(target, prev), shift)
        partial[target] = partial[target] + term if target in partial else term
    acc = RatFunc.zero(registry)
    for part in partial.values():
        acc = acc + part
    return acc


def image_reader(table, system: RootSystem):
    """lower(w, beta) = w applied to table[beta], acted on once per (w, beta) and reader.

    The solver solves one table and reads every other as its image under a
    Weyl element w.  A reader keeps its images for the one solve or check
    that made it, and nothing across them.
    """
    images = {}

    def lower(w, beta):
        if (w, beta) not in images:
            images[(w, beta)] = system.act_on_ratfunc(w, table[beta])
        return images[(w, beta)]
    return lower


def solve_tables(registry: VarRegistry, per_target, degrees):
    """Tables target -> degree -> coefficient, filled by `recursion_sum`.

    per_target lists (target, terms) pairs; each term reads the table of a
    listed target at a strictly lower degree.  degrees[0] is the zero degree,
    whose coefficient is 1, and each later degree comes after every degree
    its terms read; the loop runs degree by degree, then target by target.
    This is the reference route that solves every table from its own terms;
    the solver solves one table and reads the others as its images, and only
    the tests that compare the two call it, no check.
    """
    one = RatFunc.one(registry)
    tables = {target: {degrees[0]: one} for target, _ in per_target}
    for degree in degrees[1:]:
        for target, terms in per_target:
            tables[target][degree] = recursion_sum(
                registry, terms, degree, lambda t, e: tables[t][e])
    return tables


def _beta_range(rank: int, total_max: int):
    """Multidegrees of coordinate sum at most total_max, by sum, then lexicographically."""
    betas = itertools.product(range(total_max + 1), repeat=rank)
    return sorted((b for b in betas if sum(b) <= total_max), key=lambda b: (sum(b), b))


def _recursion_terms(system: RootSystem, total_max: int, w,
                     levi: tuple[int, ...] = ()) -> list:
    """The (w, alpha, k) terms of the reflection recursion of G/P at the Weyl element w.

    Each term is in the form `recursion_sum` reads: (lower_w, step, weight,
    shift), so it adds weight times the table at lower_w, read at the
    multidegree step lower and then substituted by shift.  Covers run over
    every tangent root alpha and every k whose step, k times alpha_check's
    coordinates off the Levi, has coordinate sum at most total_max: a longer
    step reads below multidegree 0 from every multidegree of the triangle.
    Tangent roots run outer, k inner.
    """
    h = system.registry.var("h")
    terms = []
    for alpha, degree in _curves(system, levi).items():
        refl = system.reflection(alpha)
        image_form = system.root_form(w.act(alpha))
        for k in range(1, total_max // sum(degree) + 1):
            base = coeff_C_id(system, alpha, k, levi)
            weight = system.act_on_ratfunc(w, base) / (h.scale(k) + image_form)
            shift = {"h": image_form.scale(Fraction(-1, k))}
            # w applied to the identity's term, which reads the table at s_alpha
            terms.append((w * refl, tuple(k * c for c in degree), weight, shift))
    return terms


def solve_flag_recursion(system: RootSystem, total_max: int,
                         levi: tuple[int, ...] = ()) -> dict[tuple[int, ...], RatFunc]:
    """Build the base point's table {beta: coefficient} of G/P from multidegree 0 upward.

    levi lists the Levi's simple-root indices, () for G/B.  A multidegree
    beta has one coroot coordinate per node off the Levi, and the table
    holds those of coordinate sum at most total_max, keyed in ascending
    coordinate sum, then lexicographically; the recursion only ever reads
    strictly smaller sums, so the triangle is self-contained.  The
    pole attached to an (alpha, k) term is k*h + alpha.  The term reads the
    table at s_alpha, which is s_alpha applied to this one, as the table of
    any w is w applied to it (see the module docstring).
    """
    if total_max < 0:
        raise ValueError("total-degree bound must be >= 0")
    terms = _recursion_terms(system, total_max, system.identity, levi)
    betas = _beta_range(system.rank - len(levi), total_max)
    z_id = {betas[0]: RatFunc.one(system.registry)}
    lower = image_reader(z_id, system)
    for beta in betas[1:]:
        z_id[beta] = recursion_sum(system.registry, terms, beta, lower)
    return z_id


# -- rank-two type-A closed form -----------------------------------------------------


A2_THETA = (1, 1)


def a2_closed_factors(i: int, j: int, a1: MultiPoly, a2: MultiPoly, h: MultiPoly):
    """The rank-two type-A closed form at bidegree (i, j) as its linear factors.

    With (x)_p = (h + x)(2h + x)...(ph + x) and theta = alpha_1 + alpha_2,
    the coefficient is (theta)_(i+j) over i! j! (alpha_1)_i (theta)_i
    (alpha_2)_j (theta)_j.  A factor mh + theta with m <= i + j occurs once
    above and [m <= i] + [m <= j] times below, so the quotient is written
    cancelled: the mh + theta with max(i, j) < m <= i + j over i! j!
    (alpha_1)_i (alpha_2)_j (theta)_min(i,j).  Returns (numerator factors,
    denominator factors, scale) in the forms a1, a2 and h given for alpha_1,
    alpha_2 and h, for `RatFunc.from_factored`; the numerator list starts
    with the constant 1, so it is never empty.
    """
    th = a1 + a2
    num = [h.registry.one()] + [h.scale(m) + th for m in range(max(i, j) + 1, i + j + 1)]
    dens = [h.scale(m) + a1 for m in range(1, i + 1)]
    dens += [h.scale(m) + a2 for m in range(1, j + 1)]
    dens += [h.scale(m) + th for m in range(1, min(i, j) + 1)]
    return num, dens, factorial(i) * factorial(j)


@cache
def a2_closed_coeff(i: int, j: int) -> RatFunc:
    """Closed bidegree-(i,j) coefficient of the rank-two type-A identity table.

    Built from `a2_closed_factors` in the roots alpha_1, alpha_2 and h.  The
    linear forms mh + alpha_1, mh + alpha_2 and mh + theta are distinct
    primes, so nothing cancels and `from_factored` makes no division.
    """
    if i < 0 or j < 0:
        raise ValueError("bidegree must be nonnegative")
    reg = RootSystem.type_A(2).registry
    a1, a2, h = map(reg.var, ("alpha_1", "alpha_2", "h"))
    return RatFunc.from_factored(*a2_closed_factors(i, j, a1, a2, h))


# -- verification: rank one against the projective line -------------------------------


def verify_a1_crosscheck(d_max: int) -> VerificationReport:
    """Rank-one tables against the n=1 projective series under the lambda chart.

    The chart is `RootSystem.lambda_chart` of P^1's weights lam(0) = 0 and
    lam(1), alpha_1 -> -lambda_1 in projgw's normalization lambda_0 = 0.  The
    s1 table is read as s1 applied to the identity table, and must also
    satisfy s1's own recursion, whose terms read both tables.
    """
    from . import projgw
    with VerificationReport("a1-cross", {"max_d": d_max}) as report:
        system = RootSystem.type_A(1)
        reg = system.registry
        alpha, h = map(reg.var, ("alpha_1", "h"))
        s1 = system.simple_reflections[0]
        z_id = solve_flag_recursion(system, d_max)
        lower = image_reader(z_id, system)
        s1_terms = _recursion_terms(system, d_max, s1)

        proj = projgw.ProjSetup(1)
        chart = system.lambda_chart([proj.lam(0), proj.lam(1)])
        for (d,), z in z_id.items():
            z_s1 = lower(s1, (d,))
            report.check_equal(
                f"chart id d={d}",
                substitute(z, chart, proj.registry),
                projgw.closed_b(proj, 0, d),
            )
            report.check_equal(
                f"chart s1 d={d}",
                substitute(z_s1, chart, proj.registry),
                projgw.closed_b(proj, 1, d),
            )
            # shifted-factorial closed form
            closed = RatFunc.from_factored(
                reg.one(), [h.scale(m) + alpha for m in range(1, d + 1)],
                scale=factorial(d),
            )
            report.check_equal(f"closed d={d}", z, closed)
            report.check_equal(
                f"s1 recursion d={d}", z_s1,
                recursion_sum(reg, s1_terms, (d,), lower) if d else 1,
            )
    return report


# -- verification: rank two against the closed form -----------------------------------


def verify_a2_theorem_3_2(n_max: int) -> VerificationReport:
    """Closed rank-two tables substituted into the reflection recursion.

    The terms are the solver's own at the identity element; the lower
    values are the closed coefficients moved by the reflections they are
    read through.
    """
    with VerificationReport("a2-recursion", {"max_total": n_max}) as report:
        if n_max < 0:
            raise ValueError("total-degree bound must be >= 0")
        system = RootSystem.type_A(2)
        terms = _recursion_terms(system, n_max, system.identity)

        closed = {
            (i, j): a2_closed_coeff(i, j)
            for i in range(n_max + 1)
            for j in range(n_max + 1 - i)
        }
        lower = image_reader(closed, system)

        for i, j in closed:
            if i == 0 and j == 0:
                report.check_equal("i=0 j=0", closed[(0, 0)], 1)
                continue
            report.check_equal(
                f"i={i} j={j}", closed[(i, j)],
                recursion_sum(system.registry, terms, (i, j), lower),
            )
    return report


def verify_lemma_3_4(i: int, j: int) -> VerificationReport:
    """Simple-fraction split of the closed rank-two coefficient in h.

    The residues at the three families of poles must equal the lower closed
    coefficients with reflected arguments, and must also regenerate from the
    recursion-coefficient machinery; the recombined split must return the
    original value.
    """
    with VerificationReport("lemma34", {"i": i, "j": j}) as report:
        if not 0 <= i <= j:
            raise ValueError("need 0 <= i <= j")
        system = RootSystem.type_A(2)
        reg = system.registry
        a1, a2, h = map(reg.var, ("alpha_1", "alpha_2", "h"))
        th = a1 + a2
        value = a2_closed_coeff(i, j)
        if i == 0 and j == 0:
            report.note("empty decomposition at bidegree (0,0)")
            report.check_equal("value", value, 1)
            return report

        # one pole family per positive root: the root, its pole count, and
        # the printed route's reflection of the arguments
        families = (
            ((1, 0), i, {"alpha_1": -a1, "alpha_2": th}),
            ((0, 1), j, {"alpha_1": th, "alpha_2": -a2}),
            (A2_THETA, i, {"alpha_1": -a2, "alpha_2": -a1}),
        )
        labels = [(r, k) for r, (_, poles, _) in enumerate(families) for k in range(1, poles + 1)]
        factors = [h.scale(k) + system.root_form(families[r][0]) for r, k in labels]
        # the hand-derived form of the value, split and compared with it
        derived = RatFunc.from_factored(
            [reg.one()] + [h.scale(m) + th for m in range(j + 1, i + j + 1)], factors,
            scale=factorial(i) * factorial(j))
        parts = partial_fractions(derived, "h", factors)
        report.check_equal("recombined", recombine(parts, reg), value)

        for (r, k), (residue, _factor) in zip(labels, parts):
            root, _, reflected = families[r]
            lower = a2_closed_coeff(i - k * root[0], j - k * root[1])
            shift = {"h": system.root_form(root).scale(Fraction(-1, k))}
            expected = _pole_weight(r, k) * substitute(lower, {**reflected, **shift})
            report.check_equal(f"pole r={r} k={k}", residue, expected)
            via_coeff = coeff_C_id(system, root, k) * substitute(
                system.act_on_ratfunc(system.reflection(root), lower), shift)
            report.check_equal(f"pole r={r} k={k} via coeff", residue, via_coeff)
    return report


def _pole_weight(r: int, k: int) -> RatFunc:
    """Printed residue prefactors of the rank-two split, one per pole family."""
    reg = RootSystem.type_A(2).registry
    a1, a2 = map(reg.var, ("alpha_1", "alpha_2"))
    if r in (0, 1):
        base = a1 if r == 0 else a2
        return RatFunc.from_factored(
            reg.one(), [base] * (k - 1),
            scale=Fraction(factorial(k) ** 2, k**k),
        )
    dens = [a1, a2]
    for m in range(1, k):
        dens.extend([a1.scale(m) - a2.scale(k - m)] * 2)
    return RatFunc.from_factored(
        -(a1 + a2), dens,
        scale=Fraction(factorial(k) ** 2, k ** (2 * (k - 1))),
    )
