"""Root system and Weyl group machinery, checked against hand-enumerable cases."""

import pytest

from qcseries.exactalg import RatFunc, VarRegistry
from qcseries.roots import CartanMatrix, RootSystem


A2 = RootSystem(CartanMatrix.type_A(2))
A3 = RootSystem(CartanMatrix.type_A(3))

AL1 = (1, 0)
AL2 = (0, 1)
THETA = (1, 1)


def test_a2_inventory():
    assert set(A2.positive_roots) == {AL1, AL2, THETA}
    assert len(A2.roots) == 6
    assert len(A2.weyl_elements) == 6


def test_a3_inventory():
    assert A3.n_positive == 6
    assert len(A3.weyl_elements) == 24


def test_other_types_inventory():
    B2 = RootSystem(CartanMatrix.type_B(2))
    assert B2.n_positive == 4
    assert len(B2.weyl_elements) == 8
    G2 = RootSystem(CartanMatrix.type_G2())
    assert G2.n_positive == 6
    assert len(G2.weyl_elements) == 12


# weyl_elements in its pinned order: by length, then by reduced word
WEYL_WORDS = {
    "A2": (CartanMatrix.type_A(2), "id s1 s2 s1*s2 s2*s1 s1*s2*s1"),
    "B2": (CartanMatrix.type_B(2),
           "id s1 s2 s1*s2 s2*s1 s1*s2*s1 s2*s1*s2 s2*s1*s2*s1"),
    "G2": (CartanMatrix.type_G2(),
           "id s1 s2 s1*s2 s2*s1 s1*s2*s1 s2*s1*s2 s1*s2*s1*s2 s2*s1*s2*s1"
           " s1*s2*s1*s2*s1 s2*s1*s2*s1*s2 s2*s1*s2*s1*s2*s1"),
    "A3": (CartanMatrix.type_A(3),
           "id s1 s2 s3 s1*s2 s2*s1 s2*s3 s3*s1 s3*s2 s1*s2*s1 s1*s2*s3"
           " s2*s3*s1 s2*s3*s2 s3*s1*s2 s3*s2*s1 s1*s2*s3*s1 s1*s2*s3*s2"
           " s2*s3*s1*s2 s2*s3*s2*s1 s3*s1*s2*s1 s1*s2*s3*s1*s2"
           " s1*s2*s3*s2*s1 s2*s3*s1*s2*s1 s1*s2*s3*s1*s2*s1"),
}


@pytest.mark.parametrize("name", WEYL_WORDS)
def test_weyl_elements_order_is_pinned(name):
    cartan, words = WEYL_WORDS[name]
    system = RootSystem(cartan)
    assert "weyl_elements" not in vars(system)
    assert [w.word_text() for w in system.weyl_elements] == words.split()
    assert system.weyl_elements[0] is system.identity


def test_root_and_weyl_caps():
    # A7 builds, but listing its 40,320 elements stops at the Weyl cap
    A7 = RootSystem(CartanMatrix.type_A(7))
    assert len(A7.simple_reflections) == 7
    with pytest.raises(ValueError, match="Weyl element cap"):
        A7.weyl_elements
    # the affine A1 matrix has infinitely many roots
    with pytest.raises(ValueError, match="positive root cap"):
        RootSystem(CartanMatrix(((2, -2), (-2, 2))))


def test_type_A_is_built_once_per_rank():
    # the package builds every type-A value over RootSystem.type_A(rank); the
    # constructor still builds a fresh system, with a registry of its own
    a2 = RootSystem.type_A(2)
    assert a2 is RootSystem.type_A(2) and a2.cartan == CartanMatrix.type_A(2)
    fresh = RootSystem(CartanMatrix.type_A(2))
    assert fresh is not a2 and fresh.registry is not a2.registry
    assert RootSystem.type_A(3) is not a2 and RootSystem.type_A(3).rank == 3


def test_pairing_table_a2():
    assert A2.pairing(AL1, AL1) == 2
    assert A2.pairing(AL2, AL1) == -1
    assert A2.pairing(THETA, AL1) == 1
    assert A2.pairing(THETA, THETA) == 2
    assert A2.coroot_coords(THETA) == (1, 1)


def test_pairing_table_b2():
    B2 = RootSystem(CartanMatrix.type_B(2))
    a1, a2 = B2.simple_roots
    assert B2.pairing(a1, a2) == -2
    assert B2.pairing(a2, a1) == -1
    long_root = (1, 2)
    assert long_root in B2.positive_roots
    assert B2.coroot_coords(long_root) == (1, 1)


def test_simple_reflection_action():
    s1 = A2.simple_reflections[0]
    assert s1.act(AL1) == (-1, 0)
    assert s1.act(AL2) == THETA
    assert s1.act(THETA) == AL2


def test_highest_root_reflection():
    s_theta = A2.reflection(THETA)
    assert s_theta.act(AL1) == (0, -1)
    assert s_theta.act(AL2) == (-1, 0)
    s1, s2 = A2.simple_reflections
    assert s_theta == s1 * s2 * s1
    assert s_theta == s2 * s1 * s2


def test_inversion_sets():
    s1, s2 = A2.simple_reflections
    assert s1.inversion_set() == frozenset({AL1})
    w0 = s1 * s2 * s1
    assert w0.inversion_set() == frozenset({AL1, AL2, THETA})
    assert (s1 * s2).inversion_set() == frozenset({AL2, THETA})


@pytest.mark.parametrize("system", [A2, A3], ids=["A2", "A3"])
def test_length_and_reduced_words(system):
    for w in system.weyl_elements:
        word = w.reduced_word()
        assert len(word) == w.length() == len(w.inversion_set())
        rebuilt = system.identity
        for letter in word:
            rebuilt = rebuilt * system.simple_reflections[letter - 1]
        assert rebuilt == w


def test_group_axioms_a2():
    for w in A2.weyl_elements:
        assert w * w.inverse() == A2.identity
        assert (w.inverse()).inverse() == w
    s1, s2 = A2.simple_reflections
    assert s1 * s1 == A2.identity
    assert (s1 * s2) * s1 == s1 * (s2 * s1)


def test_euler_class_sign():
    e_id = A2.euler_class(A2.identity)
    for w in A2.weyl_elements:
        assert A2.euler_class(w) == e_id.scale((-1) ** w.length())


def test_act_on_ratfunc():
    reg = A2.registry
    s1 = A2.simple_reflections[0]
    f = RatFunc.one(reg) / RatFunc.from_poly(reg.var("alpha_1"))
    assert A2.act_on_ratfunc(s1, f) == -f
    # the identity returns its argument, not a substituted copy
    assert A2.act_on_ratfunc(A2.identity, f) is f
    g = RatFunc.from_poly(reg.var("alpha_2"))
    assert A2.act_on_ratfunc(s1, g) == RatFunc.from_poly(
        reg.var("alpha_1") + reg.var("alpha_2")
    )


def test_an_element_of_another_system_is_rejected():
    # B2's s2 sends alpha_1 to alpha_1 + 2*alpha_2; A2's own s2 to alpha_1 + alpha_2
    reg = A2.registry
    B2 = RootSystem(CartanMatrix.type_B(2))
    f = RatFunc.one(reg) / RatFunc.from_poly(reg.var("alpha_1"))
    assert A2.act_on_ratfunc(A2.simple_reflections[1], f) == RatFunc.one(reg) / (
        reg.var("alpha_1") + reg.var("alpha_2")
    )
    for w in (B2.simple_reflections[1], B2.identity):
        with pytest.raises(ValueError, match="different root system"):
            A2.act_on_ratfunc(w, f)
        with pytest.raises(ValueError, match="different root system"):
            A2.euler_class(w)


def test_lambda_chart_part1():
    lam = VarRegistry(["lambda_0", "lambda_1", "lambda_2", "h"])
    weights = [lam.var(f"lambda_{a}") for a in range(3)]
    chart = A2.lambda_chart(weights)
    assert chart == {
        "alpha_1": lam.var("lambda_0") - lam.var("lambda_1"),
        "alpha_2": lam.var("lambda_1") - lam.var("lambda_2"),
    }
    # Part III's chart is the chart of the negated weights
    chart3 = A2.lambda_chart([-w for w in weights])
    assert chart3["alpha_1"] == lam.var("lambda_1") - lam.var("lambda_0")


def test_lambda_chart_rejects_non_type_a():
    B2 = RootSystem(CartanMatrix.type_B(2))
    lam = VarRegistry(["lambda_0", "lambda_1", "lambda_2"])
    with pytest.raises(ValueError, match="type A only"):
        B2.lambda_chart([lam.var(name) for name in lam.names])


def test_lambda_chart_takes_rank_plus_one_weights():
    lam = VarRegistry(["lambda_0", "lambda_1", "lambda_2"])
    weights = [lam.var(name) for name in lam.names]
    for count in (2, 4):
        with pytest.raises(ValueError, match="weights"):
            A2.lambda_chart((weights * 2)[:count])


@pytest.mark.parametrize("system", [A2, A3], ids=["A2", "A3"])
def test_weyl_permutation_matches_chart(system):
    # in the part1 chart w sends alpha_i = lambda_{i-1} - lambda_i to
    # lambda_pi(i-1) - lambda_pi(i); read pi off the simple roots, then the
    # Euler class must become the product over the permuted pairs
    n = system.rank + 1
    lam = VarRegistry([f"lambda_{i}" for i in range(n)])
    chart = system.lambda_chart([lam.var(name) for name in lam.names])
    diffs = {
        lam.var(f"lambda_{a}") - lam.var(f"lambda_{b}"): (a, b)
        for a in range(n) for b in range(n) if a != b
    }
    for w in system.weyl_elements:
        pi = []
        for alpha in system.simple_roots:
            image = system.root_form(w.act(alpha)).substitute(chart, target=lam)
            a, b = diffs[image.as_poly()]
            assert pi[-1:] in ([], [a])
            pi[-1:] = [a, b]
        assert sorted(pi) == list(range(n))
        imaged = system.euler_class(w).substitute(chart, target=lam).as_poly()
        expected = lam.one()
        for p in range(n):
            for q in range(p + 1, n):
                expected = expected * (
                    lam.var(f"lambda_{pi[p]}") - lam.var(f"lambda_{pi[q]}")
                )
        assert imaged == expected


def test_roots_and_cartan_matrices_are_read_only_values():
    # a root is its coordinate tuple and a Cartan matrix the tuple of its
    # rows, so both are equal and hashed by value, and neither can change:
    # roots are gathered in sets and compared throughout the package
    assert all(type(g) is tuple for g in A2.roots)
    assert A2.positive_roots == ((0, 1), (1, 0), (1, 1)) and A2.roots[-1] == (-1, -1)
    assert len({*A2.positive_roots, (1, 0), AL2}) == 3
    rows = ((2, -1), (-1, 2))
    assert A2.cartan == CartanMatrix(rows) == rows
    assert hash(A2.cartan) == hash(CartanMatrix(rows)) == hash(rows)
    assert A2.cartan != CartanMatrix.type_B(2)
    # rows given as lists are stored as tuples
    listed = CartanMatrix([[2, -1], [-1, 2]])
    assert listed == CartanMatrix.type_A(2) and hash(listed) == hash(rows)
    assert all(type(row) is tuple for row in listed)
    with pytest.raises(AttributeError):
        listed.extra = 1
    with pytest.raises(TypeError):
        listed[0] = (2, 0)
    with pytest.raises(TypeError):
        listed[0][0] = 3


def test_cartan_validation():
    with pytest.raises(ValueError):
        CartanMatrix(((2, -1),))
    with pytest.raises(ValueError):
        CartanMatrix(((1,),))
    with pytest.raises(ValueError):
        CartanMatrix(((2, 1), (1, 2)))
    with pytest.raises(ValueError):
        CartanMatrix(((2, 0), (-1, 2)))
    with pytest.raises(ValueError, match="square"):
        CartanMatrix(((2, -1), ()))
    # bare rows are checked when a system is built from them
    with pytest.raises(ValueError):
        RootSystem(((2, 1), (1, 2)))
    bare = RootSystem(((2, -1), (-1, 2)))
    assert type(bare.cartan) is CartanMatrix and bare.cartan == A2.cartan
    assert bare.roots == A2.roots
    with pytest.raises(ValueError):
        A2.root_index((5, 5))
