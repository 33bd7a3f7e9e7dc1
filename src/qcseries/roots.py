"""Finite root systems from Cartan matrices, with Weyl groups as root permutations.

A root is the tuple of its integer coordinates in the simple-root basis,
and a ``CartanMatrix`` is the tuple of its rows, checked once when it is
built; both are equal and hashed as plain tuples.  The generator closes the
simple roots under simple reflections, carrying for every root the
coordinates of its coroot in the simple-coroot basis as well.  Carrying
both makes the pairing <gamma, alpha_check> an exact integer table and keeps
multidegree bookkeeping correct beyond the simply-laced case.

Weyl group elements are stored as permutations of the full root list, so
composition, inversion sets, and reflection actions are pure index
arithmetic.  Reduced words are recovered on demand by walking descents.
A system builds only the identity and the simple reflections; the whole
group is listed the first time ``weyl_elements`` is read.

Two caps raise ``ValueError``.  ``MAX_POSITIVE_ROOTS`` (200) guards root
generation, so a Cartan matrix of non-finite type stops instead of
spinning.  ``MAX_WEYL_ELEMENTS`` (10000) guards only the listing of the
group; building a system, reflecting and acting on functions never reach it.
"""

from __future__ import annotations

from functools import cache, cached_property
from math import prod
from .exactalg import MultiPoly, RatFunc, VarRegistry

MAX_POSITIVE_ROOTS = 200
MAX_WEYL_ELEMENTS = 10000


class CartanMatrix(tuple):
    """Integer Cartan matrix, a tuple of rows with cartan[i][j] = <alpha_j, alpha_i_check>.

    Any sequence of integer rows is checked once and stored as a tuple of
    tuples, so a matrix is equal to, and hashed as, its rows.
    """

    __slots__ = ()

    def __new__(cls, rows) -> "CartanMatrix":
        self = super().__new__(cls, (tuple(row) for row in rows))
        n = len(self)
        if n == 0:
            raise ValueError("empty Cartan matrix")
        if any(len(row) != n for row in self):
            raise ValueError("Cartan matrix must be square")
        for i, row in enumerate(self):
            for j, a in enumerate(row):
                if not isinstance(a, int):
                    raise ValueError("Cartan entries must be integers")
                if i == j and a != 2:
                    raise ValueError("Cartan diagonal must be 2")
                if i != j and a > 0:
                    raise ValueError("off-diagonal Cartan entries must be <= 0")
                if i != j and (a == 0) != (self[j][i] == 0):
                    raise ValueError("Cartan zero pattern must be symmetric")
        return self

    @staticmethod
    def type_A(r: int) -> "CartanMatrix":
        if r < 1:
            raise ValueError("rank must be >= 1")
        return CartanMatrix(
            [2 if i == j else (-1 if abs(i - j) == 1 else 0) for j in range(r)]
            for i in range(r)
        )

    @staticmethod
    def type_B(r: int) -> "CartanMatrix":
        if r < 2:
            raise ValueError("rank must be >= 2")
        rows = [list(row) for row in CartanMatrix.type_A(r)]
        rows[r - 1][r - 2] = -2  # short last simple root
        return CartanMatrix(rows)

    @staticmethod
    def type_G2() -> "CartanMatrix":
        return CartanMatrix(((2, -1), (-3, 2)))


class WeylElement:
    """Group element as a permutation of the system's full root list."""

    __slots__ = ("system", "perm")

    def __init__(self, system: "RootSystem", perm: tuple[int, ...]):
        self.system = system
        self.perm = perm

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, WeylElement)
            and self.system is other.system
            and self.perm == other.perm
        )

    def __hash__(self) -> int:
        return hash(self.perm)

    def __mul__(self, other: "WeylElement") -> "WeylElement":
        """Composition: (self * other) acts by other first, then self."""
        if self.system is not other.system:
            raise ValueError("elements belong to different root systems")
        return WeylElement(self.system, tuple(self.perm[p] for p in other.perm))

    def inverse(self) -> "WeylElement":
        inv = [0] * len(self.perm)
        for i, p in enumerate(self.perm):
            inv[p] = i
        return WeylElement(self.system, tuple(inv))

    @property
    def is_identity(self) -> bool:
        return all(i == p for i, p in enumerate(self.perm))

    def act(self, root: tuple[int, ...]) -> tuple[int, ...]:
        return self.system.roots[self.perm[self.system.root_index(root)]]

    def length(self) -> int:
        return len(self.inversion_set())

    def inversion_set(self) -> frozenset[tuple[int, ...]]:
        sys = self.system
        out = []
        for i in range(sys.n_positive):
            if self.perm[i] >= sys.n_positive:
                out.append(sys.roots[i])
        return frozenset(out)

    def reduced_word(self) -> tuple[int, ...]:
        """Indices (1-based) of simple reflections, shortest word, built by descents."""
        sys = self.system
        letters: list[int] = []
        cur = self
        while not cur.is_identity:
            for i, simple in enumerate(sys.simple_roots):
                if cur.perm[sys.root_index(simple)] >= sys.n_positive:
                    letters.append(i + 1)
                    cur = cur * sys.simple_reflections[i]
                    break
            else:
                raise RuntimeError("non-identity element without a descent")
        return tuple(reversed(letters))

    def word_text(self) -> str:
        word = self.reduced_word()
        return "id" if not word else "*".join(f"s{i}" for i in word)

    def __repr__(self) -> str:
        return f"<WeylElement {self.word_text()}>"


class RootSystem:
    """Finite crystallographic root system; its Weyl group is listed on first read.

    Built from a Cartan matrix or its bare rows, which are checked as
    ``CartanMatrix`` checks them.  Every root it hands out or takes is a
    coordinate tuple in the simple-root basis: ``positive_roots`` sorted by
    height, then coordinates, and ``roots`` the positives followed by their
    negatives.
    """

    def __init__(self, cartan):
        self.cartan = CartanMatrix(cartan)
        self.rank = len(self.cartan)
        self._generate_roots()
        self.identity = WeylElement(self, tuple(range(len(self.roots))))
        self.simple_reflections: tuple[WeylElement, ...] = tuple(
            self.reflection(alpha) for alpha in self.simple_roots
        )

    @staticmethod
    @cache
    def type_A(rank: int) -> "RootSystem":
        """The one A_rank the package builds type-A values over; the constructor builds anew."""
        return RootSystem(CartanMatrix.type_A(rank))

    # -- generation -----------------------------------------------------

    def _simple_reflect(self, coords: tuple[int, ...], cocoords: tuple[int, ...],
                        i: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
        A = self.cartan
        pair = sum(A[i][j] * coords[j] for j in range(self.rank))
        new_c = list(coords)
        new_c[i] -= pair
        copair = sum(cocoords[j] * A[j][i] for j in range(self.rank))
        new_b = list(cocoords)
        new_b[i] -= copair
        return tuple(new_c), tuple(new_b)

    def _generate_roots(self) -> None:
        r = self.rank
        self.simple_roots = tuple(
            tuple(1 if j == i else 0 for j in range(r)) for i in range(r)
        )
        # root -> coroot coordinates, negative roots included
        seen = {c: c for c in self.simple_roots}
        queue = list(self.simple_roots)
        while queue:
            coords = queue.pop()
            for i in range(r):
                nc, nb = self._simple_reflect(coords, seen[coords], i)
                if nc not in seen:
                    seen[nc] = nb
                    queue.append(nc)
                    if len(seen) > 2 * MAX_POSITIVE_ROOTS:
                        raise ValueError("positive root cap exceeded; input not finite type?")
        positives = []
        for g in seen:
            if min(g) >= 0:
                positives.append(g)
            elif max(g) > 0:
                raise ValueError("generated a root with mixed signs; invalid Cartan matrix")
        if len(positives) > MAX_POSITIVE_ROOTS:
            raise ValueError("positive root cap exceeded")
        positives.sort(key=lambda g: (sum(g), g))
        self.positive_roots = tuple(positives)
        self.n_positive = len(positives)
        self.roots = self.positive_roots + tuple(
            tuple(-c for c in g) for g in positives
        )
        self._index = {g: i for i, g in enumerate(self.roots)}
        self._cocoords = seen
        for g in self.roots:
            if self.pairing(g, g) != 2:
                raise AssertionError("coroot bookkeeping failed: <g, g_check> != 2")

    @cached_property
    def weyl_elements(self) -> tuple[WeylElement, ...]:
        """Every element, sorted by (length, reduced word); listed on first read."""
        order = [self.identity]
        seen = {self.identity.perm}
        for w in order:
            for s in self.simple_reflections:
                ws = w * s
                if ws.perm not in seen:
                    if len(order) == MAX_WEYL_ELEMENTS:
                        raise ValueError("Weyl element cap exceeded")
                    seen.add(ws.perm)
                    order.append(ws)
        order.sort(key=lambda w: (w.length(), w.reduced_word()))
        return tuple(order)

    # -- root-level operations -------------------------------------------

    def root_index(self, root: tuple[int, ...]) -> int:
        try:
            return self._index[root]
        except KeyError:
            raise ValueError(f"{root} is not a root of this system") from None

    def coroot_coords(self, root: tuple[int, ...]) -> tuple[int, ...]:
        self.root_index(root)
        return self._cocoords[root]

    def pairing(self, gamma: tuple[int, ...], alpha: tuple[int, ...]) -> int:
        """Integer pairing <gamma, alpha_check>."""
        A = self.cartan
        b = self.coroot_coords(alpha)
        return sum(
            b[i] * A[i][j] * gamma[j]
            for i in range(self.rank)
            for j in range(self.rank)
            if b[i] and gamma[j] and A[i][j]
        )

    def reflection(self, alpha: tuple[int, ...]) -> WeylElement:
        """s_alpha, which sends gamma to gamma - <gamma, alpha_check> alpha."""
        perm = []
        for gamma in self.roots:
            k = self.pairing(gamma, alpha)
            perm.append(self._index[tuple(g - k * a for g, a in zip(gamma, alpha))])
        return WeylElement(self, tuple(perm))

    # -- symbolic forms ------------------------------------------------------

    def root_form(self, root: tuple[int, ...]) -> MultiPoly:
        """Linear form of a root over this system's alpha_1..alpha_rank."""
        return self.registry.linear(
            {f"alpha_{i + 1}": c for i, c in enumerate(root) if c}
        )

    def _image_forms(self, w: WeylElement, roots) -> list[MultiPoly]:
        """Root forms of the w-images of roots; w must be an element of this system."""
        if w.system is not self:
            raise ValueError("the Weyl element belongs to a different root system")
        return [self.root_form(w.act(g)) for g in roots]

    def act_on_ratfunc(self, w: WeylElement, f: RatFunc) -> RatFunc:
        """Field automorphism induced by w on functions of alpha_1..alpha_rank.

        The identity returns f itself.
        """
        if w == self.identity:
            return f
        forms = self._image_forms(w, self.simple_roots)
        return f.substitute({f"alpha_{i + 1}": g for i, g in enumerate(forms)})

    def euler_class(self, w: WeylElement) -> MultiPoly:
        """Product of the w-images of all positive roots, as a polynomial."""
        return prod(self._image_forms(w, self.positive_roots), start=self.registry.one())

    @cached_property
    def registry(self) -> VarRegistry:
        """alpha_1..alpha_rank, h: the variables of this system's flag series."""
        return VarRegistry([f"alpha_{i + 1}" for i in range(self.rank)] + ["h"])

    # -- the type A weight chart --------------------------------------------

    def lambda_chart(self, weights) -> dict:
        """Bindings alpha_a -> weights[a-1] - weights[a], a = 1..rank: Part I's chart.

        weights are lambda_0..lambda_rank, polynomials over the target registry
        or numbers; Part III's chart is that of the negated weights.
        ValueError outside type A and for any other number of weights.
        """
        if self.cartan != CartanMatrix.type_A(self.rank):
            raise ValueError("lambda chart is defined for type A only")
        if len(weights) != self.rank + 1:
            raise ValueError(f"type A_{self.rank} has {self.rank + 1} weights, not {len(weights)}")
        return {f"alpha_{a}": weights[a - 1] - weights[a] for a in range(1, self.rank + 1)}
