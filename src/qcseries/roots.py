"""Finite root systems from Cartan matrices, with Weyl groups as root permutations.

The generator closes the simple roots under simple reflections, carrying two
integer coordinate vectors for every root: coordinates in the simple-root
basis and coordinates of its coroot in the simple-coroot basis.  Carrying
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

from functools import cached_property
from math import prod
from .exactalg import MultiPoly, RatFunc, VarRegistry

MAX_POSITIVE_ROOTS = 200
MAX_WEYL_ELEMENTS = 10000


class _Value:
    """Read-only value object, equal and hashed by its one field.

    The field is set once, in the subclass's __init__, through
    object.__setattr__; assigning or deleting an attribute afterwards raises
    AttributeError.
    """

    __slots__ = ()

    def _key(self):
        return getattr(self, self.__slots__[0])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key() == other._key()
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self._key(),))

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.__slots__[0]}={self._key()!r})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class CartanMatrix(_Value):
    """Integer Cartan matrix, rows indexed so that rows[i][j] = <alpha_j, alpha_i_check>."""

    __slots__ = ("rows",)

    def __init__(self, rows: tuple[tuple[int, ...], ...]):
        object.__setattr__(self, "rows", rows)
        n = len(rows)
        if n == 0:
            raise ValueError("empty Cartan matrix")
        for i, row in enumerate(rows):
            if len(row) != n:
                raise ValueError("Cartan matrix must be square")
            for j, a in enumerate(row):
                if not isinstance(a, int):
                    raise ValueError("Cartan entries must be integers")
                if i == j and a != 2:
                    raise ValueError("Cartan diagonal must be 2")
                if i != j and a > 0:
                    raise ValueError("off-diagonal Cartan entries must be <= 0")
                if i != j and (a == 0) != (rows[j][i] == 0):
                    raise ValueError("Cartan zero pattern must be symmetric")

    @property
    def rank(self) -> int:
        return len(self.rows)

    @staticmethod
    def type_A(r: int) -> "CartanMatrix":
        if r < 1:
            raise ValueError("rank must be >= 1")
        rows = tuple(
            tuple(2 if i == j else (-1 if abs(i - j) == 1 else 0) for j in range(r))
            for i in range(r)
        )
        return CartanMatrix(rows)

    @staticmethod
    def type_B(r: int) -> "CartanMatrix":
        if r < 2:
            raise ValueError("rank must be >= 2")
        rows = [
            [2 if i == j else (-1 if abs(i - j) == 1 else 0) for j in range(r)]
            for i in range(r)
        ]
        rows[r - 1][r - 2] = -2  # short last simple root
        return CartanMatrix(tuple(tuple(row) for row in rows))

    @staticmethod
    def type_G2() -> "CartanMatrix":
        return CartanMatrix(((2, -1), (-3, 2)))


class Root(_Value):
    """Root written in the simple-root basis; integer coordinates."""

    __slots__ = ("coords",)

    def __init__(self, coords: tuple[int, ...]):
        object.__setattr__(self, "coords", coords)

    @property
    def is_positive(self) -> bool:
        return any(self.coords) and all(c >= 0 for c in self.coords)

    @property
    def height(self) -> int:
        return sum(self.coords)

    def __neg__(self) -> "Root":
        return Root(tuple(-c for c in self.coords))


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

    def act(self, root: Root) -> Root:
        return self.system.roots[self.perm[self.system.root_index(root)]]

    def length(self) -> int:
        return len(self.inversion_set())

    def inversion_set(self) -> frozenset[Root]:
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
            for i in range(sys.rank):
                if not cur.act(sys.simple_roots[i]).is_positive:
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
    """Finite crystallographic root system; its Weyl group is listed on first read."""

    def __init__(self, cartan: CartanMatrix):
        self.cartan = cartan
        self.rank = cartan.rank
        self._generate_roots()
        self.identity = WeylElement(self, tuple(range(len(self.roots))))
        self.simple_reflections: tuple[WeylElement, ...] = tuple(
            self.reflection(alpha) for alpha in self.simple_roots
        )

    # -- generation -----------------------------------------------------

    def _simple_reflect(self, coords: tuple[int, ...], cocoords: tuple[int, ...],
                        i: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
        A = self.cartan.rows
        pair = sum(A[i][j] * coords[j] for j in range(self.rank))
        new_c = list(coords)
        new_c[i] -= pair
        copair = sum(cocoords[j] * A[j][i] for j in range(self.rank))
        new_b = list(cocoords)
        new_b[i] -= copair
        return tuple(new_c), tuple(new_b)

    def _generate_roots(self) -> None:
        r = self.rank
        seen: dict[tuple[int, ...], tuple[int, ...]] = {}
        queue: list[tuple[int, ...]] = []
        for i in range(r):
            c = tuple(1 if j == i else 0 for j in range(r))
            seen[c] = c
            queue.append(c)
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
        for coords in seen:
            root = Root(coords)
            if root.is_positive:
                positives.append(root)
            elif not (-root).is_positive:
                raise ValueError("generated a root with mixed signs; invalid Cartan matrix")
        if len(positives) > MAX_POSITIVE_ROOTS:
            raise ValueError("positive root cap exceeded")
        positives.sort(key=lambda g: (g.height, g.coords))
        self.positive_roots: tuple[Root, ...] = tuple(positives)
        self.n_positive = len(positives)
        self.roots: tuple[Root, ...] = tuple(positives) + tuple(-g for g in positives)
        self._index = {g.coords: i for i, g in enumerate(self.roots)}
        self._cocoords: dict[tuple[int, ...], tuple[int, ...]] = {}
        for coords, b in seen.items():
            self._cocoords[coords] = b
        self.simple_roots = tuple(
            Root(tuple(1 if j == i else 0 for j in range(r))) for i in range(r)
        )
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

    def root_index(self, root: Root) -> int:
        try:
            return self._index[root.coords]
        except KeyError:
            raise ValueError(f"{root} is not a root of this system") from None

    def coroot_coords(self, root: Root) -> tuple[int, ...]:
        self.root_index(root)
        return self._cocoords[root.coords]

    def pairing(self, gamma: Root, alpha: Root) -> int:
        """Integer pairing <gamma, alpha_check>."""
        A = self.cartan.rows
        b = self.coroot_coords(alpha)
        a = gamma.coords
        return sum(
            b[i] * A[i][j] * a[j]
            for i in range(self.rank)
            for j in range(self.rank)
            if b[i] and a[j] and A[i][j]
        )

    def reflect(self, alpha: Root, gamma: Root) -> Root:
        """Reflection of gamma in the hyperplane of alpha."""
        k = self.pairing(gamma, alpha)
        return Root(tuple(g - k * a for g, a in zip(gamma.coords, alpha.coords)))

    def reflection(self, alpha: Root) -> WeylElement:
        perm = tuple(self._index[self.reflect(alpha, g).coords] for g in self.roots)
        return WeylElement(self, perm)

    # -- symbolic forms ------------------------------------------------------

    def root_form(self, root: Root) -> MultiPoly:
        """Linear form of a root over this system's alpha_1..alpha_rank."""
        return self.registry.linear(
            {f"alpha_{i + 1}": c for i, c in enumerate(root.coords) if c}
        )

    def _image_forms(self, w: WeylElement, roots: tuple[Root, ...]) -> list[MultiPoly]:
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

    # -- type A lambda charts ----------------------------------------------

    def _require_type_A(self) -> None:
        if self.cartan != CartanMatrix.type_A(self.rank):
            raise ValueError("lambda chart is defined for type A only")

    def lambda_chart(self, target: VarRegistry, part: str) -> dict[str, MultiPoly]:
        """Bindings alpha_i -> difference of lambda variables, by explicit flag.

        part='part1' maps alpha_i to lambda_{i-1} - lambda_i; part='part3'
        maps alpha_i to lambda_i - lambda_{i-1}.  The target registry must
        contain lambda_0..lambda_rank.
        """
        self._require_type_A()
        if part not in ("part1", "part3"):
            raise ValueError("part must be 'part1' or 'part3'")
        out: dict[str, MultiPoly] = {}
        for i in range(1, self.rank + 1):
            prev = target.var(f"lambda_{i - 1}")
            cur = target.var(f"lambda_{i}")
            out[f"alpha_{i}"] = prev - cur if part == "part1" else cur - prev
        return out
