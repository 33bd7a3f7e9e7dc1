"""Exact sparse multivariate polynomial and rational-function arithmetic.

Everything here is exact: coefficients are arbitrary-precision rationals
(`int` or `fractions.Fraction`), a polynomial is a sparse map from monomials
to nonzero coefficients, and a rational function is a quotient kept in a
lightly normalized form.  No floating point, no external CAS.  Canonical
text is output only: `text()` prints a value's canonical form, rendered
from its terms and factors, and nothing in the package reads text back,
`text()` included.

Design notes that the rest of the package relies on:

* A `VarRegistry` fixes the ordered variable set.  Polynomials over
  different registries never mix; attempting to combine them raises
  ``ValueError``.
* Polynomials, rational functions and rational numbers mix in `+`, `-`,
  `*` and `/` in either order, and the result is a `RatFunc` when one
  operand is.  `MultiPoly`'s operators return ``NotImplemented`` for an
  operand they do not know, so a `RatFunc` operand's reflected method
  coerces the polynomial.  A polynomial over a number is a polynomial
  (``ZeroDivisionError`` for 0); a polynomial over a polynomial, and a
  number over a polynomial, is a `RatFunc`.  A bool is no coefficient and
  no exponent: arithmetic with one, `**` included, raises ``TypeError``.
* Each monomial is packed into one int (Monagan & Pearce, CASC 2007): 16-bit
  fields, the total degree in the top one, then one per variable with the
  first registry variable most significant.  The top bit of every field is
  a guard that stays 0, so a total degree is at most `MAX_DEGREE` (32767).
  A monomial product is then an int sum, and x^a divides x^b exactly when
  b - a is nonnegative with every guard bit clear, since an exponent that
  would go negative borrows into its guard bit.  The constructor rejects an
  exponent vector past the bound with ``ValueError``; `*` and `**` raise
  ``OverflowError`` before building a product past it, so no field ever
  wraps.  `MultiPoly(registry, terms)` takes exponent tuples, and
  `MultiPoly.monomials()` gives them back.
* The monomial order is graded lexicographic over the registry order, which
  is plain int order on packed monomials.  It drives leading-term
  selection, canonical text output, and the sign normalization of
  denominators.
* `RatFunc` stores its denominator as a multiset of primitive factors and
  cancels them by exact trial division.  There is no multivariate gcd.
  Every denominator factor has total degree 1, as localization makes every
  denominator a product of torus characters.  `_merge_factor`, through
  which `from_factored`, `reciprocal` and `RatFunc.substitute` add factors,
  splits a monomial into its variables and raises ``ValueError`` for any
  other factor of higher degree; `divide_exact` raises it for a divisor of
  total degree above 1.  Numerators may have any degree.
* The reduced form is unique, so equality compares canonical forms.  A
  linear primitive form with a positive lead is prime in Z[x_1, ..., x_n],
  and two distinct ones are not associates.  A reduced numerator is
  divisible by none of its factors, so in s*N/D = s'*N'/D' each factor L
  occurs in D exactly as often as in D' (compare the powers of L on the two
  sides of N*D' = N'*D, up to a constant); then D = D', and N = N' and
  s = s' since both numerators are primitive with a positive lead.
* Arithmetic tries only the divisions that can succeed (Knuth, TAOCP
  Vol. 2, 4.5.1).  Two facts decide it: every factor is prime, and a
  reduced operand's factors never divide its own numerator.  So:
  - in a/F * b/G, a factor of both F and G divides neither a nor b, so it
    stays; a factor of F alone can only cancel against b, and one of G
    alone only against a, so each is divided out of that smaller numerator;
  - in a/F + b/G, a factor whose multiplicity differs between F and G
    divides exactly one of the two cross-multiplied terms, so not their
    sum; only factors of equal multiplicity are tried;
  - the reciprocal F/a shares no factor with its numerator F;
  - a linear dividend is divisible by a factor only when the two are equal,
    since both are primitive with a positive lead, so it is compared, not
    divided (`_cancel`);
  - a numerator given as factors (`from_factored`) cancels each linear one
    against an equal denominator factor by key, and the product is
    trial-divided only when a nonlinear factor is in it.
  Each rule only skips a division that would fail, so results never depend
  on it.  By Gauss's lemma an exact quotient of primitive integer
  polynomials is again primitive, which keeps every numerator canonical
  without renormalizing.
* `divide_exact` divides by a divisor g of total degree 1 by long division
  in one variable, on the primitive parts of the two operands, and scales
  the quotient by the ratio of their contents.  In the graded order the
  leading monomial of such a g is its lex-first variable x, so g = a*x + r
  with a a positive integer and r free of x.  Over Q[other variables], g
  has degree 1 in x and a unit leading coefficient, so division by g leaves
  a unique quotient and a remainder free of x; g divides exactly when that
  remainder is 0, and as the quotient is integral (Gauss's lemma) the
  division stops at the first coefficient that a does not divide.
* Substitution maps a polynomial of total degree at most 1 (every
  denominator factor) as an integer linear map.  Each variable's
  image is built once per substitution, times D, the lcm of the
  denominators of the values' coefficients, so a linear form's image is a
  few int dict updates, with no unpacking and no products, and its content
  and sign take one gcd.  `RatFunc.substitute` folds D and every content
  into the scalar in int arithmetic and builds one Fraction.  Other
  polynomials are mapped through products of powers.  A polynomial
  substitutes as the factor-free `RatFunc` it equals, so both types share
  one path.
* `partial_fractions` splits a `RatFunc` whose poles in one variable are
  distinct linear factors into first-order terms, reading the poles from
  the value's own factored denominator; the linear map evaluates each
  remaining factor at the root directly.
"""

from __future__ import annotations

import struct
from fractions import Fraction
from math import gcd, lcm, prod
from typing import Container, Iterable, Iterator, Mapping, Sequence, Union

Coeff = Union[int, Fraction]
Mono = tuple[int, ...]
# the content `MultiPoly.primitive` gives a polynomial that is its own primitive part
_ONE = Fraction(1)


class PoleError(ZeroDivisionError):
    """A substitution or division produced an identically zero denominator."""


def _as_coeff(c) -> Coeff:
    if isinstance(c, bool):
        raise TypeError("coefficient must be int or Fraction, not bool")
    if isinstance(c, int):
        return c
    if isinstance(c, Fraction):
        return int(c) if c.denominator == 1 else c
    raise TypeError(f"coefficient must be int or Fraction, got {type(c).__name__}")


# -- packed monomials --------------------------------------------------------------

# one struct "H" per field; the top bit of every field is a guard that stays 0,
# so a monomial's total degree, and with it every exponent, is at most MAX_DEGREE
_FIELD_BITS = 16
MAX_DEGREE = (1 << (_FIELD_BITS - 1)) - 1


class VarRegistry:
    """Ordered, immutable set of variable names.

    The ordering is load-bearing: it fixes the monomial order and therefore
    every canonical form downstream.  It also fixes the packed monomial
    layout: the total degree in the top field, then one field per variable,
    variable 0 most significant.
    """

    __slots__ = ("names", "_index", "_deg_shift", "_lex_mask", "_guard", "_fields",
                 "_nbytes", "_var_monos")

    def __init__(self, names: Sequence[str]):
        names = tuple(names)
        if len(set(names)) != len(names):
            raise ValueError("duplicate variable names")
        for nm in names:
            if not (nm.isascii() and nm.isidentifier()):
                raise ValueError(f"invalid variable name {nm!r}")
        self.names = names
        self._index = {nm: i for i, nm in enumerate(names)}
        n = len(names)
        self._deg_shift = n * _FIELD_BITS
        self._lex_mask = (1 << self._deg_shift) - 1
        self._guard = sum(1 << (k * _FIELD_BITS + _FIELD_BITS - 1) for k in range(n + 1))
        # the packed int's big-endian bytes are the fields, degree first
        self._fields = struct.Struct(f">{n + 1}H")
        self._nbytes = self._fields.size
        self._var_monos = tuple(
            self._pack([int(j == i) for j in range(n)]) for i in range(n)
        )

    def _pack(self, mono: Mono) -> int:
        """One int for an exponent vector whose total degree is at most MAX_DEGREE."""
        return int.from_bytes(self._fields.pack(sum(mono), *mono), "big")

    def _unpack(self, m: int) -> Mono:
        return self._fields.unpack(m.to_bytes(self._nbytes, "big"))[1:]

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise KeyError(f"unknown variable {name!r}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._index

    def __len__(self) -> int:
        return len(self.names)

    def __iter__(self):
        return iter(self.names)

    def __eq__(self, other) -> bool:
        return isinstance(other, VarRegistry) and self.names == other.names

    def __hash__(self) -> int:
        return hash(self.names)

    def __repr__(self) -> str:
        return f"VarRegistry({list(self.names)!r})"

    # -- convenience constructors -------------------------------------

    def zero(self) -> "MultiPoly":
        return MultiPoly._raw(self, {})

    def one(self) -> "MultiPoly":
        return self.const(1)

    def const(self, c: Coeff) -> "MultiPoly":
        c = _as_coeff(c)
        return MultiPoly._raw(self, {} if c == 0 else {0: c})

    def var(self, name: str) -> "MultiPoly":
        return MultiPoly._raw(self, {self._var_monos[self.index(name)]: 1})

    def linear(self, coeffs: Mapping[str, Coeff]) -> "MultiPoly":
        """Linear form sum(coeffs[name] * name)."""
        terms: dict[int, Coeff] = {}
        for nm, c in coeffs.items():
            c = _as_coeff(c)
            if c == 0:
                continue
            terms[self._var_monos[self.index(nm)]] = c
        return MultiPoly._raw(self, terms)


def _check_same_registry(a: "MultiPoly | RatFunc", b: "MultiPoly | RatFunc") -> None:
    if a.registry is not b.registry and a.registry != b.registry:
        raise ValueError("registry mismatch between operands")


def _accumulate(out: dict[int, Coeff], terms: Mapping[int, Coeff]) -> None:
    """Add packed terms into out in place, dropping coefficients that cancel."""
    for m, c in terms.items():
        acc = out.get(m)
        if acc is None:
            out[m] = c
        else:
            acc = acc + c
            if acc == 0:
                del out[m]
            else:
                out[m] = acc


def _union(p: "MultiPoly") -> int:
    """Packed monomial whose fields are nonzero where some term's field is."""
    seen = 0
    for m in p.terms:
        seen |= m
    return seen


class MultiPoly:
    """Sparse exact polynomial: packed monomial -> nonzero rational coefficient.

    `terms` is keyed by the registry's packed ints; `monomials()` yields the
    exponent tuples.
    """

    __slots__ = ("registry", "terms", "_key")

    def __init__(self, registry: VarRegistry, terms: Mapping[Mono, Coeff]):
        n = len(registry)
        clean: dict[int, Coeff] = {}
        for mono, c in terms.items():
            c = _as_coeff(c)
            if c == 0:
                continue
            mono = tuple(mono)
            if len(mono) != n or any((not isinstance(e, int)) or e < 0 for e in mono):
                raise ValueError(f"bad exponent vector {mono!r}")
            if sum(mono) > MAX_DEGREE:
                raise ValueError(f"exponent vector {mono!r} exceeds total degree {MAX_DEGREE}")
            m = registry._pack(mono)
            if m in clean:
                raise ValueError(f"duplicate exponent vector {mono!r}")
            clean[m] = c
        self.registry = registry
        self.terms = clean
        self._key = None

    @staticmethod
    def _raw(registry: VarRegistry, terms: dict[int, Coeff]) -> "MultiPoly":
        p = object.__new__(MultiPoly)
        p.registry = registry
        p.terms = terms
        p._key = None
        return p

    # -- predicates and views ------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def is_const(self) -> bool:
        return not any(self.terms)

    def const_value(self) -> Fraction:
        if self.is_zero:
            return Fraction(0)
        if not self.is_const:
            raise ValueError("polynomial is not constant")
        return Fraction(next(iter(self.terms.values())))

    def degree_in(self, name: str) -> int:
        if self.is_zero:
            return 0
        i = self.registry.index(name)
        return max(mono[i] for mono, _ in self.monomials())

    def monomials(self) -> Iterator[tuple[Mono, Coeff]]:
        """(exponent tuple, coefficient) pairs, in storage order."""
        unpack = self.registry._unpack
        for m, c in self.terms.items():
            yield unpack(m), c

    def key(self) -> tuple:
        """Canonical hashable key; also a deterministic sort key.

        A key is the sorted (monomial, coefficient) pairs: each monomial is
        packed without the degree field, which orders like its exponent
        vector, so the terms run in lex order of their vectors.
        """
        if self._key is None:
            lex = self.registry._lex_mask
            self._key = tuple(sorted((m & lex, c) for m, c in self.terms.items()))
        return self._key

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)) and not isinstance(other, bool):
            other = self.registry.const(other)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self.registry == other.registry and self.terms == other.terms

    def __hash__(self) -> int:
        # a constant equals its value, so it hashes as one
        return hash(self.const_value() if self.is_const else (self.registry, self.key()))

    # -- ring operations ------------------------------------------------

    def _coerce(self, other):
        # NotImplemented lets a RatFunc operand's reflected method run
        if isinstance(other, MultiPoly):
            _check_same_registry(self, other)
            return other
        if isinstance(other, (int, Fraction)):
            return self.registry.const(other)
        return NotImplemented

    def __add__(self, other) -> "MultiPoly":
        other = self._coerce(other)
        if other is NotImplemented:
            return other
        big, small = (self.terms, other.terms)
        if len(big) < len(small):
            big, small = small, big
        out = dict(big)
        _accumulate(out, small)
        return MultiPoly._raw(self.registry, out)

    __radd__ = __add__

    def __neg__(self) -> "MultiPoly":
        return MultiPoly._raw(self.registry, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other) -> "MultiPoly":
        other = self._coerce(other)
        return other if other is NotImplemented else self + (-other)

    def __rsub__(self, other) -> "MultiPoly":
        return (-self) + other

    def scale(self, c: Coeff) -> "MultiPoly":
        c = _as_coeff(c)
        if c == 0:
            return self.registry.zero()
        if c == 1:
            return self
        return MultiPoly._raw(self.registry, {m: v * c for m, v in self.terms.items()})

    def __mul__(self, other) -> "MultiPoly":
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        other = self._coerce(other)
        if other is NotImplemented:
            return other
        a, b = self.terms, other.terms
        if not a or not b:
            return self.registry.zero()
        if len(a) > len(b):
            a, b = b, a
        ds = self.registry._deg_shift
        if (max(a) >> ds) + (max(b) >> ds) > MAX_DEGREE:
            raise OverflowError(f"product exceeds total degree {MAX_DEGREE}")
        out: dict[int, Coeff] = {}
        for ma, ca in a.items():
            for mb, cb in b.items():
                # no field carries: the degree bound keeps every guard bit 0
                m = ma + mb
                c = ca * cb
                acc = out.get(m)
                if acc is None:
                    out[m] = c
                else:
                    acc = acc + c
                    if acc == 0:
                        del out[m]
                    else:
                        out[m] = acc
        return MultiPoly._raw(self.registry, out)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "MultiPoly | RatFunc":
        # a RatFunc divisor is left to its reflected method
        if isinstance(other, (int, Fraction)):
            return self.scale(Fraction(1, _as_coeff(other)))
        return RatFunc.from_poly(self) / other if isinstance(other, MultiPoly) else NotImplemented

    def __rtruediv__(self, other) -> "RatFunc":
        if not isinstance(other, (int, Fraction)):
            return NotImplemented
        return RatFunc.coerce(self.registry, other) / self

    def __pow__(self, n: int) -> "MultiPoly":
        if isinstance(n, bool):
            raise TypeError("exponent must be an int, not bool")
        if not isinstance(n, int) or n < 0:
            raise ValueError("polynomial exponent must be a nonnegative int")
        if n and self.terms and (max(self.terms) >> self.registry._deg_shift) * n > MAX_DEGREE:
            raise OverflowError(f"power exceeds total degree {MAX_DEGREE}")
        result = self.registry.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    # -- structure ------------------------------------------------------

    def primitive(self) -> tuple[Fraction, "MultiPoly"]:
        """Write self = scale * prim with prim integer, content 1, positive lead.

        The zero polynomial returns (0, 1) so that callers can fold the zero
        into a scalar uniformly.  A polynomial that already is primitive is
        its own primitive part, not a copy, with the shared content `_ONE`.
        """
        if self.is_zero:
            return Fraction(0), self.registry.one()
        terms = self.terms
        try:
            # one C call for the content when every coefficient is an int;
            # math.gcd refuses a Fraction
            num_gcd = gcd(*terms.values())
        except TypeError:
            pass
        else:
            if terms[max(terms)] < 0:
                num_gcd = -num_gcd
            if num_gcd == 1:
                return _ONE, self
            return Fraction(num_gcd), MultiPoly._raw(
                self.registry, {m: v // num_gcd for m, v in terms.items()})
        den_lcm = 1
        for c in self.terms.values():
            if isinstance(c, Fraction):
                den_lcm = lcm(den_lcm, c.denominator)
        num_gcd = 0
        ints: dict[int, int] = {}
        for m, c in self.terms.items():
            v = int(c * den_lcm)
            ints[m] = v
            num_gcd = gcd(num_gcd, v)
        lead = max(ints)
        if ints[lead] < 0:
            num_gcd = -num_gcd
        prim = MultiPoly._raw(self.registry, {m: v // num_gcd for m, v in ints.items()})
        return Fraction(num_gcd, den_lcm), prim

    def divide_exact(self, g: "MultiPoly") -> "MultiPoly | None":
        """Exact polynomial quotient self/g, or None if g does not divide.

        g must have total degree at most 1, ValueError otherwise; the long
        division runs on the primitive parts (see the module docstring).
        """
        _check_same_registry(self, g)
        if g.is_zero:
            raise ZeroDivisionError("division by zero polynomial")
        glead = max(g.terms)
        if glead >> self.registry._deg_shift > 1:
            raise ValueError("divisor has total degree above 1")
        if self.is_zero:
            return self
        if not glead:
            return self.scale(Fraction(1) / g.const_value())
        guard = self.registry._guard
        # glead divides a monomial iff their difference borrows from no field;
        # a borrow sets the guard bit of the lowest field that underflows.
        # The dividend's leading monomial is tested before anything is copied.
        diff = max(self.terms) - glead
        if diff < 0 or diff & guard:
            return None
        # the lowest term of a product is the product of the lowest terms, so
        # g's trailing monomial must divide the dividend's as well
        diff = min(self.terms) - min(g.terms)
        if diff < 0 or diff & guard:
            return None
        s, p = self.primitive()
        t, g = g.primitive()
        q = _divide_linear(p, g, glead)
        return q if q is None or s is t else q.scale(s / t)

    # -- substitution ----------------------------------------------------

    def substitute(self, bindings: Mapping[str, object],
                   target: VarRegistry | None = None) -> "RatFunc":
        """Exact image under the evaluation homomorphism given by bindings.

        Bound variables are replaced simultaneously by their values over
        `target`: a MultiPoly, a rational constant, or a RatFunc without a
        denominator; any other value raises.  Unbound variables must exist
        in `target` by name.  Default target is this registry.  The
        polynomial is substituted as the factor-free `RatFunc` it equals
        (see `RatFunc.substitute`).
        """
        return RatFunc.from_poly(self).substitute(bindings, target)

    # -- text ------------------------------------------------------------

    def text(self) -> str:
        return _poly_text(self)

    def __repr__(self) -> str:
        return f"<MultiPoly {self.text()}>"


def _divide_linear(p: MultiPoly, g: MultiPoly, glead: int) -> MultiPoly | None:
    """p / g for primitive integer p and g = a*x + r of total degree 1, or None.

    x is the variable of g's leading monomial glead, a > 0 and r is free of x
    (see the module docstring).  p is split once into its x-slices N_E ... N_0,
    each keyed by its monomials with x^e removed.  With Q_E = 0, the slice
    R_e = N_e - r*Q_e gives the quotient slice Q_(e-1) = R_e / a for e >= 1,
    and g divides p exactly when R_0 = 0; a remainder mod a proves failure.
    """
    reg = p.registry
    a = g.terms[glead]
    rest = [(m, c) for m, c in g.terms.items() if m != glead]
    shift = (glead & reg._lex_mask).bit_length() - 1
    field = (1 << _FIELD_BITS) - 1
    slices: dict[int, dict[int, int]] = {}
    for m, c in p.terms.items():
        e = m >> shift & field
        got = slices.get(e)
        if got is None:
            slices[e] = {m - e * glead: c}
        else:
            got[m - e * glead] = c
    q: dict[int, int] = {}
    prev: dict[int, int] = {}
    for e in range(max(slices), 0, -1):
        cur = _minus_product(slices.get(e, {}), rest, prev)
        if a != 1:
            for m, c in cur.items():
                c, rem = divmod(c, a)
                if rem:
                    return None
                cur[m] = c
        offset = (e - 1) * glead
        for m, c in cur.items():
            q[m + offset] = c
        prev = cur
    return None if _minus_product(slices.get(0, {}), rest, prev) else MultiPoly._raw(reg, q)


def _minus_product(n: Mapping[int, Coeff], r: list[tuple[int, Coeff]],
                   q: Mapping[int, Coeff]) -> dict[int, Coeff]:
    """The terms of n - r*q, as a new dict."""
    out = dict(n)
    for mr, cr in r:
        for mq, cq in q.items():
            mm = mq + mr
            acc = out.get(mm, 0) - cq * cr
            if acc:
                out[mm] = acc
            else:
                del out[mm]
    return out


def _poly_text(p: MultiPoly) -> str:
    if p.is_zero:
        return "0"
    chunks: list[str] = []
    for m in sorted(p.terms, reverse=True):
        c = Fraction(p.terms[m])
        mono = p.registry._unpack(m)
        parts = []
        for e, nm in zip(mono, p.registry.names):
            if e == 1:
                parts.append(nm)
            elif e > 1:
                parts.append(f"{nm}^{e}")
        mag = abs(c)
        if not parts or mag != 1:
            parts.insert(0, str(mag))
        body = "*".join(parts)
        if not chunks:
            chunks.append(body if c > 0 else f"-{body}")
        else:
            chunks.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(chunks)


class _Evaluation:
    """The evaluation homomorphism of one substitution, prepared once.

    Each binding is turned into a MultiPoly over the target and the unbound
    variables that occur are mapped into the target once.  `occurs` is a
    packed monomial whose nonzero fields mark the variables that the mapped
    polynomials use.  A value is a MultiPoly over the target, a rational
    constant, or a RatFunc without a denominator: ValueError for a value
    with a denominator or over another registry, TypeError for any other.

    `table` maps the packed monomial of each such variable, and the constant
    monomial 0, to its image times `scale` as (target monomial, int) pairs;
    `scale` is the lcm of the denominators of the values' coefficients.  A
    polynomial of total degree at most 1 is mapped through it; any other
    through products of powers (`_expand`), with one power cache per
    substitution.
    """

    __slots__ = ("target", "values", "resid", "scale", "table", "_powers")

    def __init__(self, source: VarRegistry, occurs: int, bindings: Mapping[str, object],
                 target: VarRegistry | None):
        target = target if target is not None else source
        occurs = source._unpack(occurs)
        values: dict[int, MultiPoly] = {}
        resid: dict[int, int] = {}
        for i, nm in enumerate(source.names):
            if nm in bindings:
                v = bindings[nm]
                if isinstance(v, RatFunc):
                    v = v.as_poly()
                if not isinstance(v, MultiPoly):
                    v = target.const(v)
                elif v.registry != target:
                    raise ValueError("registry mismatch between operands")
                values[i] = v
            elif occurs[i]:
                if nm not in target:
                    raise ValueError(f"variable {nm!r} unbound and absent from target registry")
                resid[i] = target.index(nm)
        for nm in bindings:
            if nm not in source:
                raise KeyError(f"binding for unknown variable {nm!r}")
        # an int is a rational over 1, and lcm() of nothing is 1
        scale = lcm(*(c.denominator for v in values.values() for c in v.terms.values()))
        table = {0: ((0, scale),)}
        for i, v in values.items():
            table[source._var_monos[i]] = tuple(
                (m, c.numerator * (scale // c.denominator)) for m, c in v.terms.items())
        for i, j in resid.items():
            table[source._var_monos[i]] = ((target._var_monos[j], scale),)
        self.target = target
        self.resid = resid
        self.values = values
        self.scale = scale
        self.table = table
        self._powers: dict[tuple[int, int], MultiPoly] = {}

    def _power(self, i: int, e: int) -> MultiPoly:
        got = self._powers.get((i, e))
        if got is None:
            got = self.values[i] ** e
            self._powers[(i, e)] = got
        return got

    def _residual(self, mono: Mono) -> int:
        tm = [0] * len(self.target)
        for i, j in self.resid.items():
            tm[j] = mono[i]
        return self.target._pack(tm)

    def primitive_image(self, p: MultiPoly) -> tuple[int, int, MultiPoly]:
        """(a, b, prim) with p(values) = a/b * prim, prim as `MultiPoly.primitive` gives it.

        A zero image has a = 0.  For p of total degree at most 1, scale *
        p(values) is a sum of `table` rows, all int when p is, so its content
        takes one gcd; any other p goes through `_expand`.
        """
        if max(p.terms, default=0) >> p.registry._deg_shift > 1:
            img, scale = self._expand(p), 1
        else:
            table = self.table
            out: dict[int, Coeff] = {}
            for m, c in p.terms.items():
                for tm, tc in table[m]:
                    acc = out.get(tm)
                    if acc is None:
                        out[tm] = c * tc
                    else:
                        acc += c * tc
                        if acc:
                            out[tm] = acc
                        else:
                            del out[tm]
            img, scale = MultiPoly._raw(self.target, out), self.scale
        s, prim = img.primitive()
        return s.numerator, s.denominator * scale, prim

    def _expand(self, p: MultiPoly) -> MultiPoly:
        unpack = p.registry._unpack
        # terms that share their bound exponents share one product of powers
        groups: dict[Mono, dict[int, Coeff]] = {}
        for m, c in p.terms.items():
            mono = unpack(m)
            groups.setdefault(tuple(mono[i] for i in self.values), {})[self._residual(mono)] = c
        out: dict[int, Coeff] = {}
        for exps, terms in groups.items():
            img = MultiPoly._raw(self.target, terms)
            for i, e in zip(self.values, exps):
                if e:
                    img = self._power(i, e) * img
            _accumulate(out, img.terms)
        return MultiPoly._raw(self.target, out)


def _factor_parts(p: MultiPoly) -> list[tuple[MultiPoly, int]]:
    """A primitive nonconstant denominator factor as (factor, multiplicity) pairs.

    A monomial is kept as its variables, so `RatFunc.text` prints each as a
    bare name, and a numerator can cancel against each of them.
    """
    if len(p.terms) != 1:
        return [(p, 1)]
    ((exps, _),) = p.monomials()
    reg = p.registry
    return [(reg.var(nm), e) for nm, e in zip(reg.names, exps) if e]


def _merge_factor(fac: dict[tuple, tuple[MultiPoly, int]], p: MultiPoly, mult: int) -> None:
    """Add the primitive factor p to fac mult times, split by `_factor_parts`.

    A constant p adds nothing, and equal factors merge into one multiplicity.
    ValueError unless every part is linear (see the module docstring).
    """
    if p.is_const:
        return
    for f, e in _factor_parts(p):
        if max(f.terms) >> f.registry._deg_shift > 1:
            raise ValueError(f"denominator factor {f.text()} is not linear; build the "
                             "function with from_factored from its linear factors")
        k = f.key()
        fac[k] = (f, fac[k][1] + e * mult if k in fac else e * mult)


def _cancel(num: MultiPoly, f: MultiPoly, mult: int) -> tuple[MultiPoly, int]:
    """Divide f out of num up to mult times; the quotient and the multiplicity left.

    num and the linear f are primitive with a positive lead, so a nonconstant
    f never divides a constant num, and divides a linear num only when the
    two are equal, with quotient 1: neither needs a division.
    """
    if mult and max(num.terms, default=0) >> num.registry._deg_shift == 1:
        return (num.registry.one(), mult - 1) if num.terms == f.terms else (num, mult)
    while mult and not num.is_const:
        q = num.divide_exact(f)
        if q is None:
            break
        num = q
        mult -= 1
    return num, mult


class RatFunc:
    """Exact rational function with a factored, trial-division-reduced denominator.

    Canonical layout: ``scalar * num / prod(factor**mult)`` where `num` and
    every factor are primitive integer polynomials with positive leading
    coefficient, a monomial factor is a single variable, the factor list is
    sorted, and `num` is divisible by no factor.  The zero function is
    scalar 0 with empty denominator.  Every factor is linear, so this form is
    unique and equality compares it (see the module docstring).
    """

    __slots__ = ("registry", "scalar", "num", "factors")

    def __init__(self, *args, **kwargs):
        raise TypeError("use RatFunc.from_poly / from_factored / coerce")

    @staticmethod
    def _make(registry: VarRegistry, scalar: Fraction, num: MultiPoly,
              factors: tuple[tuple[MultiPoly, int], ...]) -> "RatFunc":
        f = object.__new__(RatFunc)
        f.registry = registry
        f.scalar = scalar
        f.num = num
        f.factors = factors
        return f

    # -- constructors ----------------------------------------------------

    @staticmethod
    def zero(registry: VarRegistry) -> "RatFunc":
        return RatFunc._make(registry, Fraction(0), registry.one(), ())

    @staticmethod
    def one(registry: VarRegistry) -> "RatFunc":
        return RatFunc._make(registry, Fraction(1), registry.one(), ())

    @staticmethod
    def from_poly(p: MultiPoly) -> "RatFunc":
        s, prim = p.primitive()
        if s == 0:
            return RatFunc.zero(p.registry)
        return RatFunc._make(p.registry, s, prim, ())

    @staticmethod
    def coerce(registry: VarRegistry, x) -> "RatFunc":
        if isinstance(x, RatFunc):
            if x.registry != registry:
                raise ValueError("registry mismatch between operands")
            return x
        if isinstance(x, MultiPoly):
            if x.registry != registry:
                raise ValueError("registry mismatch between operands")
            return RatFunc.from_poly(x)
        if isinstance(x, (int, Fraction)):
            # the zero function is this form with scalar 0; a bool raises
            return RatFunc._make(registry, Fraction(_as_coeff(x)), registry.one(), ())
        raise TypeError(f"cannot interpret {type(x).__name__} as RatFunc")

    @staticmethod
    def from_factored(num: MultiPoly | Sequence[MultiPoly], dens: Iterable[MultiPoly],
                      scale: Coeff = 1) -> "RatFunc":
        """Build num / (scale * the product of dens), keeping dens factored.

        `num` is a polynomial or a nonempty sequence of polynomial factors.
        Every content is folded into the scalar in ints, which meet `scale`
        in one Fraction.  A linear numerator factor cancels against an equal
        denominator factor by key; the numerator factors left are multiplied
        out once, and the product is trial-divided only when one of them is
        nonlinear (see the module docstring).
        """
        nums = (num,) if isinstance(num, MultiPoly) else tuple(num)
        if not nums:
            raise ValueError("a numerator needs at least one factor")
        registry = nums[0].registry
        scale = Fraction(scale)
        if scale == 0:
            raise ZeroDivisionError("zero denominator scale")
        up, down = scale.denominator, scale.numerator
        prims = []
        for p in nums:
            _check_same_registry(nums[0], p)
            s, prim = p.primitive()
            if s == 0:
                return RatFunc.zero(registry)
            up *= s.numerator
            down *= s.denominator
            if not prim.is_const:
                prims.append(prim)
        fac: dict[tuple, tuple[MultiPoly, int]] = {}
        for d in dens:
            _check_same_registry(nums[0], d)
            if d.is_zero:
                raise ZeroDivisionError("zero denominator factor")
            ds, dp = d.primitive()
            up *= ds.denominator
            down *= ds.numerator
            _merge_factor(fac, dp, 1)
        kept: list[MultiPoly] = []
        trial: Container[tuple] = ()
        for p in prims:
            if max(p.terms) >> registry._deg_shift > 1:
                # a kept linear factor differs from every factor left in
                # fac, so only this one can cancel one: try them all
                trial = fac
            else:
                k = p.key()
                if k in fac and fac[k][1]:
                    fac[k] = (fac[k][0], fac[k][1] - 1)
                    continue
            kept.append(p)
        num = prod(kept) if kept else registry.one()
        return RatFunc._reduced(registry, Fraction(up, down), num, fac, trial)

    @staticmethod
    def _reduced(registry: VarRegistry, scalar: Fraction, num: MultiPoly,
                 fac: dict[tuple, tuple[MultiPoly, int]],
                 trial: Container[tuple]) -> "RatFunc":
        """Cancel the factors keyed in `trial` from num, and sort.

        num must be primitive with a positive leading coefficient.  An exact
        quotient by a primitive factor keeps both properties (Gauss's lemma),
        so the result needs no renormalization.  Factors left out of `trial`
        must be known not to divide num; multiplicity 0 drops a factor.
        """
        if scalar == 0 or num.is_zero:
            return RatFunc.zero(registry)
        out: list[tuple[MultiPoly, int]] = []
        for k in sorted(fac):
            f, mult = fac[k]
            if k in trial:
                num, mult = _cancel(num, f, mult)
            if mult:
                out.append((f, mult))
        return RatFunc._make(registry, scalar, num, tuple(out))

    # -- views -------------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return self.scalar == 0

    @property
    def numerator(self) -> MultiPoly:
        """Numerator of the canonical pair (scalar folded in)."""
        return self.num.scale(self.scalar)

    @property
    def denominator(self) -> MultiPoly:
        """Expanded denominator: primitive, positive leading coefficient."""
        den = self.registry.one()
        for f, m in self.factors:
            den = den * f ** m
        return den

    def as_poly(self) -> MultiPoly:
        if self.factors:
            raise ValueError("rational function has a nontrivial denominator")
        return self.numerator

    def const_value(self) -> Fraction:
        if self.factors or not self.num.is_const:
            raise ValueError("rational function is not constant")
        return self.scalar * self.num.const_value()

    # -- arithmetic ----------------------------------------------------------

    def _factor_dict(self) -> dict[tuple, tuple[MultiPoly, int]]:
        return {f.key(): (f, m) for f, m in self.factors}

    def __add__(self, other) -> "RatFunc":
        other = RatFunc.coerce(self.registry, other)
        if self.is_zero:
            return other
        if other.is_zero:
            return self
        fa = self._factor_dict()
        fb = other._factor_dict()
        union = dict(fa)
        for k, (f, m) in fb.items():
            if k not in fa or fa[k][1] < m:
                union[k] = (f, m)

        def lift(num: MultiPoly, own: dict) -> MultiPoly:
            # times each union factor, up to the multiplicity that own lacks
            for k, (f, m) in union.items():
                for _ in range(m - own[k][1] if k in own else m):
                    num = num * f
            return num

        sa, sb = self.scalar, other.scalar
        q = sa.denominator * sb.denominator
        num = (lift(self.num, fa).scale(sa.numerator * sb.denominator)
               + lift(other.num, fb).scale(sb.numerator * sa.denominator))
        if num.is_zero:
            return RatFunc.zero(self.registry)
        s, prim = num.primitive()
        # a prime of unequal multiplicity divides exactly one of the two
        # cross-multiplied terms, so it cannot divide their sum
        trial = {k for k, (_, m) in fa.items() if k in fb and fb[k][1] == m}
        return RatFunc._reduced(self.registry, s / q, prim, union, trial)

    __radd__ = __add__

    def __neg__(self) -> "RatFunc":
        return RatFunc._make(self.registry, -self.scalar, self.num, self.factors)

    def __sub__(self, other) -> "RatFunc":
        return self + (-RatFunc.coerce(self.registry, other))

    def __rsub__(self, other) -> "RatFunc":
        return (-self) + other

    def __mul__(self, other) -> "RatFunc":
        other = RatFunc.coerce(self.registry, other)
        if self.is_zero or other.is_zero:
            return RatFunc.zero(self.registry)
        scalar = self.scalar * other.scalar
        fa = self._factor_dict()
        fb = other._factor_dict()
        merged = dict(fa)
        # every factor is prime and divides neither operand's own numerator:
        # a shared one stays, and one of a single operand can cancel only
        # against the other operand's numerator
        a, b = self.num, other.num
        for k, (f, m) in fa.items():
            if k not in fb:
                b, m = _cancel(b, f, m)
                merged[k] = (f, m)
        for k, (f, m) in fb.items():
            if k in fa:
                merged[k] = (f, fa[k][1] + m)
            else:
                a, m = _cancel(a, f, m)
                merged[k] = (f, m)
        return RatFunc._reduced(self.registry, scalar, a * b, merged, ())

    __rmul__ = __mul__

    def reciprocal(self) -> "RatFunc":
        if self.is_zero:
            raise ZeroDivisionError("division by the zero rational function")
        fac: dict[tuple, tuple[MultiPoly, int]] = {}
        _merge_factor(fac, self.num, 1)
        # no old factor divides the old numerator, so the old numerator's
        # factors share no prime with the new one
        return RatFunc._reduced(self.registry, 1 / self.scalar, self.denominator, fac, ())

    def __truediv__(self, other) -> "RatFunc":
        other = RatFunc.coerce(self.registry, other)
        return self * other.reciprocal()

    def __rtruediv__(self, other) -> "RatFunc":
        return RatFunc.coerce(self.registry, other) * self.reciprocal()

    def __pow__(self, n: int) -> "RatFunc":
        if isinstance(n, bool):
            raise TypeError("exponent must be an int, not bool")
        if not isinstance(n, int):
            raise ValueError("exponent must be an int")
        if n < 0:
            return self.reciprocal() ** (-n)
        if n == 0:
            return RatFunc.one(self.registry)
        # already reduced: no factor divides num, and being prime none divides
        # num**n, which is primitive with a positive lead (Gauss's lemma)
        return RatFunc._make(self.registry, self.scalar**n, self.num**n,
                             tuple((f, m * n) for f, m in self.factors))

    def __eq__(self, other) -> bool:
        if isinstance(other, MultiPoly) and other.registry != self.registry:
            # unequal, as between two RatFuncs; only arithmetic raises
            return False
        if isinstance(other, (int, Fraction, MultiPoly)) and not isinstance(other, bool):
            other = RatFunc.coerce(self.registry, other)
        if not isinstance(other, RatFunc):
            return NotImplemented
        return (self.registry == other.registry and self.scalar == other.scalar
                and self.num == other.num
                and [(f.key(), m) for f, m in self.factors]
                == [(f.key(), m) for f, m in other.factors])

    # -- substitution ---------------------------------------------------------

    def substitute(self, bindings: Mapping[str, object],
                   target: VarRegistry | None = None) -> "RatFunc":
        """Simultaneous exact substitution; raises PoleError on a vanishing denominator.

        A value is a MultiPoly over the target, a rational constant, or a
        RatFunc without a denominator; any other value raises (see
        `MultiPoly.substitute`).  One prepared evaluation maps the numerator
        and every factor to polynomials, and the image is built in one
        reduction: its scalar is the numerator image's content times
        `scalar` over each factor image's content to its multiplicity, its
        factors are the factor images' primitive parts, and each is
        trial-divided out of the numerator image up to its total
        multiplicity.  That is the canonical form that dividing by the images
        one at a time reaches: a linear form is prime, so both cancel it
        min(its multiplicity in the numerator image, its total multiplicity)
        times.

        The images come from `_Evaluation.primitive_image`: a linear
        numerator or factor is mapped by the integer linear map, with its
        content and sign taken by one gcd.  Every content meets `scalar` in
        one Fraction at the end.  Equal images merge, a monomial image splits
        into its variables, a constant image joins the scalar, and any other
        nonlinear image raises ValueError, as in `from_factored`.  A zero
        factor image raises PoleError before the numerator is mapped.
        """
        occurs = _union(self.num)
        for f, _ in self.factors:
            occurs |= _union(f)
        ev = _Evaluation(self.registry, occurs, bindings, target)
        if self.is_zero:
            return RatFunc.zero(ev.target)
        # the scalar is up/down, built in ints
        up, down = self.scalar.numerator, self.scalar.denominator
        fac: dict[tuple, tuple[MultiPoly, int]] = {}
        for f, m in self.factors:
            a, b, prim = ev.primitive_image(f)
            if not a:
                raise PoleError("substitution makes a denominator factor vanish")
            up *= b ** m
            down *= a ** m
            _merge_factor(fac, prim, m)
        a, b, num = ev.primitive_image(self.num)
        return RatFunc._reduced(ev.target, Fraction(up * a, down * b), num, fac, fac)

    # -- text -------------------------------------------------------------------

    def text(self, times: str | None = None) -> str:
        """Canonical display: integer numerator over the factored denominator.

        The scalar's denominator is printed as a leading integer inside the
        denominator parentheses, e.g. 1/(2(a + h)(a + 2*h)); a lone factor
        keeps only the outer parentheses.  A monomial factor is a bare name,
        with a `*` before it when the factor before is a bare name to the
        first power, e.g. 1/(x*y) and 1/(x^2y).  `times` is printed as one
        more numerator factor, in place of a numerator of 1: q/(a + h),
        (a + b)*q/(a + h), and (a + b)*q for a polynomial.
        """
        num = self.num.scale(self.scalar.numerator) if self.factors else self.numerator
        num_text = _poly_text(num)
        if len(num.terms) > 1 and (self.factors or times):
            num_text = f"({num_text})"
        if times:
            num_text = times if num == 1 else f"{num_text}*{times}"
        if not self.factors:
            return num_text
        pieces: list[str] = []
        if self.scalar.denominator != 1:
            pieces.append(str(self.scalar.denominator))
        lone = not pieces and len(self.factors) == 1
        after_name = False
        for f, m in self.factors:
            ft = _poly_text(f)
            power = "" if m == 1 else f"^{m}"
            # a monomial factor is a single variable (see _factor_parts)
            if len(f.terms) == 1:
                # juxtaposed, two names would read as one
                pieces.append(f"{'*' if after_name else ''}{ft}{power}")
                after_name = m == 1
            else:
                pieces.append(ft if lone and m == 1 else f"({ft}){power}")
                after_name = False
        return f"{num_text}/({''.join(pieces)})"

    def __repr__(self) -> str:
        return f"<RatFunc {self.text()}>"


# -- module-level convenience functions ----------------------------------------


def substitute(f: RatFunc | MultiPoly, bindings: Mapping[str, object],
               target: VarRegistry | None = None) -> RatFunc:
    """Exact evaluation homomorphism on a polynomial or rational function.

    A value is a MultiPoly over the target, a rational constant, or a
    RatFunc without a denominator; any other value raises.
    """
    return f.substitute(bindings, target)


def homogeneous_degree(f: RatFunc | MultiPoly):
    """Total degree of f if numerator and denominator are homogeneous.

    Returns an int, or None when either side mixes total degrees.  The
    zero function reports 0.
    """
    if isinstance(f, MultiPoly):
        sides = [(f, 1)]
    else:
        sides = [(f.num, 1)] + [(p, -m) for p, m in f.factors]
    total = 0
    for p, sign in sides:
        # the top field of a packed monomial is its total degree
        degrees = {mono >> p.registry._deg_shift for mono in p.terms}
        if len(degrees) > 1:
            return None
        total += sign * max(degrees, default=0)
    return total


# -- partial fractions ---------------------------------------------------------


def partial_fractions(f: RatFunc, var: str,
                      factors: Sequence[MultiPoly]) -> list[tuple[RatFunc, MultiPoly]]:
    """Split f into terms residue_k / factor_k, one per linear factor a*var + b.

    The terms sum to f.  A residue is f * factor at the root -b/a, read off
    f's own factored denominator; it is 0 where f's canonical form has
    cancelled the factor.  ValueError unless each factor is a*var + b with a
    a nonzero constant and b free of var, no two share a root, every factor
    of f's denominator that involves var is listed (up to a constant) with
    multiplicity 1, and a nonzero f has numerator degree in var below the
    number of those poles.
    """
    registry = f.registry
    x = registry._var_monos[registry.index(var)]
    roots: dict[tuple, MultiPoly] = {}
    for factor in factors:
        _check_same_registry(f, factor)
        a = factor.terms.get(x, 0)
        b = MultiPoly._raw(registry, {m: c for m, c in factor.terms.items() if m != x})
        if a == 0 or b.degree_in(var):
            raise ValueError("factor is not a*var + b with a nonzero constant a and b free of var")
        # two linear forms share a root iff they are proportional, that is
        # iff their primitive parts coincide
        key = factor.primitive()[1].key()
        if key in roots:
            raise ValueError("two factors share a root")
        roots[key] = b.scale(Fraction(-1) / a)
    poles = {p.key(): m for p, m in f.factors if p.degree_in(var)}
    if any(k not in roots or m != 1 for k, m in poles.items()):
        raise ValueError("every pole in var must be a listed factor of multiplicity 1")
    if not f.is_zero and f.num.degree_in(var) >= len(poles):
        raise ValueError("numerator degree must be below the number of poles")
    out: list[tuple[RatFunc, MultiPoly]] = []
    for factor, (key, root) in zip(factors, roots.items()):
        if key not in poles:
            # f * factor keeps factor in its numerator, which vanishes at the root
            out.append((RatFunc.zero(registry), factor))
            continue
        # f * factor drops the pole and keeps the factor's content; one
        # evaluation at the root maps its numerator and remaining factors
        rest = tuple((p, m) for p, m in f.factors if p.key() != key)
        g = RatFunc._make(registry, f.scalar * factor.primitive()[0], f.num, rest)
        out.append((g.substitute({var: root}), factor))
    return out


def recombine(decomposition: Iterable[tuple[RatFunc, MultiPoly]],
              registry: VarRegistry) -> RatFunc:
    """Sum residue/factor terms back into a single rational function."""
    total = RatFunc.zero(registry)
    for residue, factor in decomposition:
        total = total + residue / factor
    return total
