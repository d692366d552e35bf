"""Sparse multivariate Laurent polynomials over exact rationals.

Variables live at 1-based positions of an m x p grid; a registry fixes
which positions carry a variable and numbers them row-major, so values
from different grids can never be mixed silently.  Exponents may be
negative.  The term map of every polynomial is kept normalized (no zero
coefficients), which makes equality structural.  Division ``a / b`` is
exact: it returns the Laurent polynomial q with q*b = a and raises
:class:`InexactDivisionError` when there is none.

Coefficients are ``int`` or ``Fraction``.  The entry points (the
constructor, `VarRegistry.const` and `parse_laurent`) and exact division
store an integral value as an ``int``; sums, products and partial
derivatives keep the type exact arithmetic gives, so ints stay ints and
a Fraction that cancels to an integer may stay a Fraction.  Generic
matrices, bracket tables and restoration by monomial pivots stay in the
integers, so most arithmetic runs on plain ints.  Equal ints and
Fractions compare, hash and print alike, so the type changes no equality
and no text form.

Canonical text form: terms in descending lexicographic exponent order,
each printed as ``coeff * t[i,a]^e * ...`` with the coefficient always
present and zero exponents omitted, e.g.
``1 * t[1,1]^1 + 1 * t[1,2]^1 * t[2,1]^1 * t[2,2]^-1``.
"""

from __future__ import annotations

import operator
import re
from fractions import Fraction
from typing import Iterable, Iterator, Mapping

from ._value import _Value
from .errors import InexactDivisionError, RegistryMismatchError

Exponents = tuple[int, ...]

_ZERO = Fraction(0)


def _canonical(c: Fraction) -> "int | Fraction":
    """The coefficient form of a rational: int when integral."""
    return c.numerator if c.denominator == 1 else c


def _quotient(x, y) -> "int | Fraction":
    """x / y in coefficient form: an int quotient when it is exact."""
    if type(x) is int and type(y) is int:
        q, r = divmod(x, y)
        return Fraction(x, y) if r else q
    return _canonical(x / y)


def _term_map_mul(a: dict, b: dict) -> dict:
    """Product of two sparse exponent-vector -> coefficient maps.

    Keys are equal-length tuples of ints; zero coefficients are dropped so
    the result is normalized whenever the inputs are.
    """
    if len(a) > len(b):
        a, b = b, a
    out: dict = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(map(operator.add, ea, eb))
            c = out.get(e)
            if c is None:
                out[e] = ca * cb
            else:
                c = c + ca * cb
                if c:
                    out[e] = c
                else:
                    del out[e]
    return out


class VarRegistry(_Value):
    """The grid positions carrying a variable, in row-major order."""

    __slots__ = ("m", "p", "positions", "_index")
    _fields = ("m", "p", "positions")  # `_index` is derived from them

    def __init__(self, m: int, p: int, positions: tuple[tuple[int, int], ...]) -> None:
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "positions", positions)
        if m < 1 or p < 1:
            raise ValueError("grid dimensions must be positive")
        index: dict[tuple[int, int], int] = {}
        for k, (i, a) in enumerate(positions):
            if not (1 <= i <= m and 1 <= a <= p):
                raise ValueError(f"position {(i, a)} outside the {m}x{p} grid")
            if (i, a) in index:
                raise ValueError(f"duplicate position {(i, a)}")
            index[(i, a)] = k
        if list(positions) != sorted(positions):
            raise ValueError("positions must be listed in row-major order")
        object.__setattr__(self, "_index", index)

    @classmethod
    def grid(cls, m: int, p: int, skip: Iterable[tuple[int, int]] = ()) -> "VarRegistry":
        """Registry over every grid cell except those in `skip`."""
        omitted = frozenset((int(i), int(a)) for i, a in skip)
        positions = tuple(
            (i, a)
            for i in range(1, m + 1)
            for a in range(1, p + 1)
            if (i, a) not in omitted
        )
        return cls(m, p, positions)

    def __len__(self) -> int:
        return len(self.positions)

    def index(self, i: int, a: int) -> int:
        try:
            return self._index[(i, a)]
        except KeyError:
            raise ValueError(f"no variable at position {(i, a)}") from None

    def name(self, k: int) -> str:
        i, a = self.positions[k]
        return f"t[{i},{a}]"

    def zero(self) -> "LaurentPoly":
        return LaurentPoly._raw(self, {})

    def const(self, value) -> "LaurentPoly":
        c = _canonical(Fraction(value))
        if not c:
            return LaurentPoly._raw(self, {})
        return LaurentPoly._raw(self, {(0,) * len(self.positions): c})

    def gen(self, k: int) -> "LaurentPoly":
        e = [0] * len(self.positions)
        e[k] = 1
        return LaurentPoly._raw(self, {tuple(e): 1})

    def var(self, i: int, a: int) -> "LaurentPoly":
        return self.gen(self.index(i, a))


class LaurentPoly:
    """Immutable sparse Laurent polynomial bound to a :class:`VarRegistry`."""

    __slots__ = ("registry", "terms")

    def __init__(self, registry: VarRegistry, terms: Mapping[Exponents, object]):
        n = len(registry)
        normalized: dict[Exponents, int | Fraction] = {}
        for e, c in terms.items():
            try:
                e = tuple(map(operator.index, e))
            except TypeError:
                raise TypeError(f"exponent vector {e!r} is not a tuple of integers") from None
            if len(e) != n:
                raise ValueError(f"exponent vector {e} has length {len(e)}, expected {n}")
            c = _canonical(Fraction(c))
            if c:
                normalized[e] = c
        object.__setattr__(self, "registry", registry)
        object.__setattr__(self, "terms", normalized)

    @classmethod
    def _raw(cls, registry: VarRegistry, terms: dict) -> "LaurentPoly":
        """Wrap an already-normalized term map without copying or checking."""
        self = object.__new__(cls)
        object.__setattr__(self, "registry", registry)
        object.__setattr__(self, "terms", terms)
        return self

    def __setattr__(self, name, value):  # pragma: no cover - guard only
        raise AttributeError("LaurentPoly is immutable")

    def __reduce__(self):
        # copy and pickle rebuild through the constructor: the default
        # slot-state restore would assign through `__setattr__`
        return type(self), (self.registry, self.terms)

    # -- predicates ------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    # -- ring operations -------------------------------------------------

    def _coerce(self, other) -> "LaurentPoly | None":
        if isinstance(other, LaurentPoly):
            if other.registry is not self.registry and other.registry != self.registry:
                raise RegistryMismatchError(
                    "operands belong to different variable registries"
                )
            return other
        if isinstance(other, (int, Fraction)):
            return self.registry.const(other)
        return None

    def __eq__(self, other) -> bool:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.terms == o.terms

    __hash__ = None  # type: ignore[assignment]

    def __add__(self, other) -> "LaurentPoly":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        out = dict(self.terms)
        for e, c in o.terms.items():
            acc = out.get(e)
            if acc is None:
                out[e] = c
            else:
                acc = acc + c
                if acc:
                    out[e] = acc
                else:
                    del out[e]
        return LaurentPoly._raw(self.registry, out)

    __radd__ = __add__

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly._raw(self.registry, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other) -> "LaurentPoly":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other) -> "LaurentPoly":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other) -> "LaurentPoly":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if not self.terms or not o.terms:
            return LaurentPoly._raw(self.registry, {})
        return LaurentPoly._raw(self.registry, _term_map_mul(self.terms, o.terms))

    __rmul__ = __mul__

    def __truediv__(self, other) -> "LaurentPoly":
        """Exact quotient; see :func:`laurent_div_exact`."""
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return laurent_div_exact(self, o)

    # -- calculus --------------------------------------------------------

    def partial(self, k: int) -> "LaurentPoly":
        """Formal partial derivative with respect to the k-th variable.

        Valid for negative exponents too: d(t^e)/dt = e * t^(e-1).  Terms
        with distinct exponents stay distinct, so none merge or cancel.
        """
        out = {
            e[:k] + (e[k] - 1,) + e[k + 1:]: c * e[k]
            for e, c in self.terms.items()
            if e[k]
        }
        return LaurentPoly._raw(self.registry, out)

    # -- text form -------------------------------------------------------

    def sorted_terms(self) -> list[tuple[Exponents, int | Fraction]]:
        """Terms in canonical (descending lexicographic) order."""
        return sorted(self.terms.items(), key=lambda t: t[0], reverse=True)

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        reg = self.registry
        parts = []
        for e, c in self.sorted_terms():
            factors = [str(c)]
            for k, x in enumerate(e):
                if x:
                    factors.append(f"{reg.name(k)}^{x}")
            parts.append(" * ".join(factors))
        return " + ".join(parts)

    __repr__ = __str__


def laurent_div_exact(a: LaurentPoly, b: LaurentPoly) -> LaurentPoly:
    """Exact quotient a/b in the Laurent ring.

    Raises :class:`InexactDivisionError` when no Laurent polynomial q with
    q*b = a exists, and ZeroDivisionError when b = 0.
    """
    if a.registry is not b.registry and a.registry != b.registry:
        raise RegistryMismatchError("operands belong to different variable registries")
    if b.is_zero:
        raise ZeroDivisionError("Laurent division by zero")
    reg = a.registry
    if a.is_zero:
        return reg.zero()
    if len(b.terms) == 1:
        ((be, bc),) = b.terms.items()
        return LaurentPoly._raw(
            reg,
            {tuple(x - y for x, y in zip(e, be)): _quotient(c, bc) for e, c in a.terms.items()},
        )
    # Shift both operands into the polynomial cone.  Componentwise minimal
    # exponents are additive under multiplication (the coefficient ring is
    # an integral domain), so the shifted quotient is an honest polynomial
    # whenever the Laurent quotient exists.
    sa = _componentwise_min(a.terms)
    sb = _componentwise_min(b.terms)
    rem = {tuple(x - y for x, y in zip(e, sa)): c for e, c in a.terms.items()}
    bpoly = {tuple(x - y for x, y in zip(e, sb)): c for e, c in b.terms.items()}
    blead = max(bpoly)
    bleadc = bpoly[blead]
    quo: dict[Exponents, int | Fraction] = {}
    while rem:
        rlead = max(rem)
        diff = tuple(x - y for x, y in zip(rlead, blead))
        if any(d < 0 for d in diff):
            raise InexactDivisionError(f"({a}) is not divisible by ({b})")
        qc = _quotient(rem[rlead], bleadc)
        quo[diff] = qc
        for e, c in bpoly.items():
            e2 = tuple(x + y for x, y in zip(e, diff))
            acc = rem.get(e2, 0) - qc * c
            if acc:
                rem[e2] = acc
            else:
                rem.pop(e2, None)
    shift = tuple(x - y for x, y in zip(sa, sb))
    return LaurentPoly._raw(
        reg, {tuple(x + y for x, y in zip(e, shift)): c for e, c in quo.items()}
    )


def _componentwise_min(terms: Mapping[Exponents, int | Fraction]) -> Exponents:
    it: Iterator[Exponents] = iter(terms)
    lo = list(next(it))
    for e in it:
        for k, x in enumerate(e):
            if x < lo[k]:
                lo[k] = x
    return tuple(lo)


# -- parsing ---------------------------------------------------------------

_VAR_RE = re.compile(r"t\[(\d+),(\d+)\](?:\^(-?\d+))?$")
_RAT_RE = re.compile(r"-?\d+(/\d+)?$")


def parse_rational(text: str) -> Fraction:
    """Read a literal ``num`` or ``num/den``; ValueError names a literal
    that is not one or whose denominator is 0."""
    s = text.strip()
    if not _RAT_RE.match(s):
        raise ValueError(f"not a rational literal: {text!r}")
    try:
        return Fraction(s)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None


def parse_laurent(text: str, registry: VarRegistry) -> LaurentPoly:
    """Parse the canonical text form.

    ``a - b`` is accepted as a synonym for ``a + -b`` (the joins must be
    space-separated, so minus signs inside exponents are unaffected), and
    a variable without an exponent means exponent 1.
    """
    prepared = text.strip().replace(" - ", " + -")
    if not prepared:
        raise ValueError("empty polynomial text")
    n = len(registry)
    terms: dict[Exponents, int | Fraction] = {}
    for term in prepared.split(" + "):
        coeff = Fraction(1)
        e = [0] * n
        for factor in (f.strip() for f in term.split("*")):
            if factor in ("", "-"):
                raise ValueError(f"malformed term {term!r} in {text!r}")
            if factor.startswith("-t["):
                coeff = -coeff
                factor = factor[1:]
            mvar = _VAR_RE.match(factor)
            if mvar:
                i, a = int(mvar.group(1)), int(mvar.group(2))
                x = int(mvar.group(3)) if mvar.group(3) is not None else 1
                e[registry.index(i, a)] += x
            elif _RAT_RE.match(factor):
                coeff *= parse_rational(factor)
            else:
                raise ValueError(f"unrecognized factor {factor!r} in {text!r}")
        key = tuple(e)
        acc = _canonical(terms.get(key, _ZERO) + coeff)
        if acc:
            terms[key] = acc
        else:
            terms.pop(key, None)
    return LaurentPoly._raw(registry, terms)
