"""Sparse multivariate Laurent polynomials over exact rationals.

Variables live at 1-based positions of an m x p grid; a registry fixes
which positions carry a variable and numbers them row-major, so values
from different grids can never be mixed silently.  Exponents may be
negative.  The term map of every polynomial is kept normalized (no zero
coefficients), which makes equality structural.  Division ``a / b`` is
exact: it returns the Laurent polynomial q with q*b = a and raises
:class:`InexactDivisionError` when there is none.

A coefficient is an ``int`` whenever its value is integral and a
``Fraction`` only when it is not.  Generic matrices, bracket tables and
restoration by monomial pivots stay in the integers, so most arithmetic
runs on plain ints; an operation checks for integral Fractions to demote
only when one of its operands carries a Fraction.  Equal ints and
Fractions compare and hash alike and print alike, so the rule changes no
equality and no text form.

Canonical text form: terms in descending lexicographic exponent order,
each printed as ``coeff * t[i,a]^e * ...`` with the coefficient always
present and zero exponents omitted, e.g.
``1 * t[1,1]^1 + 1 * t[1,2]^1 * t[2,1]^1 * t[2,2]^-1``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Iterator, Mapping, Sequence

from .errors import InexactDivisionError, RegistryMismatchError

Exponents = tuple[int, ...]

_ZERO = Fraction(0)


def _canonical(c: Fraction) -> "int | Fraction":
    """The coefficient form of a rational: int when integral."""
    return c.numerator if c.denominator == 1 else c


def _has_fraction(terms: dict) -> bool:
    return Fraction in map(type, terms.values())


def _demote(terms: dict) -> None:
    """Turn integral Fraction coefficients into ints, in place."""
    for e, c in terms.items():
        if type(c) is Fraction and c.denominator == 1:
            terms[e] = c.numerator


def _quotient(x, y) -> "int | Fraction":
    """x / y in coefficient form: an int quotient when it is exact."""
    if type(x) is int and type(y) is int:
        q, r = divmod(x, y)
        return Fraction(x, y) if r else q
    return _canonical(x / y)


def _term_map_mul(a: dict, b: dict) -> dict:
    """Product of two sparse exponent-vector -> coefficient maps.

    Keys are equal-length tuples of ints; zero coefficients are dropped so
    the result is normalized whenever the inputs are, and its coefficients
    are in int-while-integral form whenever the inputs' are.
    """
    if len(a) > len(b):
        a, b = b, a
    out: dict = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            c = out.get(e)
            if c is None:
                out[e] = ca * cb
            else:
                c = c + ca * cb
                if c:
                    out[e] = c
                else:
                    del out[e]
    if _has_fraction(a) or _has_fraction(b):
        _demote(out)
    return out


@dataclass(frozen=True)
class VarRegistry:
    """The grid positions carrying a variable, in row-major order."""

    m: int
    p: int
    positions: tuple[tuple[int, int], ...]
    _index: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.m < 1 or self.p < 1:
            raise ValueError("grid dimensions must be positive")
        index: dict[tuple[int, int], int] = {}
        for k, (i, a) in enumerate(self.positions):
            if not (1 <= i <= self.m and 1 <= a <= self.p):
                raise ValueError(f"position {(i, a)} outside the {self.m}x{self.p} grid")
            if (i, a) in index:
                raise ValueError(f"duplicate position {(i, a)}")
            index[(i, a)] = k
        if list(self.positions) != sorted(self.positions):
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

    def contains(self, i: int, a: int) -> bool:
        return (i, a) in self._index

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

    def one(self) -> "LaurentPoly":
        return self.const(1)

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

    def gens(self) -> tuple["LaurentPoly", ...]:
        return tuple(self.gen(k) for k in range(len(self.positions)))


class LaurentPoly:
    """Immutable sparse Laurent polynomial bound to a :class:`VarRegistry`."""

    __slots__ = ("registry", "terms")

    def __init__(self, registry: VarRegistry, terms: Mapping[Exponents, object]):
        n = len(registry)
        normalized: dict[Exponents, int | Fraction] = {}
        for e, c in terms.items():
            e = tuple(int(x) for x in e)
            if len(e) != n:
                raise ValueError(f"exponent vector {e} has length {len(e)}, expected {n}")
            c = _canonical(Fraction(c))
            if c:
                acc = normalized.get(e)
                if acc is None:
                    normalized[e] = c
                else:
                    acc = _canonical(Fraction(acc + c))
                    if acc:
                        normalized[e] = acc
                    else:
                        del normalized[e]
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

    # -- predicates ------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def is_monomial(self) -> bool:
        return len(self.terms) == 1

    def constant_value(self) -> Fraction:
        """The rational value of a constant polynomial."""
        if not self.terms:
            return _ZERO
        ((e, c),) = self.terms.items()
        if any(e):
            raise ValueError(f"not a constant: {self}")
        return Fraction(c)

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
        if _has_fraction(self.terms) or _has_fraction(o.terms):
            _demote(out)
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

    def __pow__(self, n: int) -> "LaurentPoly":
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return self.inverse() ** (-n)
        result = self.registry.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def inverse(self) -> "LaurentPoly":
        """Inverse of a unit (a single-term polynomial)."""
        if len(self.terms) != 1:
            raise InexactDivisionError(f"not a unit in the Laurent ring: {self}")
        ((e, c),) = self.terms.items()
        return LaurentPoly._raw(self.registry, {tuple(-x for x in e): _quotient(1, c)})

    def __truediv__(self, other) -> "LaurentPoly":
        """Exact quotient; see :func:`laurent_div_exact`."""
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return laurent_div_exact(self, o)

    # -- calculus --------------------------------------------------------

    def partial(self, k: int) -> "LaurentPoly":
        """Formal partial derivative with respect to the k-th variable.

        Valid for negative exponents too: d(t^e)/dt = e * t^(e-1).
        """
        out: dict[Exponents, int | Fraction] = {}
        for e, c in self.terms.items():
            x = e[k]
            if x:
                e2 = e[:k] + (x - 1,) + e[k + 1:]
                acc = out.get(e2)
                nc = c * x if acc is None else acc + c * x
                if nc:
                    out[e2] = nc
                else:
                    out.pop(e2, None)
        if _has_fraction(self.terms):
            _demote(out)
        return LaurentPoly._raw(self.registry, out)

    def evaluate(self, values: Sequence) -> Fraction:
        """Evaluate at rational values, one per registry variable.

        Variables occurring with a negative exponent must get a nonzero
        value.
        """
        vals = [Fraction(v) for v in values]
        if len(vals) != len(self.registry):
            raise ValueError("wrong number of values")
        total = _ZERO
        for e, c in self.terms.items():
            term = c
            for v, x in zip(vals, e):
                if x:
                    term *= v**x
            total += term
        return total

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
        factors = [f.strip() for f in term.split("*")]
        if factors and factors[0] == "-":
            # a bare joined minus, as in "a - t[1,1]^1"
            coeff = -coeff
            factors[0] = ""
        for pos, factor in enumerate(factors):
            if not factor:
                if pos == 0:
                    continue
                raise ValueError(f"malformed term {term!r}")
            if factor.startswith("-t["):
                coeff = -coeff
                factor = factor[1:]
            mvar = _VAR_RE.match(factor)
            if mvar:
                i, a = int(mvar.group(1)), int(mvar.group(2))
                x = int(mvar.group(3)) if mvar.group(3) is not None else 1
                e[registry.index(i, a)] += x
            elif _RAT_RE.match(factor):
                coeff *= Fraction(factor)
            else:
                raise ValueError(f"unrecognized factor {factor!r} in {text!r}")
        key = tuple(e)
        acc = _canonical(terms.get(key, _ZERO) + coeff)
        if acc:
            terms[key] = acc
        else:
            terms.pop(key, None)
    return LaurentPoly._raw(registry, terms)
