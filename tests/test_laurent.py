import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tnncells import (
    InexactDivisionError,
    LaurentPoly,
    RegistryMismatchError,
    VarRegistry,
    laurent_div_exact,
    parse_laurent,
)
from tnncells.laurent import _quotient

R = VarRegistry.grid(2, 2)
T11, T12, T21, T22 = (R.gen(k) for k in range(4))


def poly(terms: dict) -> LaurentPoly:
    return LaurentPoly(R, {e: Fraction(c) for e, c in terms.items()})


coeffs = st.fractions(min_value=-50, max_value=50, max_denominator=20)
exponents = st.tuples(*[st.integers(min_value=-3, max_value=3)] * 4)
polys = st.dictionaries(exponents, coeffs, max_size=5).map(lambda d: LaurentPoly(R, d))
nonzero_polys = polys.filter(bool)
int_coeffs = st.integers(min_value=-50, max_value=50)
int_polys = st.dictionaries(exponents, int_coeffs, max_size=5).map(lambda d: LaurentPoly(R, d))


class TestRegistry:
    def test_grid_names_and_indices(self):
        assert len(R) == 4
        assert R.name(0) == "t[1,1]"
        assert R.name(3) == "t[2,2]"
        assert R.index(2, 1) == 2
        assert R.positions == ((1, 1), (1, 2), (2, 1), (2, 2))

    def test_a_registry_is_its_grid_shape(self):
        reg = VarRegistry(2, 3)
        assert reg == VarRegistry.grid(2, 3) and reg != VarRegistry.grid(3, 2)
        assert len(reg) == 6
        assert [reg.index(i, a) for i, a in reg.positions] == list(range(6))
        assert [reg.name(k) for k in range(6)] == [
            "t[1,1]", "t[1,2]", "t[1,3]", "t[2,1]", "t[2,2]", "t[2,3]"
        ]

    @pytest.mark.parametrize("pos", [(0, 1), (1, 0), (3, 1), (1, 4)])
    def test_index_rejects_a_position_outside_the_grid(self, pos):
        with pytest.raises(ValueError, match=r"no variable at position"):
            VarRegistry.grid(2, 3).index(*pos)

    @pytest.mark.parametrize("m,p", [(0, 2), (2, 0)])
    def test_rejects_an_empty_grid(self, m, p):
        with pytest.raises(ValueError, match="grid dimensions must be positive"):
            VarRegistry(m, p)

    def test_var_lookup(self):
        assert R.var(1, 2) == T12
        assert R.var(2, 2) == T22


class TestArithmetic:
    def test_zero_and_one(self):
        assert R.zero().is_zero
        assert not R.zero()
        assert R.const(1) == 1
        assert T11 + (-T11) == R.zero()
        assert T11 * R.const(1) == T11
        assert T11 * R.zero() == R.zero()

    def test_small_golden(self):
        f = (T11 + T12) * (T11 - T12)
        assert f == T11 * T11 - T12 * T12

    @given(polys, polys, polys)
    def test_ring_axioms(self, a, b, c):
        assert a + b == b + a
        assert (a + b) + c == a + (b + c)
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c

    @given(polys)
    def test_neg_and_sub(self, a):
        assert a - a == R.zero()
        assert -(-a) == a

    def test_pow_negative_needs_monomial(self):
        # only a monomial is a unit of the Laurent ring
        with pytest.raises(InexactDivisionError):
            R.const(1) / (T11 + T12)

    def test_inverse_monomial(self):
        m = poly({(1, 0, 0, -2): Fraction(3, 5)})
        assert m * (R.const(1) / m) == R.const(1)

    def test_scalar_coercion(self):
        assert 2 * T11 == T11 + T11
        assert T11 + 0 == T11
        assert (T11 + 1) - 1 == T11
        assert Fraction(1, 2) * (T11 + T11) == T11

    def test_scalar_minus_poly(self):
        assert 3 - T11 == R.const(3) - T11 == poly({(0, 0, 0, 0): 3, (1, 0, 0, 0): -1})
        assert Fraction(1, 2) - T11 == -(T11 - Fraction(1, 2))

    def test_other_operands_are_not_implemented(self):
        for name in ("__eq__", "__add__", "__sub__", "__rsub__", "__mul__"):
            assert getattr(T11, name)("x") is NotImplemented, name
        assert T11 != "t[1,1]" and not T11 == "t[1,1]"
        for op in (lambda: T11 + "x", lambda: T11 - "x", lambda: "x" - T11, lambda: T11 * "x"):
            with pytest.raises(TypeError):
                op()

    def test_rejects_an_exponent_of_the_wrong_length(self):
        with pytest.raises(ValueError, match=r"exponent vector \(1, 2, 3\) has length 3, expected 4"):
            LaurentPoly(R, {(1, 2, 3): 1})

    def test_cross_registry_rejected(self):
        other = VarRegistry.grid(1, 4)  # as many variables, another shape
        with pytest.raises(RegistryMismatchError):
            T11 + other.var(1, 1)

    def test_rejects_a_float_exponent(self):
        # truncating it would make (1.5, ...) and (1, ...) one term
        with pytest.raises(TypeError, match="not a tuple of integers"):
            LaurentPoly(R, {(1.5, 0, 0, 0): 1, (1, 0, 0, 0): 1})

    def test_rejects_a_string_exponent(self):
        with pytest.raises(TypeError, match="not a tuple of integers"):
            LaurentPoly(R, {("2", 0, 0, 0): 1})

    def test_immutable(self):
        with pytest.raises(AttributeError):
            T11.terms = {}
        assert T11.__hash__ is None


class TestDivision:
    def test_monomial_division_is_exact(self):
        # dividing by a nonzero monomial always succeeds in the Laurent ring
        q = laurent_div_exact(T12, T11)
        assert q == poly({(-1, 1, 0, 0): 1})
        assert str(q) == "1 * t[1,1]^-1 * t[1,2]^1"

    def test_polynomial_division(self):
        a = (T11 + T12) * (T21 + T22) * poly({(-3, 0, 0, 0): 1})
        assert laurent_div_exact(a, T21 + T22) == poly({(-2, 0, 0, 0): 1, (-3, 1, 0, 0): 1})

    @given(polys, nonzero_polys)
    def test_roundtrip(self, a, b):
        assert laurent_div_exact(a * b, b) == a

    def test_inexact_pairs_raise(self):
        with pytest.raises(InexactDivisionError):
            laurent_div_exact(T11 + 1, T12 + 1)
        with pytest.raises(InexactDivisionError):
            laurent_div_exact(T11, T11 + T12)

    def test_zero_divisor_raises(self):
        with pytest.raises(ZeroDivisionError):
            laurent_div_exact(T11, R.zero())

    def test_cross_registry_raises(self):
        other = VarRegistry.grid(1, 4)  # as many variables, another shape
        with pytest.raises(RegistryMismatchError, match="different variable registries"):
            laurent_div_exact(T11, other.var(1, 1))

    def test_zero_dividend(self):
        assert laurent_div_exact(R.zero(), T11 + T12) == R.zero()


class TestPartials:
    def test_generator_partial(self):
        k = R.index(1, 1)
        assert T11.partial(k) == R.const(1)
        assert T12.partial(k) == R.zero()

    def test_negative_exponent(self):
        k = R.index(1, 1)
        f = poly({(-1, 0, 0, 0): 1})
        assert f.partial(k) == poly({(-2, 0, 0, 0): -1})

    @given(polys, polys)
    def test_product_rule(self, f, g):
        for k in range(4):
            lhs = (f * g).partial(k)
            assert lhs == f.partial(k) * g + f * g.partial(k)


class TestEvaluateAndText:
    def test_str_canonical_order(self):
        f = T22 + T11  # lex-descending on exponent vectors: t[1,1] first
        assert str(f) == "1 * t[1,1]^1 + 1 * t[2,2]^1"
        assert str(R.zero()) == "0"
        assert str(R.const(Fraction(-3, 4))) == "-3/4"
        assert str(poly({(-1, 1, 1, 0): 1})) == "1 * t[1,1]^-1 * t[1,2]^1 * t[2,1]^1"

    @given(polys)
    def test_parse_str_roundtrip(self, f):
        assert parse_laurent(str(f), R) == f

    def test_parse_forms(self):
        assert parse_laurent("t[1,1]", R) == T11
        assert parse_laurent("-t[1,1]", R) == -T11
        assert parse_laurent("2 * t[1,2]^2 * t[2,1]^-1", R) == poly({(0, 2, -1, 0): 2})
        assert parse_laurent("t[1,1] - t[1,2]", R) == T11 - T12
        assert parse_laurent("3/4", R) == R.const(Fraction(3, 4))

    def test_parse_rejects_unknown_variable(self):
        for text in ("t[3,1]", "t[1,3]", "t[0,1]"):
            with pytest.raises(ValueError, match=r"no variable at position"):
                parse_laurent(text, R)

    @pytest.mark.parametrize("text", ["", "   "])
    def test_parse_rejects_empty_text(self, text):
        with pytest.raises(ValueError, match="empty polynomial text"):
            parse_laurent(text, R)

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_laurent("t[1,1] & t[1,2]", R)
        # a term with an empty factor, or a sign and no factor
        for text, term in (
            ("-", "-"),
            ("t[1,1] + -", "-"),
            ("* t[1,1]", "* t[1,1]"),
            ("- * t[1,1]", "- * t[1,1]"),
            ("t[1,1] +  + t[1,2]", ""),
        ):
            with pytest.raises(ValueError, match=f"malformed term {re.escape(repr(term))}"):
                parse_laurent(text, R)
        with pytest.raises(ValueError, match="zero denominator in '0/0'"):
            parse_laurent("t[1,1] + 0/0", R)


def assert_int_while_integral(f: LaurentPoly) -> None:
    """Every coefficient is an int exactly when its value is integral."""
    for c in f.terms.values():
        assert type(c) in (int, Fraction), f
        assert (type(c) is int) == (Fraction(c).denominator == 1), f


HALF = Fraction(1, 2)


class TestTrueDivision:
    """`/` is exact division in the Laurent ring."""

    def test_matches_laurent_div_exact(self):
        assert (T11 * T22) / T22 == T11
        a = (T11 + T12) * (T21 - T22)
        assert a / (T21 - T22) == laurent_div_exact(a, T21 - T22)

    def test_monomial_divisor(self):
        q = T12 / T11
        assert q == poly({(-1, 1, 0, 0): 1})
        assert str(q) == "1 * t[1,1]^-1 * t[1,2]^1"
        assert_int_while_integral(q)
        assert (6 * T11 * T12) / (3 * T11) == 2 * T12
        assert ((6 * T11 * T12) / (3 * T11)).terms == {(0, 1, 0, 0): 2}
        assert (T11 / (2 * T12)).terms == {(1, -1, 0, 0): HALF}

    def test_multi_term_divisor(self):
        b = T21 + HALF * T22
        # (T11 + T12) * T11^-3, 2 * T12 - T11 * T22^-1 and 1
        cases = (
            poly({(-2, 0, 0, 0): 1, (-3, 1, 0, 0): 1}),
            poly({(0, 1, 0, 0): 2, (1, 0, 0, -1): -1}),
            R.const(1),
        )
        for a in cases:
            q = (a * b) / b
            assert q == a
            assert_int_while_integral(q)
        q = (T11 + T12) / (2 * T11 + 2 * T12)
        assert q == R.const(HALF)
        assert_int_while_integral(q)
        q = (2 * T11 + 2 * T12) / (HALF * T11 + HALF * T12)
        assert q.terms == {(0, 0, 0, 0): 4}

    def test_int_and_fraction_divisors(self):
        q = (2 * T11 + 4) / 2
        assert q == T11 + 2
        assert all(type(c) is int for c in q.terms.values())
        q = T11 / 2
        assert q.terms == {(1, 0, 0, 0): HALF}
        q = (HALF * T11) / Fraction(1, 6)
        assert q.terms == {(1, 0, 0, 0): 3}
        assert type(q.terms[(1, 0, 0, 0)]) is int
        assert R.zero() / 5 == R.zero()

    @given(polys, nonzero_polys)
    def test_roundtrip(self, a, b):
        q = (a * b) / b
        assert q == a
        assert_int_while_integral(q)

    def test_inexact_raises(self):
        with pytest.raises(InexactDivisionError):
            (T11 + 1) / (T12 + 1)
        with pytest.raises(InexactDivisionError):
            T11 / (T11 + T12)

    def test_zero_divisor_raises(self):
        with pytest.raises(ZeroDivisionError):
            T11 / R.zero()
        with pytest.raises(ZeroDivisionError):
            T11 / 0

    def test_cross_registry_raises(self):
        other = VarRegistry.grid(1, 4)  # as many variables, another shape
        with pytest.raises(RegistryMismatchError):
            T11 / other.var(1, 1)

    def test_unsupported_divisor(self):
        with pytest.raises(TypeError):
            T11 / "t[1,1]"
        with pytest.raises(TypeError):
            T11 / 1.5


class TestCoefficientForm:
    """The entry points and exact division store an integral value as an
    int; sums, products and partials keep the type exact arithmetic gives,
    which changes no value and no text form."""

    def test_fraction_becomes_integral_under_mul(self):
        for f in (HALF * (2 * T11), R.const(HALF) * (2 * T11), (2 * T11) * HALF):
            assert f == T11
            assert f.terms == {(1, 0, 0, 0): 1}
            assert str(f) == "1 * t[1,1]^1"
        f = (HALF * T11 + T12) * (HALF * T11 - T12)
        assert f == poly({(2, 0, 0, 0): Fraction(1, 4), (0, 2, 0, 0): -1})
        assert str(f) == "1/4 * t[1,1]^2 + -1 * t[1,2]^2"

    def test_add_and_sub(self):
        for f, want, text in (
            (HALF * T11 + HALF * T11, T11, "1 * t[1,1]^1"),
            (Fraction(3, 2) * T11 - HALF * T11, T11, "1 * t[1,1]^1"),
            ((HALF * T11 + T12) + (HALF * T11 - T12), T11, "1 * t[1,1]^1"),
            (1 + (HALF * T11 + HALF) + HALF, HALF * T11 + 2, "1/2 * t[1,1]^1 + 2"),
            (HALF * T11 + T12, HALF * T11 + T12, "1/2 * t[1,1]^1 + 1 * t[1,2]^1"),
        ):
            assert f == want
            assert str(f) == text

    def test_partial(self):
        k = R.index(1, 1)
        f = poly({(2, 0, 0, 0): HALF, (3, 1, 0, 0): Fraction(1, 3)}).partial(k)
        assert f == T11 + T11 * T11 * T12
        assert str(f) == "1 * t[1,1]^2 * t[1,2]^1 + 1 * t[1,1]^1"
        f = poly({(2, 0, 0, 0): Fraction(1, 3)}).partial(k)
        assert f.terms == {(1, 0, 0, 0): Fraction(2, 3)}
        assert str(f) == "2/3 * t[1,1]^1"

    def test_pow_and_inverse(self):
        one = R.const(1)
        assert (one / (HALF * T11)).terms == {(-1, 0, 0, 0): 2}
        assert (one / -T11).terms == {(-1, 0, 0, 0): -1}
        assert (one / (2 * T11)).terms == {(-1, 0, 0, 0): HALF}
        for f in (one / (HALF * T11), one / (4 * T11 * T11), poly({(3, 0, 0, -3): 8})):
            assert_int_while_integral(f)
        f = (HALF * T11 + HALF * T12) * (HALF * T11 + HALF * T12)
        assert str(f) == "1/4 * t[1,1]^2 + 1/2 * t[1,1]^1 * t[1,2]^1 + 1/4 * t[1,2]^2"

    def test_exact_division(self):
        cases = [
            (6 * T11 * T12, 3 * T11, 2 * T12),
            (T11, 2 * T12, poly({(1, -1, 0, 0): HALF})),
            (HALF * T11 + HALF * T12, T11 + T12, R.const(HALF)),
            (2 * T11 + 2 * T12, HALF * T11 + HALF * T12, R.const(4)),
            ((2 * T11 + 2 * T12) * (T11 - T22), Fraction(2, 3) * (T11 + T12), 3 * (T11 - T22)),
            ((T11 + 3 * T12) * (T21 - T22), 2 * T21 - 2 * T22, HALF * T11 + Fraction(3, 2) * T12),
        ]
        for a, b, q in cases:
            got = laurent_div_exact(a, b)
            assert got == q
            assert_int_while_integral(got)

    def test_quotient_of_ints_is_int_when_exact(self):
        assert type(_quotient(6, 3)) is int and _quotient(6, 3) == 2
        assert type(_quotient(-6, 3)) is int and _quotient(-6, 3) == -2
        assert _quotient(7, 2) == Fraction(7, 2)
        assert type(_quotient(Fraction(3, 2), HALF)) is int and _quotient(Fraction(3, 2), HALF) == 3
        assert _quotient(1, Fraction(2, 3)) == Fraction(3, 2)

    def test_entry_points(self):
        e = (0, 0, 0, 0)
        assert R.const(Fraction(4, 2)).terms == {e: 2}
        assert type(R.const(Fraction(4, 2)).terms[e]) is int
        assert type(R.const(Fraction(1, 3)).terms[e]) is Fraction
        assert type(T11.terms[(1, 0, 0, 0)]) is int
        assert LaurentPoly(R, {e: Fraction(6, 3), (1, 0, 0, 0): "3/4"}).terms == {
            e: 2,
            (1, 0, 0, 0): Fraction(3, 4),
        }
        assert_int_while_integral(LaurentPoly(R, {e: Fraction(6, 3), (1, 0, 0, 0): "3/4"}))
        for text in ("2/2 * t[1,1]", "1/2 * t[1,1] + 1/2 * t[1,1]", "1/3 * t[1,1] - 4/2", "-6/3"):
            assert_int_while_integral(parse_laurent(text, R))
        assert parse_laurent("1/2 * t[1,1] + 1/2 * t[1,1]", R).terms == {(1, 0, 0, 0): 1}

    def test_rational_results_and_text_are_unchanged(self):
        assert str(R.const(Fraction(3))) == str(R.const(3)) == "3"
        assert (3 * T11).terms == {(1, 0, 0, 0): Fraction(3)}
        assert hash(Fraction(3)) == hash(3)

    @given(polys, nonzero_polys)
    def test_every_operation_keeps_the_form(self, a, b):
        # every coefficient is a nonzero exact rational, and the result
        # equals and prints as its entry-point form
        results = [a * b, a + b, a - b, -a, a * HALF, laurent_div_exact(a * b, b)]
        results += [a.partial(k) for k in range(4)]
        for f in results:
            assert all(type(c) in (int, Fraction) and c for c in f.terms.values()), f
            canonical = LaurentPoly(R, f.terms)
            assert f == canonical
            assert str(f) == str(canonical)

    @given(int_polys, int_polys.filter(bool), st.sampled_from([1, -1]), exponents)
    def test_int_operands_give_int_results(self, a, b, sign, e):
        unit = LaurentPoly(R, {e: sign})
        results = [a * b, a + b, a - b, -a, a * 3, a / unit, (a * b) / b]
        results += [a.partial(k) for k in range(4)]
        for f in results:
            assert all(type(c) is int for c in f.terms.values()), f
