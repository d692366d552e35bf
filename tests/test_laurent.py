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

R = VarRegistry.grid(2, 2)
T11, T12, T21, T22 = R.gens()


def poly(terms: dict) -> LaurentPoly:
    return LaurentPoly(R, {e: Fraction(c) for e, c in terms.items()})


coeffs = st.fractions(min_value=-50, max_value=50, max_denominator=20)
exponents = st.tuples(*[st.integers(min_value=-3, max_value=3)] * 4)
polys = st.dictionaries(exponents, coeffs, max_size=5).map(lambda d: LaurentPoly(R, d))
nonzero_polys = polys.filter(bool)
monomials = st.tuples(exponents, coeffs.filter(bool)).map(
    lambda t: LaurentPoly(R, {t[0]: t[1]})
)


class TestRegistry:
    def test_grid_names_and_indices(self):
        assert len(R) == 4
        assert R.name(0) == "t[1,1]"
        assert R.name(3) == "t[2,2]"
        assert R.index(2, 1) == 2
        assert R.positions == ((1, 1), (1, 2), (2, 1), (2, 2))

    def test_grid_skip(self):
        reg = VarRegistry.grid(2, 2, skip=[(1, 1)])
        assert len(reg) == 3
        assert not reg.contains(1, 1)
        with pytest.raises(ValueError):
            reg.index(1, 1)

    def test_rejects_bad_positions(self):
        with pytest.raises(ValueError):
            VarRegistry(2, 2, ((1, 1), (1, 1)))
        with pytest.raises(ValueError):
            VarRegistry(2, 2, ((0, 1),))
        with pytest.raises(ValueError):
            VarRegistry(2, 2, ((1, 3),))
        with pytest.raises(ValueError):
            VarRegistry(2, 2, ((1, 2), (1, 1)))  # not row-major sorted

    def test_var_lookup(self):
        assert R.var(1, 2) == T12
        assert R.var(2, 2) == T22


class TestArithmetic:
    def test_zero_and_one(self):
        assert R.zero().is_zero
        assert not R.zero()
        assert R.one().constant_value() == 1
        assert T11 + (-T11) == R.zero()
        assert T11 * R.one() == T11
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

    def test_pow(self):
        assert T11**0 == R.one()
        assert T11**3 == T11 * T11 * T11
        f = T11 + T21
        assert f**4 == f * f * f * f
        assert T12**-2 == T12.inverse() * T12.inverse()

    def test_pow_negative_needs_monomial(self):
        with pytest.raises(InexactDivisionError):
            (T11 + T12) ** -1

    def test_inverse_monomial(self):
        m = Fraction(3, 5) * T11 * T22**-2
        assert m * m.inverse() == R.one()

    def test_scalar_coercion(self):
        assert 2 * T11 == T11 + T11
        assert T11 + 0 == T11
        assert (T11 + 1) - 1 == T11
        assert Fraction(1, 2) * (T11 + T11) == T11

    def test_cross_registry_rejected(self):
        other = VarRegistry.grid(2, 2, skip=[(2, 2)])
        with pytest.raises(RegistryMismatchError):
            T11 + other.var(1, 1)

    def test_immutable(self):
        with pytest.raises(AttributeError):
            T11.terms = {}
        assert T11.__hash__ is None


class TestDivision:
    def test_monomial_division_is_exact(self):
        # dividing by a nonzero monomial always succeeds in the Laurent ring
        q = laurent_div_exact(T12, T11)
        assert q == T11**-1 * T12
        assert str(q) == "1 * t[1,1]^-1 * t[1,2]^1"

    def test_polynomial_division(self):
        a = (T11 + T12) * (T21 + T22) * T11**-3
        assert laurent_div_exact(a, T21 + T22) == (T11 + T12) * T11**-3

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

    def test_zero_dividend(self):
        assert laurent_div_exact(R.zero(), T11 + T12) == R.zero()


class TestPartials:
    def test_generator_partial(self):
        k = R.index(1, 1)
        assert T11.partial(k) == R.one()
        assert T12.partial(k) == R.zero()

    def test_negative_exponent(self):
        k = R.index(1, 1)
        f = T11**-1
        assert f.partial(k) == -(T11**-2)

    @given(polys, polys)
    def test_product_rule(self, f, g):
        for k in range(4):
            lhs = (f * g).partial(k)
            assert lhs == f.partial(k) * g + f * g.partial(k)


class TestEvaluateAndText:
    def test_evaluate(self):
        f = T11 * T22 - T12 * T21
        assert f.evaluate([2, 3, 5, 7]) == 2 * 7 - 3 * 5

    def test_evaluate_negative_exponents(self):
        f = T11**-2
        assert f.evaluate([Fraction(1, 2), 1, 1, 1]) == 4
        with pytest.raises(ZeroDivisionError):
            f.evaluate([0, 1, 1, 1])

    def test_str_canonical_order(self):
        f = T22 + T11  # lex-descending on exponent vectors: t[1,1] first
        assert str(f) == "1 * t[1,1]^1 + 1 * t[2,2]^1"
        assert str(R.zero()) == "0"
        assert str(R.const(Fraction(-3, 4))) == "-3/4"
        assert str(T11**-1 * T12 * T21) == "1 * t[1,1]^-1 * t[1,2]^1 * t[2,1]^1"

    @given(polys)
    def test_parse_str_roundtrip(self, f):
        assert parse_laurent(str(f), R) == f

    def test_parse_forms(self):
        assert parse_laurent("t[1,1]", R) == T11
        assert parse_laurent("-t[1,1]", R) == -T11
        assert parse_laurent("2 * t[1,2]^2 * t[2,1]^-1", R) == 2 * T12**2 * T21**-1
        assert parse_laurent("t[1,1] - t[1,2]", R) == T11 - T12
        assert parse_laurent("3/4", R) == R.const(Fraction(3, 4))

    def test_parse_rejects_unknown_variable(self):
        reg = VarRegistry.grid(2, 2, skip=[(2, 2)])
        with pytest.raises((KeyError, ValueError)):
            parse_laurent("t[2,2]", reg)

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_laurent("t[1,1] & t[1,2]", R)

    @given(monomials)
    def test_monomial_flag(self, f):
        assert f.is_monomial()
        assert not (f + 1 + T11 + T12).is_zero


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
        assert q == T11**-1 * T12
        assert str(q) == "1 * t[1,1]^-1 * t[1,2]^1"
        assert_int_while_integral(q)
        assert (6 * T11 * T12) / (3 * T11) == 2 * T12
        assert ((6 * T11 * T12) / (3 * T11)).terms == {(0, 1, 0, 0): 2}
        assert (T11 / (2 * T12)).terms == {(1, -1, 0, 0): HALF}

    def test_multi_term_divisor(self):
        b = T21 + HALF * T22
        for a in ((T11 + T12) * T11**-3, 2 * T12 - T11 * T22**-1, R.one()):
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
        other = VarRegistry.grid(2, 2, skip=[(2, 2)])
        with pytest.raises(RegistryMismatchError):
            T11 / other.var(1, 1)

    def test_unsupported_divisor(self):
        with pytest.raises(TypeError):
            T11 / "t[1,1]"
        with pytest.raises(TypeError):
            T11 / 1.5


class TestCoefficientForm:
    def test_fraction_becomes_integral_under_mul(self):
        for f in (HALF * (2 * T11), R.const(HALF) * (2 * T11), (2 * T11) * HALF):
            assert f.terms == {(1, 0, 0, 0): 1}
            assert_int_while_integral(f)
        assert_int_while_integral((HALF * T11 + T12) * (HALF * T11 - T12))

    def test_add_and_sub(self):
        for f in (
            HALF * T11 + HALF * T11,
            Fraction(3, 2) * T11 - HALF * T11,
            (HALF * T11 + T12) + (HALF * T11 - T12),
            1 + (HALF * T11 + HALF) + HALF,
        ):
            assert_int_while_integral(f)
        assert (HALF * T11 + HALF * T11).terms == {(1, 0, 0, 0): 1}
        assert_int_while_integral(HALF * T11 + T12)

    def test_partial(self):
        k = R.index(1, 1)
        f = (HALF * T11**2 + Fraction(1, 3) * T11**3 * T12).partial(k)
        assert f == T11 + T11**2 * T12
        assert_int_while_integral(f)
        assert_int_while_integral((Fraction(1, 3) * T11**2).partial(k))

    def test_pow_and_inverse(self):
        assert (HALF * T11).inverse().terms == {(-1, 0, 0, 0): 2}
        assert (-T11).inverse().terms == {(-1, 0, 0, 0): -1}
        assert (2 * T11).inverse().terms == {(-1, 0, 0, 0): HALF}
        for f in (
            (HALF * T11) ** -1,
            (2 * T11) ** -2,
            (HALF * T11 + HALF * T12) ** 2,
            (2 * T11 * T22**-1) ** 3,
        ):
            assert_int_while_integral(f)

    def test_exact_division(self):
        cases = [
            (6 * T11 * T12, 3 * T11, 2 * T12),
            (T11, 2 * T12, HALF * T11 * T12**-1),
            (HALF * T11 + HALF * T12, T11 + T12, R.const(HALF)),
            (2 * T11 + 2 * T12, HALF * T11 + HALF * T12, R.const(4)),
            ((2 * T11 + 2 * T12) * (T11 - T22), Fraction(2, 3) * (T11 + T12), 3 * (T11 - T22)),
            ((T11 + 3 * T12) * (T21 - T22), 2 * T21 - 2 * T22, HALF * T11 + Fraction(3, 2) * T12),
        ]
        for a, b, q in cases:
            got = laurent_div_exact(a, b)
            assert got == q
            assert_int_while_integral(got)

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
        assert type(R.const(3).constant_value()) is Fraction
        assert type(R.zero().constant_value()) is Fraction
        assert type(R.const(2).evaluate([1, 1, 1, 1])) is Fraction
        assert type((T11 * T12).evaluate([2, 3, 1, 1])) is Fraction
        assert str(R.const(Fraction(3))) == str(R.const(3)) == "3"
        assert (3 * T11).terms == {(1, 0, 0, 0): Fraction(3)}
        assert hash(Fraction(3)) == hash(3)

    @given(polys, nonzero_polys)
    def test_every_operation_keeps_the_form(self, a, b):
        results = [a * b, a + b, a - b, -a, a * HALF, laurent_div_exact(a * b, b)]
        results += [a.partial(k) for k in range(4)]
        if b.is_monomial():
            results += [b.inverse(), b**-2]
        for f in results:
            assert_int_while_integral(f)
