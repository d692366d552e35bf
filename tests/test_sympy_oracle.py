"""Exact Laurent division and symbolic determinants against sympy.

sympy is an independent computer algebra system: it shares no arithmetic
with the package, so agreement here checks the int-while-integral
coefficient rule and the division algorithm from outside.
"""

import random
from fractions import Fraction
from itertools import combinations
from math import comb

import pytest

sympy = pytest.importorskip("sympy")

from tnncells import (  # noqa: E402
    InexactDivisionError,
    LaurentPoly,
    VarRegistry,
    det_exact,
    enumerate_diagrams,
    laurent_div_exact,
    restore,
    symbolic_cauchon_matrix,
)
from tnncells.linalg import submatrix  # noqa: E402


def symbols_of(registry: VarRegistry):
    return [sympy.Symbol(f"t{i}_{a}") for i, a in registry.positions]


def to_sympy(f: LaurentPoly, symbols):
    total = sympy.Integer(0)
    for e, c in f.terms.items():
        term = sympy.Rational(c.numerator, c.denominator)
        for s, x in zip(symbols, e):
            term *= s**x
        total += term
    return total


def same(a, b) -> bool:
    return sympy.cancel(a - b) == 0


def random_laurent(registry: VarRegistry, rng: random.Random, max_terms: int = 3) -> LaurentPoly:
    """Up to max_terms terms, exponents in [-2, 2], coefficients p/q with
    q in 1..4, so that some coefficients are integral and some are not."""
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        e = tuple(rng.randint(-2, 2) for _ in range(len(registry)))
        terms[e] = Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 4))
    return LaurentPoly(registry, terms)


R = VarRegistry.grid(2, 2)
SYMS = symbols_of(R)


class TestDivision:
    def test_exact_products(self):
        rng = random.Random(20260418)
        for _ in range(40):
            a, b = random_laurent(R, rng), random_laurent(R, rng)
            A, B = to_sympy(a, SYMS), to_sympy(b, SYMS)
            product = a * b
            assert same(to_sympy(product, SYMS), A * B)
            q = laurent_div_exact(product, b)
            assert same(to_sympy(q, SYMS), sympy.cancel(A * B / B))

    def test_divisibility_matches_the_reduced_denominator(self):
        # a/b is a Laurent polynomial exactly when the denominator of the
        # reduced fraction is a monomial.
        rng = random.Random(7)
        exact = inexact = 0
        for _ in range(40):
            a = random_laurent(R, rng, 4)
            b = random_laurent(R, rng, 2)
            if rng.random() < 0.5:
                a = a * b
            A, B = to_sympy(a, SYMS), to_sympy(b, SYMS)
            num, den = sympy.fraction(sympy.cancel(sympy.together(A / B)))
            divisible = sympy.Poly(den, *SYMS).is_monomial
            try:
                q = laurent_div_exact(a, b)
            except InexactDivisionError:
                assert not divisible, (a, b)
                inexact += 1
            else:
                assert divisible, (a, b)
                assert same(to_sympy(q, SYMS), A / B)
                exact += 1
        assert exact and inexact


class TestSymbolicDeterminants:
    @pytest.mark.parametrize("m,p", [(2, 3), (3, 3)])
    def test_restored_generic_matrices(self, m, p):
        checked = 0
        for C in enumerate_diagrams(m, p):
            registry, M = symbolic_cauchon_matrix(C)
            syms = symbols_of(registry)
            X = restore(M).final
            for k in range(2, min(m, p) + 1):
                for rows in combinations(range(m), k):
                    for cols in combinations(range(p), k):
                        sub = submatrix(X, rows, cols)
                        expected = sympy.Matrix(
                            [[to_sympy(x, syms) for x in row] for row in sub]
                        ).det()
                        assert same(to_sympy(det_exact(sub), syms), expected)
                        checked += 1
        assert checked == sum(1 for _ in enumerate_diagrams(m, p)) * sum(
            comb(m, k) * comb(p, k) for k in range(2, min(m, p) + 1)
        )
