"""Exact Laurent division, and the path-system sums of restored generic
minors, against sympy.

sympy is an independent computer algebra system: it shares no arithmetic
with the package, so agreement here checks the exact coefficients and
the division algorithm from outside, and ties the
Cauchon-graph oracle of the tests to real determinants.
"""

import random
from collections import Counter
from fractions import Fraction

import pytest

sympy = pytest.importorskip("sympy")

from tnncells import (  # noqa: E402
    InexactDivisionError,
    LaurentPoly,
    VarRegistry,
    all_minor_ids,
    bracket,
    enumerate_diagrams,
    laurent_div_exact,
    matrix_bracket_table,
    restore,
    symbolic_cauchon_matrix,
)

from conftest import cauchon_paths, disjoint_systems  # noqa: E402


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
    """Lindstrom-Gessel-Viennot on the Cauchon graph: every restored
    generic minor [I|L] is the weight sum of the vertex-disjoint path
    systems that pair I[t] with L[t].  The sum is subtraction-free, so
    every coefficient of the minor is a positive path count."""

    @pytest.mark.parametrize("m,p", [(2, 3), (3, 3)])
    def test_restored_generic_matrices(self, m, p):
        checked = 0
        for C in enumerate_diagrams(m, p):
            registry, M = symbolic_cauchon_matrix(C)
            syms = symbols_of(registry)
            X = restore(M).final
            paths = cauchon_paths(C)
            for mid in all_minor_ids(m, p):
                counts = Counter()
                for system in disjoint_systems(paths, mid.rows, mid.cols):
                    # disjoint paths cannot cross, so each system keeps the order
                    assert tuple(end for _, end, _, _ in system) == mid.cols, (C, mid)
                    counts[tuple(map(sum, zip(*(w for _, _, _, w in system))))] += 1
                lgv = to_sympy(LaurentPoly(registry, counts), syms)
                rows = [[to_sympy(X[i - 1][a - 1], syms) for a in mid.cols] for i in mid.rows]
                assert same(lgv, sympy.Matrix(rows).det()), (C, mid)
                checked += 1
        assert checked == sum(1 for _ in enumerate_diagrams(m, p)) * len(all_minor_ids(m, p))


class TestBracket:
    def test_operands_of_unequal_size_in_both_orders(self):
        # the biderivation formula with sympy's own partial derivatives;
        # `bracket` weighs the smaller operand, so both orders take both routes
        reg = VarRegistry.grid(2, 3)
        syms = symbols_of(reg)
        table = matrix_bracket_table(reg)

        def oracle(F, G):
            return sum(
                to_sympy(value, syms)
                * (
                    sympy.diff(F, syms[v]) * sympy.diff(G, syms[w])
                    - sympy.diff(F, syms[w]) * sympy.diff(G, syms[v])
                )
                for (v, w), value in table.entries.items()
            )

        rng = random.Random(31)
        for _ in range(3):
            f = g = random_laurent(reg, rng, 1)
            while len(g.terms) <= len(f.terms):
                g = random_laurent(reg, rng, 4)
            F, G = to_sympy(f, syms), to_sympy(g, syms)
            assert same(to_sympy(bracket(f, g, table), syms), oracle(F, G))
            assert same(to_sympy(bracket(g, f, table), syms), oracle(G, F))
