"""Independent correctness oracles for the benchmark.

None of these calls the layer it checks: counts come from a closed form,
determinants from plain Gaussian elimination over ``Fraction``, the diagram
and permutation rules are re-stated from their definitions, and brackets
are recomputed in ``sympy`` from the biderivation formula.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import comb, factorial


def stirling2(n: int, k: int) -> int:
    """Stirling number of the second kind, by the explicit sum."""
    total = sum((-1) ** j * comb(k, j) * (k - j) ** n for j in range(k + 1))
    return total // factorial(k)


def poly_bernoulli(m: int, p: int) -> int:
    """B(m,p) = sum_j (j!)^2 S(m+1,j+1) S(p+1,j+1): the number of m x p
    Cauchon diagrams, and of restricted permutations in S(m+p)."""
    return sum(
        factorial(j) ** 2 * stirling2(m + 1, j + 1) * stirling2(p + 1, j + 1)
        for j in range(min(m, p) + 1)
    )


def det(rows) -> Fraction:
    """Determinant of a square rational matrix by Gaussian elimination."""
    a = [[Fraction(x) for x in row] for row in rows]
    n = len(a)
    result = Fraction(1)
    for k in range(n):
        pivot = next((r for r in range(k, n) if a[r][k]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != k:
            a[k], a[pivot] = a[pivot], a[k]
            result = -result
        result *= a[k][k]
        for r in range(k + 1, n):
            f = a[r][k] / a[k][k]
            if f:
                a[r] = [x - f * y for x, y in zip(a[r], a[k])]
    return result


def minors(X) -> dict[tuple[tuple[int, ...], tuple[int, ...]], Fraction]:
    """Every minor of X, keyed by 1-based (rows, cols)."""
    m, p = len(X), len(X[0])
    out = {}
    for k in range(1, min(m, p) + 1):
        for rows in combinations(range(1, m + 1), k):
            for cols in combinations(range(1, p + 1), k):
                out[(rows, cols)] = det(
                    [[X[i - 1][a - 1] for a in cols] for i in rows]
                )
    return out


def tnn_cell(X) -> frozenset | None:
    """The vanishing set of X when every minor is >= 0, else None."""
    values = minors(X)
    if any(v < 0 for v in values.values()):
        return None
    return frozenset(key for key, v in values.items() if not v)


def family_key(family) -> frozenset:
    """A program MinorFamily as a set of 1-based (rows, cols) pairs."""
    return frozenset((tuple(mid.rows), tuple(mid.cols)) for mid in family)


def is_left_or_above(m: int, p: int, black) -> bool:
    """Every black square has all squares to its left black, or all squares
    above it black."""
    black = set(black)
    for i, a in black:
        if not (1 <= i <= m and 1 <= a <= p):
            return False
        left = all((i, b) in black for b in range(1, a))
        above = all((k, a) in black for k in range(1, i))
        if not (left or above):
            return False
    return True


def is_restricted(m: int, p: int, w) -> bool:
    """w is a permutation of 1..m+p with -p <= w(i) - i <= m."""
    w = tuple(w)
    if sorted(w) != list(range(1, m + p + 1)):
        return False
    return all(-p <= v - i <= m for i, v in enumerate(w, start=1))


def positive_filling(m: int, p: int, black, rng) -> tuple[tuple[Fraction, ...], ...]:
    """Positive rationals on the white squares, zero on the black ones."""
    return tuple(
        tuple(
            Fraction(0)
            if (i, a) in black
            else Fraction(rng.randint(1, 999), rng.randint(1, 999))
            for a in range(1, p + 1)
        )
        for i in range(1, m + 1)
    )


class SympyBrackets:
    """The biderivation bracket on the Laurent algebra of a full m x p grid,
    computed in sympy."""

    def __init__(self, m: int, p: int):
        import sympy

        self.sympy = sympy
        self.positions = [(i, a) for i in range(1, m + 1) for a in range(1, p + 1)]
        self.symbols = sympy.symbols(f"t0:{len(self.positions)}")
        self.index = {pos: k for k, pos in enumerate(self.positions)}

    def cell_table(self) -> dict[tuple[int, int], object]:
        """{t_v, t_w} for v < w: the product on ordered same-row or
        same-column pairs, zero otherwise."""
        t = self.symbols
        table = {}
        for v, (i, a) in enumerate(self.positions):
            for w in range(v + 1, len(self.positions)):
                k, g = self.positions[w]
                if (i == k and a < g) or (i < k and a == g):
                    table[(v, w)] = t[v] * t[w]
        return table

    def expr(self, poly):
        """A program LaurentPoly as a sympy expression; its registry must
        number the grid positions like this object does."""
        sp = self.sympy
        syms = [self.symbols[self.index[pos]] for pos in poly.registry.positions]
        total = sp.Integer(0)
        for exps, c in poly.terms.items():
            term = sp.Rational(c.numerator, c.denominator)
            for s, e in zip(syms, exps):
                if e:
                    term *= s**e
            total += term
        return total

    def table_of(self, program_table) -> dict[tuple[int, int], object]:
        """A program BracketTable as {(v, w): sympy value} on this grid."""
        reg = program_table.registry
        return {
            (self.index[reg.positions[v]], self.index[reg.positions[w]]): self.expr(value)
            for (v, w), value in program_table.entries.items()
        }

    def bracket(self, f, g, table):
        sp = self.sympy
        t = self.symbols
        total = sp.Integer(0)
        for (v, w), coeff in table.items():
            total += coeff * (
                sp.diff(f, t[v]) * sp.diff(g, t[w]) - sp.diff(f, t[w]) * sp.diff(g, t[v])
            )
        return sp.expand(total)

    def equal(self, a, b) -> bool:
        return self.sympy.expand(a - b) == 0

    def jacobi_fails(self, table) -> list[tuple[int, int, int]]:
        """Generator triples on which the Jacobi identity fails.  The
        Jacobiator of a biderivation is a triderivation, so vanishing on all
        generator triples proves the identity everywhere."""
        t = self.symbols
        bad = []
        for u, v, w in combinations(range(len(t)), 3):
            x, y, z = t[u], t[v], t[w]
            total = (
                self.bracket(x, self.bracket(y, z, table), table)
                + self.bracket(y, self.bracket(z, x, table), table)
                + self.bracket(z, self.bracket(x, y, table), table)
            )
            if self.sympy.expand(total) != 0:
                bad.append((u, v, w))
        return bad
