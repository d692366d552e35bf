"""The arithmetic kernels behind Laurent products and exact determinants,
checked against the Leibniz formula.  The Bareiss and Laplace kernels serve
both entry domains, so each runs on integer rows and on Laurent rows."""

import operator
from fractions import Fraction
from itertools import combinations, permutations

from tnncells import VarRegistry, laurent_div_exact
from tnncells.laurent import _term_map_mul
from tnncells.linalg import _all_minors, _det_bareiss

R = VarRegistry.grid(2, 2)
T11, T12, T21, T22 = R.gens()
# zero, units, and multi-term entries, so that Laurent rows need row swaps,
# skip zero terms and divide by multi-term Bareiss pivots
LAURENT_POOL = (
    R.zero(),
    R.zero(),
    R.one(),
    -2 * T11,
    T12 * T21**-1,
    T11 + T22,
    T12 - Fraction(1, 2) * T21,
    T11 * T22 - 3 * T12**-1,
)


def _det_leibniz(rows):
    n = len(rows)
    total = 0
    for perm in permutations(range(n)):
        sgn = 1
        for i in range(n):
            for j in range(i):
                if perm[j] > perm[i]:
                    sgn = -sgn
        prod = sgn
        for i in range(n):
            prod *= rows[i][perm[i]]
        total += prod
    return total


def _det_int(rows):
    return _det_bareiss(rows, 0, operator.floordiv)


def _det_laurent(rows):
    return _det_bareiss(rows, R.zero(), laurent_div_exact)


def _check_all_minors(mat, table):
    m, p = len(mat), len(mat[0])
    count = 0
    for k in range(1, min(m, p) + 1):
        for rows in combinations(range(1, m + 1), k):
            for cols in combinations(range(1, p + 1), k):
                count += 1
                sub = [[mat[i - 1][j - 1] for j in cols] for i in rows]
                assert table[(rows, cols)] == _det_leibniz(sub)
    assert len(table) == count


class TestLane:
    def test_term_map_mul_identity(self):
        one = {(0, 0): Fraction(1)}
        f = {(1, 0): Fraction(2), (0, -1): Fraction(-3, 4)}
        assert _term_map_mul(f, one) == f

    def test_term_map_mul_cancellation(self):
        f = {(1,): Fraction(1), (0,): Fraction(1)}
        g = {(1,): Fraction(1), (0,): Fraction(-1)}
        assert _term_map_mul(f, g) == {(2,): Fraction(1), (0,): Fraction(-1)}

    def test_det_against_leibniz(self, rng):
        for n in range(5):
            for _ in range(12):
                rows = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
                assert _det_int(rows) == _det_leibniz(rows)

    def test_det_needs_row_swap(self):
        rows = [[0, 1, 2], [3, 0, 1], [1, 1, 1]]
        assert _det_int(rows) == _det_leibniz(rows)

    def test_det_zero_column(self):
        assert _det_int([[0, 1], [0, 2]]) == 0

    def test_all_minors_table(self, rng):
        mat = [[rng.randint(-9, 9) for _ in range(4)] for _ in range(3)]
        _check_all_minors(mat, _all_minors(mat, 0))


class TestLaurentLane:
    def test_det_against_leibniz(self, rng):
        for n in range(1, 5):
            for _ in range(6):
                rows = [[rng.choice(LAURENT_POOL) for _ in range(n)] for _ in range(n)]
                d = _det_laurent(rows)
                assert d.registry is R
                assert d == _det_leibniz(rows)

    def test_empty_det_is_one(self):
        assert _det_laurent([]) == R.one()

    def test_det_needs_row_swap(self):
        z = R.zero()
        rows = [[z, T11, T12], [T21 + 1, z, T22], [T11, T12 * T21, z]]
        assert _det_laurent(rows) == _det_leibniz(rows)

    def test_det_zero_column(self):
        assert _det_laurent([[R.zero(), T11], [R.zero(), T22]]) == R.zero()

    def test_det_singular_is_zero(self):
        rows = [[T11, T12], [T11 * (T21 + T22), T12 * (T21 + T22)]]
        assert _det_laurent(rows) == R.zero()

    def test_all_minors_table(self, rng):
        for _ in range(3):
            mat = [[rng.choice(LAURENT_POOL) for _ in range(4)] for _ in range(3)]
            _check_all_minors(mat, _all_minors(mat, R.zero()))

    def test_rank_one_minors_vanish(self):
        mat = [[T11, T12, 1], [2 * T11, 2 * T12, 2]]
        table = _all_minors(mat, R.zero())
        for cols in combinations(range(1, 4), 2):
            assert table[((1, 2), cols)] == R.zero()
