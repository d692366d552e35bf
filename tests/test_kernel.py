"""The arithmetic kernels behind Laurent products and rational determinants,
checked against the Leibniz formula."""

from fractions import Fraction
from itertools import combinations, permutations

from tnncells.laurent import _term_map_mul
from tnncells.linalg import _all_minors_int, _det_bareiss_int


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
                assert _det_bareiss_int(rows) == _det_leibniz(rows)

    def test_det_needs_row_swap(self):
        rows = [[0, 1, 2], [3, 0, 1], [1, 1, 1]]
        assert _det_bareiss_int(rows) == _det_leibniz(rows)

    def test_det_zero_column(self):
        assert _det_bareiss_int([[0, 1], [0, 2]]) == 0

    def test_all_minors_table(self, rng):
        mat = [[rng.randint(-9, 9) for _ in range(4)] for _ in range(3)]
        table = _all_minors_int(mat)
        count = 0
        for k in range(1, 4):
            for rows in combinations(range(3), k):
                for cols in combinations(range(4), k):
                    count += 1
                    sub = [[mat[i][j] for j in cols] for i in rows]
                    assert table[(rows, cols)] == _det_leibniz(sub)
        assert len(table) == count
