"""The arithmetic kernels behind Laurent products, exact determinants and
ranks, checked against the Leibniz formula and the nonzero minors.  The
Bareiss and Laplace kernels run on integer rows only; symbolic minors are
checked against Cauchon-graph path systems instead (test_cells.py,
test_sympy_oracle.py)."""

from fractions import Fraction
from itertools import combinations, permutations

from tnncells.laurent import _term_map_mul
from tnncells.linalg import _all_minors, _bareiss
from tnncells.minors import all_minor_ids


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


def _table(mat):
    """The kernel's values keyed by their canonical MinorIds."""
    ids, values = all_minor_ids(len(mat), len(mat[0])), _all_minors(mat)
    assert len(values) == len(ids)
    return dict(zip(ids, values))


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
        # n = 0 included: the empty determinant is 1
        for n in range(5):
            for _ in range(12):
                rows = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
                assert _bareiss(rows)[1] == _det_leibniz(rows)

    def test_det_needs_column_swap(self):
        # the first pivot is the (1,2) entry, so the first step swaps
        # columns 1 and 2; the row-major search makes no row swap here
        rows = [[0, 1, 2], [3, 0, 1], [1, 1, 1]]
        assert _bareiss(rows)[1] == _det_leibniz(rows)

    def test_det_zero_column(self):
        assert _bareiss([[0, 1], [0, 2]])[1] == 0

    def test_rank_against_nonzero_minors(self, rng):
        # the rank is the largest k with a nonzero k-minor; planted
        # dependent rows and all-zero leading columns make most matrices
        # rank-deficient and force row and column swaps
        deficient = full = 0
        for _ in range(300):
            m, n = rng.randint(1, 4), rng.randint(1, 5)
            rows = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(m)]
            for i in range(1, m):
                if rng.random() < 0.4:
                    u, v = rows[rng.randrange(i)], rows[rng.randrange(i)]
                    a, b = rng.randint(-2, 2), rng.randint(-2, 2)
                    rows[i] = [a * x + b * y for x, y in zip(u, v)]
            for j in range(rng.randint(0, n - 1)):
                for row in rows:
                    row[j] = 0
            rank = max((len(mid.rows) for mid, d in _table(rows).items() if d), default=0)
            assert _bareiss(rows)[0] == rank, rows
            deficient += rank < min(m, n)
            full += rank == min(m, n)
        assert deficient > 100 and full > 50

    def test_all_minors_table(self, rng):
        mat = [[rng.randint(-9, 9) for _ in range(4)] for _ in range(3)]
        _check_all_minors(mat, _table(mat))
