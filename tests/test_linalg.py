from fractions import Fraction
from functools import partial

import pytest

from tnncells import (
    MinorId,
    VarRegistry,
    all_minor_ids,
    all_minors,
    as_matrix,
    det_exact,
    eval_minor,
    mat_mul,
    rank_exact,
    restore,
    vanishing_family,
)
from tnncells.linalg import _all_minors, _scaled_int_rows, is_symbolic, submatrix
from tnncells.verify import _corpus

from conftest import rand_matrix

R = VarRegistry.grid(2, 2)
T11, T12, T21, T22 = (R.gen(k) for k in range(4))


class TestAsMatrix:
    def test_lifts_ints(self):
        M = as_matrix([[1, 2], [3, 4]])
        assert M[0][0] == Fraction(1)
        assert isinstance(M[0][0], Fraction)

    def test_rejects_ragged(self):
        with pytest.raises(ValueError):
            as_matrix([[1, 2], [3]])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            as_matrix([])

    def test_lifts_scalars_into_symbolic(self):
        M = as_matrix([[T11, 0], [1, T22]])
        assert M[0][1] == R.zero()
        assert M[1][0] == R.const(1)
        assert is_symbolic(M)

    def test_transpose_and_submatrix(self):
        M = as_matrix([[1, 2, 3], [4, 5, 6]])
        assert tuple(zip(*M)) == as_matrix([[1, 4], [2, 5], [3, 6]])
        assert submatrix(M, (0, 1), (0, 2)) == as_matrix([[1, 3], [4, 6]])


class TestDet:
    def test_golden(self):
        assert det_exact(as_matrix([[2]])) == 2
        assert det_exact(as_matrix([[1, 2], [3, 4]])) == -2
        assert det_exact(as_matrix([[Fraction(1, 2), 1], [1, 2]])) == 0
        M = as_matrix([[2, 0, 1], [1, 1, 1], [0, 3, 5]])
        assert det_exact(M) == 2 * (5 - 3) - 0 + 1 * (3 - 0)

    def test_vandermonde(self):
        xs = [Fraction(1), Fraction(2), Fraction(7, 2)]
        M = as_matrix([[x**k for k in range(3)] for x in xs])
        expected = Fraction(1)
        for i in range(3):
            for j in range(i):
                expected *= xs[i] - xs[j]
        assert det_exact(M) == expected

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError):
            det_exact(as_matrix([[1, 2, 3], [4, 5, 6]]))

    def test_multiplicative(self, rng):
        for _ in range(25):
            A = as_matrix(rand_matrix(rng, 4, 4))
            B = as_matrix(rand_matrix(rng, 4, 4))
            assert det_exact(mat_mul(A, B)) == det_exact(A) * det_exact(B)


class TestAllMinors:
    def test_matches_per_minor_dets(self, rng):
        M = as_matrix(rand_matrix(rng, 3, 4))
        table = all_minors(M)
        from itertools import combinations

        for k in range(1, 4):
            for rows in combinations(range(3), k):
                for cols in combinations(range(4), k):
                    key = (tuple(i + 1 for i in rows), tuple(a + 1 for a in cols))
                    assert table[key] == det_exact(submatrix(M, rows, cols))

    def test_keys_are_minor_ids_in_canonical_order(self, rng):
        M = as_matrix(rand_matrix(rng, 3, 4))
        ids = all_minor_ids(3, 4)
        table = all_minors(M)
        assert list(table) == ids
        assert [mid.text() for mid in table] == [mid.text() for mid in ids]


PLAN_SHAPES = [(1, 6), (6, 1), (2, 5), (5, 2), (3, 5), (4, 4)]


def _sign(x) -> int:
    return (x > 0) - (x < 0)


class TestPlannedKernel:
    """The per-shape Laplace plan against one Bareiss determinant per minor."""

    def _check(self, rows):
        values = _all_minors(rows)
        M = as_matrix(rows)
        ids = all_minor_ids(len(rows), len(rows[0]))
        assert len(values) == len(ids)
        for mid, value in zip(ids, values):
            sub = submatrix(M, [i - 1 for i in mid.rows], [a - 1 for a in mid.cols])
            assert value == det_exact(sub), mid

    @pytest.mark.parametrize("m,p", PLAN_SHAPES)
    def test_integer_rows(self, rng, m, p):
        rows = [[rng.randint(-9, 9) for _ in range(p)] for _ in range(m)]
        rows[rng.randrange(m)] = [0] * p
        self._check(rows)


class TestScaledMinors:
    """The integer table of the denominator-cleared rows against the exact
    Fraction table."""

    @pytest.mark.parametrize("m,p", [(3, 3), (4, 4)])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_same_signs_as_fractions_on_the_corpus(self, m, p, seed):
        for _, X in _corpus(m, p, 100, seed):
            for M in (X, restore(X).final):
                exact = list(all_minors(M).values())
                scaled = _all_minors(_scaled_int_rows(M)[0])
                assert all(isinstance(v, int) for v in scaled)
                assert [_sign(v) for v in scaled] == [_sign(v) for v in exact]

    def test_values_are_minors_times_row_scales(self):
        M = as_matrix([[Fraction(1, 3), Fraction(1, 2)], [Fraction(1, 7), Fraction(1, 5)]])
        scaled = dict(zip(all_minor_ids(2, 2), _all_minors(_scaled_int_rows(M)[0])))
        assert all_minors(M)[((1, 2), (1, 2))] == Fraction(-1, 210)
        assert scaled[((1, 2), (1, 2))] == -1
        assert scaled[((2,), (1,))] == 5


class TestRank:
    def test_golden(self):
        assert rank_exact(as_matrix([[0, 0], [0, 0]])) == 0
        assert rank_exact(as_matrix([[1, 1], [1, 1]])) == 1
        assert rank_exact(as_matrix([[1, 2], [3, 4]])) == 2
        assert rank_exact(as_matrix([[1, 2, 3], [2, 4, 6], [1, 0, 1]])) == 2

    def test_transpose_invariant(self, rng):
        for _ in range(20):
            M = as_matrix(rand_matrix(rng, 3, 5, span=4))
            assert rank_exact(M) == rank_exact(tuple(zip(*M)))


@pytest.mark.parametrize(
    "read",
    [
        rank_exact,
        det_exact,
        all_minors,
        vanishing_family,
        partial(eval_minor, mid=MinorId((1, 2), (1, 2))),
    ],
    ids=["rank_exact", "det_exact", "all_minors", "vanishing_family", "eval_minor"],
)
def test_rejects_laurent_matrices(read):
    # minors, determinants and ranks are rational-only: one guard refuses
    # a matrix with any Laurent entry for every reader, also when the
    # corner entry is rational
    for M in (as_matrix([[T11, T12], [T21, T22]]), ((Fraction(1), T12), (T21, T22))):
        with pytest.raises(TypeError, match="rational matrices only"):
            read(M)


class TestMatMul:
    def test_golden(self):
        A = as_matrix([[1, 2], [3, 4]])
        B = as_matrix([[0, 1], [1, 0]])
        assert mat_mul(A, B) == as_matrix([[2, 1], [4, 3]])

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            mat_mul(as_matrix([[1, 2]]), as_matrix([[1, 2]]))
