from fractions import Fraction

import pytest

from tnncells import (
    VarRegistry,
    all_minor_ids,
    all_minors,
    as_matrix,
    det_exact,
    enumerate_diagrams,
    mat_mul,
    rank_exact,
    restore,
    symbolic_cauchon_matrix,
)
from tnncells.linalg import _all_minors, _scaled_minors, is_symbolic, submatrix
from tnncells.verify import _corpus

from conftest import rand_matrix

R = VarRegistry.grid(2, 2)
T11, T12, T21, T22 = R.gens()


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
        assert M[1][0] == R.one()
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

    def test_symbolic_2x2(self):
        M = as_matrix([[T11, T12], [T21, T22]])
        assert det_exact(M) == T11 * T22 - T12 * T21

    def test_symbolic_with_laurent_entries(self):
        # entries straight out of a restoration trace: y11 has a t22^{-1} term
        y11 = T11 + T12 * T21 * T22**-1
        M = as_matrix([[y11, T12], [T21, T22]])
        assert det_exact(M) == T11 * T22

    def test_symbolic_3x3_matches_cofactor(self):
        reg = VarRegistry.grid(3, 3)
        M = as_matrix([[reg.var(i, a) for a in range(1, 4)] for i in range(1, 4)])
        d = det_exact(M)
        # brute-force Leibniz expansion
        from itertools import permutations

        acc = reg.zero()
        for perm in permutations(range(3)):
            sgn = 1
            for i in range(3):
                for j in range(i):
                    if perm[j] > perm[i]:
                        sgn = -sgn
            term = reg.const(Fraction(sgn))
            for i in range(3):
                term = term * M[i][perm[i]]
            acc = acc + term
        assert d == acc

    @pytest.mark.parametrize("m,p", [(2, 3), (3, 3)])
    def test_symbolic_bareiss_on_restored_cells(self, m, p):
        # Restored generic matrices carry multi-term Laurent entries with
        # negative exponents, so Bareiss divides by non-monomials.  Its
        # quotients must be exact, and agree with the Laplace table.
        multi_term_laurent = 0
        for C in enumerate_diagrams(m, p):
            X = restore(symbolic_cauchon_matrix(C)[1]).final
            multi_term_laurent += sum(
                len(x.terms) > 1 and any(e < 0 for ex in x.terms for e in ex)
                for row in X
                for x in row
            )
            for (rows, cols), d in all_minors(X).items():
                if len(rows) >= 2:
                    sub = submatrix(X, [i - 1 for i in rows], [a - 1 for a in cols])
                    assert det_exact(sub) == d
        assert multi_term_laurent


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
        rational = as_matrix(rand_matrix(rng, 3, 4))
        laurent = as_matrix([[T11, T12, 1], [T21, 0, T22]])
        for M in (rational, laurent):
            ids = all_minor_ids(len(M), len(M[0]))
            table = all_minors(M)
            assert list(table) == ids
            assert [mid.text() for mid in table] == [mid.text() for mid in ids]

    def test_symbolic_matches(self):
        M = as_matrix([[T11, T12], [T21, T22]])
        table = all_minors(M)
        assert table[((1,), (2,))] == T12
        assert table[((1, 2), (1, 2))] == T11 * T22 - T12 * T21


PLAN_SHAPES = [(1, 6), (6, 1), (2, 5), (5, 2), (3, 5), (4, 4)]
LAURENT_ENTRIES = (R.zero(), R.one(), -2 * T11, T12 * T21**-1, T11 + T22, T12 - 3 * T21)


def _sign(x) -> int:
    return (x > 0) - (x < 0)


class TestPlannedKernel:
    """The per-shape Laplace plan against one Bareiss determinant per minor."""

    def _check(self, rows, zero):
        table = _all_minors(rows, zero)
        M = as_matrix(rows)
        assert list(table) == all_minor_ids(len(rows), len(rows[0]))
        for mid, value in table.items():
            sub = submatrix(M, [i - 1 for i in mid.rows], [a - 1 for a in mid.cols])
            assert value == det_exact(sub), mid

    @pytest.mark.parametrize("m,p", PLAN_SHAPES)
    def test_integer_rows(self, rng, m, p):
        rows = [[rng.randint(-9, 9) for _ in range(p)] for _ in range(m)]
        rows[rng.randrange(m)] = [0] * p
        self._check(rows, 0)

    @pytest.mark.parametrize("m,p", PLAN_SHAPES)
    def test_laurent_rows(self, rng, m, p):
        rows = [[rng.choice(LAURENT_ENTRIES) for _ in range(p)] for _ in range(m)]
        rows[rng.randrange(m)] = [R.zero()] * p
        self._check(rows, R.zero())


class TestScaledMinors:
    """The integer sign lane against the exact Fraction table."""

    @pytest.mark.parametrize("m,p", [(3, 3), (4, 4)])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_same_signs_as_fractions_on_the_corpus(self, m, p, seed):
        for _, X in _corpus(m, p, 100, seed):
            for M in (X, restore(X).final):
                exact, scaled = all_minors(M), _scaled_minors(M)
                assert list(scaled) == list(exact)
                assert all(isinstance(v, int) for v in scaled.values())
                assert [_sign(v) for v in scaled.values()] == [_sign(v) for v in exact.values()]

    def test_values_are_minors_times_row_scales(self):
        M = as_matrix([[Fraction(1, 3), Fraction(1, 2)], [Fraction(1, 7), Fraction(1, 5)]])
        scaled = _scaled_minors(M)
        assert all_minors(M)[((1, 2), (1, 2))] == Fraction(-1, 210)
        assert scaled[((1, 2), (1, 2))] == -1
        assert scaled[((2,), (1,))] == 5

    def test_laurent_input_is_the_exact_table(self):
        M = as_matrix([[T11, T12], [T21, T22]])
        assert _scaled_minors(M) == all_minors(M)


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

    def test_rejects_symbolic(self):
        with pytest.raises(TypeError):
            rank_exact(as_matrix([[T11]]))


class TestMatMul:
    def test_golden(self):
        A = as_matrix([[1, 2], [3, 4]])
        B = as_matrix([[0, 1], [1, 0]])
        assert mat_mul(A, B) == as_matrix([[2, 1], [4, 3]])

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            mat_mul(as_matrix([[1, 2]]), as_matrix([[1, 2]]))
