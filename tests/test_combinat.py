import json
import random
from itertools import permutations
from math import comb, factorial

import pytest

from tnncells import (
    CauchonDiagram,
    RestrictedPermutation,
    SizeCapError,
    block_decompose,
    bruhat_leq,
    count_diagrams,
    diagram_of_matrix,
    enumerate_diagrams,
    enumerate_restricted_perms,
    index_set_leq,
    is_cauchon_matrix,
    random_diagram,
    w_max,
)
from tnncells.combinat import _black_mask, _count_restricted_perms, _mask_is_cauchon

COUNTS = {(1, 1): 2, (2, 2): 14, (2, 3): 46, (3, 3): 230}


def is_cauchon(m: int, p: int, black) -> bool:
    """The left-or-above test on a black-cell set, through the package's
    mask test; an off-grid cell raises ValueError."""
    return _mask_is_cauchon(m, p, _black_mask(m, p, black))


def cell_by_cell_is_cauchon(m: int, p: int, mask: int) -> bool:
    """The left-or-above test one black cell at a time: the oracle for
    the row-at-a-time `_mask_is_cauchon`."""
    for i in range(1, m + 1):
        row = (mask >> ((i - 1) * p)) & ((1 << p) - 1)
        for a in range(1, p + 1):
            if not row >> (a - 1) & 1:
                continue
            left_full = row & ((1 << (a - 1)) - 1) == (1 << (a - 1)) - 1
            if left_full:
                continue
            above_full = all(mask >> ((k - 1) * p + a - 1) & 1 for k in range(1, i))
            if not above_full:
                return False
    return True


SMALL_GRIDS = [(m, p) for m in range(1, 13) for p in range(1, 13) if m * p <= 12]


def stirling2(n: int, k: int) -> int:
    """Stirling number of the second kind, by inclusion-exclusion."""
    return sum((-1) ** i * comb(k, i) * (k - i) ** n for i in range(k + 1)) // factorial(k)


def poly_bernoulli(m: int, p: int) -> int:
    """B(m, p) by the closed form sum_j (j!)^2 S(m+1, j+1) S(p+1, j+1)
    (Kaneko 1997), sharing nothing with the row walk."""
    return sum(
        factorial(j) ** 2 * stirling2(m + 1, j + 1) * stirling2(p + 1, j + 1)
        for j in range(min(m, p) + 1)
    )


def longest_element(n: int) -> tuple[int, ...]:
    """One-line form of the order-reversing permutation [n, n-1, ..., 1]."""
    return tuple(range(n, 0, -1))


def compose(u, v) -> tuple[int, ...]:
    """(u . v)(j) = u(v(j)), one-line forms."""
    return tuple(u[v[j] - 1] for j in range(len(v)))


class TestDiagrams:
    def test_counts(self):
        for (m, p), n in COUNTS.items():
            assert count_diagrams(m, p) == n

    def test_condition_goldens(self):
        # black cell needs everything left black, or everything above black
        assert is_cauchon(2, 2, [(2, 2), (1, 2)])      # column above is black
        assert is_cauchon(2, 2, [(2, 2), (2, 1)])      # row to the left is black
        assert not is_cauchon(2, 2, [(2, 2)])
        assert is_cauchon(1, 1, [(1, 1)])
        assert is_cauchon(3, 3, [(1, 1), (1, 3), (2, 1), (2, 2)])

    def test_out_of_range_black_rejected(self):
        with pytest.raises(ValueError):
            is_cauchon(2, 2, [(3, 1)])

    def test_enumeration_is_exhaustive_filter(self):
        got = {C.mask for C in enumerate_diagrams(2, 3)}
        expected = set()
        for mask in range(1 << 6):
            black = [(i + 1, a + 1) for i in range(2) for a in range(3) if mask >> (i * 3 + a) & 1]
            if is_cauchon(2, 3, black):
                expected.add(mask)
        assert got == expected

    @pytest.mark.parametrize("m,p", SMALL_GRIDS + [(4, 4), (2, 8), (8, 2), (1, 16), (16, 1)])
    def test_row_walk_is_the_ascending_filter(self, m, p):
        walked = [C.mask for C in enumerate_diagrams(m, p)]
        assert walked == [mask for mask in range(1 << (m * p)) if _mask_is_cauchon(m, p, mask)]

    @pytest.mark.parametrize("m,p", SMALL_GRIDS + [(4, 4)])
    def test_count_is_the_enumeration_size(self, m, p):
        assert count_diagrams(m, p) == sum(1 for _ in enumerate_diagrams(m, p))

    @pytest.mark.parametrize("m,p", [(5, 5), (8, 8), (1, 64), (64, 1)])
    def test_count_is_the_poly_bernoulli_closed_form(self, m, p):
        assert count_diagrams(m, p) == poly_bernoulli(m, p)

    def test_poly_bernoulli_goldens(self):
        assert poly_bernoulli(5, 5) == 329_462
        assert poly_bernoulli(8, 8) == 276_054_834_902
        assert poly_bernoulli(1, 64) == 2**64

    @pytest.mark.parametrize("m,p", SMALL_GRIDS + [(4, 4)])
    def test_mask_test_matches_the_cell_by_cell_oracle(self, m, p):
        for mask in range(1 << (m * p)):
            assert _mask_is_cauchon(m, p, mask) == cell_by_cell_is_cauchon(m, p, mask), mask

    def test_black_white_partition(self):
        C = CauchonDiagram.from_black(2, 2, [(1, 2), (2, 2)])
        assert C.black_cells() == ((1, 2), (2, 2))
        white = [(i, a) for i in (1, 2) for a in (1, 2) if (i, a) not in C.black_cells()]
        assert white == [(1, 1), (2, 1)]

    @pytest.mark.parametrize("m,p", SMALL_GRIDS + [(4, 4)])
    def test_fill_reads_the_row_major_bits(self, m, p):
        # bit (i-1)p + (a-1) is cell (i, a); `white` runs once per white
        # cell, in row-major order
        for C in enumerate_diagrams(m, p):
            calls = []

            def white(i, a):
                calls.append((i, a))
                return (i, a)

            expected = tuple(
                tuple(
                    None if C.mask >> ((i - 1) * p + a - 1) & 1 else (i, a)
                    for a in range(1, p + 1)
                )
                for i in range(1, m + 1)
            )
            assert C.fill(white, None) == expected, C
            assert calls == [cell for row in expected for cell in row if cell], C

    @pytest.mark.parametrize("m,p", SMALL_GRIDS + [(4, 4)])
    def test_zero_mask_inverts_fill(self, m, p):
        for C in enumerate_diagrams(m, p):
            X = C.fill(lambda i, a: 1, 0)
            assert diagram_of_matrix(X) == C
            assert is_cauchon_matrix(X)

    @pytest.mark.parametrize("m,p", SMALL_GRIDS + [(4, 4)])
    def test_from_black_inverts_black_cells(self, m, p):
        for C in enumerate_diagrams(m, p):
            assert CauchonDiagram.from_black(m, p, C.black_cells()) == C

    def test_invalid_diagram_rejected(self):
        with pytest.raises(ValueError):
            CauchonDiagram.from_black(2, 2, [(2, 2)])

    def test_json_roundtrip(self):
        C = CauchonDiagram.from_black(3, 3, [(1, 1), (1, 3), (2, 1), (2, 2)])
        obj = C.to_json_obj()
        assert obj == {"m": 3, "p": 3, "black": [[1, 1], [1, 3], [2, 1], [2, 2]]}
        assert CauchonDiagram.from_json_obj(json.loads(json.dumps(obj))) == C

    @pytest.mark.parametrize(
        "obj",
        [
            {"m": 2.5, "p": 2, "black": []},
            {"m": "2", "p": 2, "black": []},
            {"m": True, "p": 2, "black": []},
            {"m": 2, "p": False, "black": []},
            {"m": 2, "p": 2, "black": 5},
            {"m": 2, "p": 2, "black": None},
            {"m": 2, "p": 2, "black": [["a", 1]]},
            {"m": 2, "p": 2, "black": [[1, True]]},
            {"m": 2, "p": 2, "black": [[1, 2, 3]]},
            {"m": 2, "p": 2, "black": [5]},
            [2, 2, []],
        ],
    )
    def test_json_of_the_wrong_type_is_a_value_error(self, obj):
        with pytest.raises(ValueError):
            CauchonDiagram.from_json_obj(obj)

    @pytest.mark.parametrize("field", ["m", "p", "black"])
    def test_json_missing_a_field_is_a_value_error_naming_it(self, field):
        obj = {"m": 2, "p": 2, "black": []}
        del obj[field]
        with pytest.raises(ValueError, match=f"field '{field}'"):
            CauchonDiagram.from_json_obj(obj)

    def test_random_diagram_is_valid_and_seeded(self):
        r1 = random.Random(99)
        r2 = random.Random(99)
        for _ in range(30):
            C = random_diagram(3, 4, r1)
            assert is_cauchon(3, 4, C.black_cells())
            assert C == random_diagram(3, 4, r2)

    def test_size_cap(self):
        with pytest.raises(SizeCapError):
            CauchonDiagram.from_black(9, 9, [])


class TestRestrictedPerms:
    def test_counts_match_diagrams(self):
        for (m, p), n in COUNTS.items():
            assert sum(1 for _ in enumerate_restricted_perms(m, p)) == n

    def test_enumeration_matches_naive_filter(self):
        # lex order on thin and square grids, where the forced move of the
        # smallest value prunes most
        for m, p in ((2, 3), (1, 6), (6, 1), (2, 4), (4, 2), (3, 3)):
            got = [w.w for w in enumerate_restricted_perms(m, p)]
            expected = [
                w
                for w in permutations(range(1, m + p + 1))
                if all(-p <= w[j] - (j + 1) <= m for j in range(m + p))
            ]
            assert got == expected, (m, p)

    @pytest.mark.parametrize("m,p", SMALL_GRIDS + [(4, 4)])
    def test_count_is_the_enumeration_size(self, m, p):
        assert _count_restricted_perms(m, p) == sum(1 for _ in enumerate_restricted_perms(m, p))

    @pytest.mark.parametrize("m,p", [(8, 8), (1, 16), (16, 1), (4, 16)])
    def test_count_is_the_diagram_count(self, m, p):
        # the bijection: as many restricted permutations as diagrams
        assert _count_restricted_perms(m, p) == count_diagrams(m, p)

    def test_tall_grid_has_no_dead_ends(self):
        # 2^12 permutations; without the forced move this walk took 38 s
        assert sum(1 for _ in enumerate_restricted_perms(12, 1)) == 4096

    def test_shift_bounds_enforced(self):
        with pytest.raises(ValueError):
            RestrictedPermutation(1, 2, (3, 1, 2))  # w(1)-1 = 2 > m = 1
        with pytest.raises(ValueError):
            RestrictedPermutation(2, 1, (2, 3, 1))  # w(3)-3 = -2 < -p = -1
        with pytest.raises(ValueError):
            RestrictedPermutation(2, 2, (1, 1, 2, 3))

    def test_w_max(self):
        wm = w_max(3, 4)
        assert wm.w == (4, 5, 6, 7, 1, 2, 3)
        assert wm.w[0] == 4 and wm.w[6] == 3

    def test_everything_below_w_max(self):
        for m, p in ((2, 2), (2, 3)):
            wm = w_max(m, p)
            restricted = {w.w for w in enumerate_restricted_perms(m, p)}
            below = {
                w
                for w in permutations(range(1, m + p + 1))
                if bruhat_leq(w, wm.w)
            }
            assert restricted == below

    def test_json_roundtrip(self):
        w = RestrictedPermutation(3, 4, (3, 1, 4, 2, 7, 6, 5))
        obj = w.to_json_obj()
        assert obj == {"m": 3, "p": 4, "w": [3, 1, 4, 2, 7, 6, 5]}


def _subword_leq(w: tuple, z: tuple) -> bool:
    """Bruhat oracle: some subword of a reduced word for z multiplies to w."""
    n = len(z)
    word = []
    arr = list(z)
    for i in range(n):  # bubble sort records a reduced word of z (in reverse)
        for j in range(n - 1):
            if arr[j] > arr[j + 1]:
                arr[j], arr[j + 1] = arr[j + 1], arr[j]
                word.append(j)
    word.reverse()
    for mask in range(1 << len(word)):
        cur = list(range(1, n + 1))
        for t, s in enumerate(word):
            if mask >> t & 1:
                cur[s], cur[s + 1] = cur[s + 1], cur[s]
        if tuple(cur) == w:
            return True
    return False


class TestBruhat:
    def test_matches_subword_oracle_s3_s4(self):
        for n in (3, 4):
            perms = list(permutations(range(1, n + 1)))
            for w in perms:
                for z in perms:
                    assert bruhat_leq(w, z) == _subword_leq(w, z), (w, z)

    def test_poset_basics(self):
        e = (1, 2, 3, 4)
        w0 = (4, 3, 2, 1)
        for z in permutations(range(1, 5)):
            assert bruhat_leq(e, z)
            assert bruhat_leq(z, w0)
        assert not bruhat_leq(w0, e)

    def test_accepts_wrapper_type(self):
        w = RestrictedPermutation(2, 2, (1, 2, 3, 4))
        z = w_max(2, 2)
        assert bruhat_leq(w, z)


class TestBlocksAndHelpers:
    def test_block_shapes_and_sums(self):
        w = RestrictedPermutation(3, 4, (3, 1, 4, 2, 7, 6, 5))
        b = block_decompose(w, 3, 4)
        assert len(b.w11) == 3 and len(b.w11[0]) == 4
        assert len(b.w12) == 3 and len(b.w12[0]) == 3
        assert len(b.w21) == 4 and len(b.w21[0]) == 4
        assert len(b.w22) == 4 and len(b.w22[0]) == 3
        # stacked blocks reassemble the permutation matrix: every row/col sums to 1
        n = 7
        full = [[0] * n for _ in range(n)]
        for i in range(3):
            for a in range(4):
                full[i][a] = b.w11[i][a]
            for j in range(3):
                full[i][4 + j] = b.w12[i][j]
        for c in range(4):
            for a in range(4):
                full[3 + c][a] = b.w21[c][a]
            for j in range(3):
                full[3 + c][4 + j] = b.w22[c][j]
        assert all(sum(row) == 1 for row in full)
        assert all(sum(full[i][j] for i in range(n)) == 1 for j in range(n))

    def test_block_golden(self):
        # reversing the rows of the upper-left block of w = 3,1,4,2,7,6,5
        w = RestrictedPermutation(3, 4, (3, 1, 4, 2, 7, 6, 5))
        b = block_decompose(w, 3, 4)
        reversed_w11 = list(reversed(b.w11))
        assert [list(r) for r in reversed_w11] == [
            [1, 0, 0, 0],
            [0, 0, 0, 1],
            [0, 1, 0, 0],
        ]

    def test_longest_and_compose(self):
        assert longest_element(4) == (4, 3, 2, 1)
        assert all(bruhat_leq(w, longest_element(4)) for w in permutations(range(1, 5)))
        assert compose((2, 1, 3), (3, 1, 2)) == (3, 2, 1)
        assert compose(longest_element(4), longest_element(4)) == (1, 2, 3, 4)

    def test_index_sets(self):
        assert index_set_leq((1, 2), (2, 3))
        assert not index_set_leq((1, 3), (2, 2))
        with pytest.raises(ValueError):
            index_set_leq((1,), (1, 2))
