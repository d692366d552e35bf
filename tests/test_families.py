import random

import pytest

from tnncells import (
    PartialPermutation,
    RestrictedPermutation,
    as_matrix,
    bruhat_cell_vanishes,
    closure_rank_conditions_hold,
    enumerate_diagrams,
    enumerate_partial_permutations,
    enumerate_restricted_perms,
    family_of_perm,
    index_set_leq,
    MinorFamily,
    MinorId,
    all_minor_ids,
    perm_of_diagram,
    random_cauchon_matrix,
    random_diagram,
    restore,
    w_max,
)
from tnncells import families
from tnncells.families import _bounded_subsets, _condition_masks, _undominated
from tnncells.minors import COLS, ROWS

from conftest import family_of_ids, stripe_column_sets, stripe_row_sets


def condition_flags(w, mid) -> tuple[bool, bool, bool, bool]:
    """Which of the four membership conditions hold for this minor."""
    return tuple(mid in set(MinorFamily(w.m, w.p, mask)) for mask in _condition_masks(w))


def witness_matrix(mid, m, p):
    """The 0/1 m x p matrix with ones exactly at (rows[k], cols[k]); its
    minor [rows|cols] equals 1."""
    ones = set(zip(mid.rows, mid.cols))
    return as_matrix([[int((i, a) in ones) for a in range(1, p + 1)] for i in range(1, m + 1)])


W34 = RestrictedPermutation(3, 4, (3, 1, 4, 2, 7, 6, 5))
W44 = RestrictedPermutation(4, 4, (1, 3, 6, 4, 5, 2, 7, 8))

FAMILY_34 = {
    "[2|1]",
    "[3|1]",
    "[1|3]",
    "[1|4]",
    "[2|4]",
    "[1,2|1,4]",
    "[1,2|2,4]",
    "[1,2|3,4]",
    "[1,3|3,4]",
    "[2,3|1,2]",
    "[2,3|1,3]",
    "[2,3|2,3]",
    "[2,3|1,4]",
    "[1,2,3|1,2,3]",
}


class TestWorked34Example:
    def test_family(self):
        fam = family_of_perm(W34)
        assert {x.text() for x in fam} == FAMILY_34

    def test_condition_breakdown(self):
        flags = {mid: condition_flags(W34, mid) for mid in family_of_perm(W34)}
        by_first = {
            mid.text()
            for mid, f in flags.items()
            if f[0] and not (f[2] or f[3])
        }
        by_second = {
            mid.text()
            for mid, f in flags.items()
            if f[1] and not (f[0] or f[2] or f[3])
        }
        assert by_first == {
            "[2|1]",
            "[3|1]",
            "[2,3|1,2]",
            "[2,3|1,3]",
            "[2,3|2,3]",
            "[2,3|1,4]",
        }
        assert by_second == {
            "[1|3]",
            "[1|4]",
            "[2|4]",
            "[1,2|1,4]",
            "[1,2|2,4]",
            "[1,2|3,4]",
            "[1,3|3,4]",
        }
        # the single full-size member is forced by the column-stripe condition
        assert flags[MinorId((1, 2, 3), (1, 2, 3))][2]

    def test_stripes(self):
        assert stripe_column_sets(W34) == {(1, 2, 3)}
        assert stripe_row_sets(W34) == set()
        # (1,2,3,4) satisfies the column condition but matches no minor on 3 rows
        assert cond3_by_recount(W34, (1, 2, 3, 4))


class TestWorked44Example:
    def test_stripes(self):
        assert stripe_column_sets(W44) == {
            (2, 3),
            (2, 3, 4),
            (1, 2, 3),
            (1, 2, 3, 4),
        }
        assert stripe_row_sets(W44) == {
            (3,),
            (1, 3),
            (2, 3),
            (3, 4),
            (1, 2, 3),
            (1, 3, 4),
            (2, 3, 4),
            (1, 2, 3, 4),
        }

    def test_family_is_stripe_union(self):
        cols = stripe_column_sets(W44)
        rows = stripe_row_sets(W44)
        expected = {
            mid for mid in all_minor_ids(4, 4) if mid.cols in cols or mid.rows in rows
        }
        assert set(family_of_perm(W44)) == expected


def cond3_by_recount(w, cols) -> bool:
    """Condition 3 with the escape count of every window [r, s] recounted
    from scratch."""
    m, p, line = w.m, w.p, w.w
    for r in range(1, p + 1):
        inside = 0
        for s in range(r, p + 1):
            if s in cols:
                inside += 1
            free = sum(1 for a in range(r, s + 1) if not (m + r <= line[a - 1] <= m + s))
            if inside > free:
                return True
    return False


def cond4_by_recount(w, rows) -> bool:
    """Condition 4 with the row count and the escape count of every window
    [r, s] recounted from scratch."""
    m, n, line = w.m, w.n, w.w
    for r in range(1, m + 1):
        for s in range(r, m + 1):
            inside = sum(1 for i in rows if r <= i <= s)
            free = sum(
                1
                for j in range(n + 1 - s, n + 2 - r)
                if not (m + 1 - s <= line[j - 1] <= m + 1 - r)
            )
            if inside > free:
                return True
    return False


class TestStripeCondition:
    @pytest.mark.parametrize("m,p", [(2, 3), (3, 4), (4, 3), (2, 5)])
    def test_cond3_matches_the_recount(self, m, p):
        for w in enumerate_restricted_perms(m, p):
            cond3 = family_of_ids(
                m, p, (mid for mid in all_minor_ids(m, p) if cond3_by_recount(w, mid.cols))
            )
            assert MinorFamily(m, p, _condition_masks(w)[2]) == cond3, w.w

    @pytest.mark.parametrize("m,p", [(3, 2), (4, 3), (3, 4), (5, 2)])
    def test_cond4_matches_the_recount(self, m, p):
        for w in enumerate_restricted_perms(m, p):
            cond4 = family_of_ids(
                m, p, (mid for mid in all_minor_ids(m, p) if cond4_by_recount(w, mid.rows))
            )
            assert MinorFamily(m, p, _condition_masks(w)[3]) == cond4, w.w


def reference_conditions(w):
    """The four conditions as predicates on a minor, evaluated from their
    definitions: conditions 1 and 2 search the bounded subsets of each pool
    afresh and compare sorted images with `index_set_leq`, and conditions 3
    and 4 recount every window."""
    m, p, n, line = w.m, w.p, w.n, w.w
    img_rows = {a: m + 1 - line[a - 1] for a in range(1, p + 1) if line[a - 1] <= m}
    img_cols = {l: line[n - l] for l in range(1, m + 1) if line[n - l] >= m + 1}

    def cond1(mid):
        return not any(
            index_set_leq(mid.rows, sorted(img_rows[a] for a in L))
            for L in _bounded_subsets(tuple(img_rows), len(mid.rows), mid.cols)
        )

    def cond2(mid):
        shifted = [m + c for c in mid.cols]
        return not any(
            index_set_leq(shifted, sorted(img_cols[l] for l in L))
            for L in _bounded_subsets(tuple(img_cols), len(mid.cols), mid.rows)
        )

    def cond3(mid):
        return cond3_by_recount(w, mid.cols)

    def cond4(mid):
        return cond4_by_recount(w, mid.rows)

    return cond1, cond2, cond3, cond4


def reference_family_of_perm(w) -> MinorFamily:
    """The minors of `all_minor_ids` meeting at least one reference condition."""
    conditions = reference_conditions(w)
    return family_of_ids(w.m, w.p, (
        mid
        for mid in all_minor_ids(w.m, w.p)
        if any(cond(mid) for cond in conditions)
    ))


class TestDominanceConditions:
    """Conditions 1 and 2 mask by mask; TestStripeCondition covers 3 and 4."""

    @pytest.mark.parametrize("m,p", [(2, 3), (3, 2), (3, 4), (4, 3), (2, 5), (5, 2)])
    def test_each_condition_equals_its_reference(self, m, p):
        ids = all_minor_ids(m, p)
        for w in enumerate_restricted_perms(m, p):
            masks = _condition_masks(w)
            for k, cond in enumerate(reference_conditions(w)[:2]):
                reference = family_of_ids(m, p, (mid for mid in ids if cond(mid)))
                assert MinorFamily(m, p, masks[k]) == reference, (w.w, k + 1)


# Every grid with at most 9 cells, plus (3,4), (4,3), (2,5) and (2,6).
REFERENCE_GRIDS = [
    (m, p) for m in range(1, 10) for p in range(1, 10) if m * p <= 9
] + [(3, 4), (4, 3), (2, 5), (2, 6)]


class TestWitnessLists:
    @pytest.mark.parametrize("m,p", REFERENCE_GRIDS)
    def test_family_equals_the_reference(self, m, p):
        perms = list(enumerate_restricted_perms(m, p))
        expected = [reference_family_of_perm(w) for w in perms]
        # each condition's mask is memoised on what it reads, so the second
        # pass is served from the caches; at square grids a key without the
        # axis would hand condition 3 the mask of condition 4, or 1 that of 2
        for _ in range(2):
            assert [family_of_perm(w) for w in perms] == expected

    def test_seeded_sample_at_4x4(self):
        rng = random.Random(4)
        for w in rng.sample(list(enumerate_restricted_perms(4, 4)), 300):
            assert family_of_perm(w) == reference_family_of_perm(w), w.w

    def test_seeded_sample_at_5x5(self):
        # restricted permutations of uniform diagrams, read off the pipe dream
        rng = random.Random(5)
        for _ in range(20):
            w = perm_of_diagram(random_diagram(5, 5, rng))
            assert family_of_perm(w) == reference_family_of_perm(w), w.w


class TestFamilyEdges:
    def test_identity_is_empty(self):
        for m, p in ((2, 2), (3, 4)):
            ident = RestrictedPermutation(m, p, tuple(range(1, m + p + 1)))
            assert len(family_of_perm(ident)) == 0

    def test_w_max_is_everything(self):
        for m, p in ((2, 2), (2, 3)):
            assert set(family_of_perm(w_max(m, p))) == set(all_minor_ids(m, p))

    def test_families_distinct_at_2x2(self):
        fams = [frozenset(family_of_perm(w)) for w in enumerate_restricted_perms(2, 2)]
        assert len(set(fams)) == 14


def block_count_regions(w):
    """Each distinct region of `closure_rank_conditions_hold` as (rows,
    cols, bound), 0-based, with the bound counted as ones of the
    permutation matrix P[i][j] = [w(j) = i] in a flipped block of P, and
    the smallest such bound kept for a region that several blocks give."""
    m, p, n = w.m, w.p, w.n
    # 1-based: row and column 0 are padding
    P = [[int(0 < j and w.w[j - 1] == i) for j in range(n + 1)] for i in range(n + 1)]

    def ones(cells):
        return sum(P[i][j] for i, j in cells)

    regions = []
    for r in range(1, m + 1):
        for s in range(1, p + 1):
            # the upper-left block with its rows flipped: (i, a) is P[m+1-i][a]
            corner = ones((m + 1 - i, a) for i in range(r, m + 1) for a in range(1, s + 1))
            regions.append((range(r, m + 1), range(1, s + 1), corner))
            # the lower-right block transposed, rows flipped: (i, a) is P[m+a][n+1-i]
            corner = ones((m + a, n + 1 - i) for i in range(1, r + 1) for a in range(s, p + 1))
            regions.append((range(1, r + 1), range(s, p + 1), corner))
    for r in range(1, p + 1):
        for s in range(r, p + 1):
            # the lower-left block: (c, a) is P[m+c][a], rows [r, p], cols [r, s]
            held = ones((m + c, a) for c in range(r, p + 1) for a in range(r, s + 1))
            regions.append((range(1, m + 1), range(r, s + 1), s + 1 - r - held))
    for r in range(1, m + 1):
        for s in range(r, m + 1):
            # the upper-right block, both axes flipped: (i, j) is P[m+1-i][n+1-j]
            held = ones((m + 1 - i, n + 1 - j) for i in range(r, s + 1) for j in range(1, s + 1))
            regions.append((range(r, s + 1), range(1, p + 1), s + 1 - r - held))
    # a region that recurs is ranked once, against its smallest bound
    smallest = {}
    for rows, cols, bound in regions:
        region = (tuple(i - 1 for i in rows), tuple(a - 1 for a in cols))
        smallest[region] = min(bound, smallest.get(region, bound))
    return sorted((*region, bound) for region, bound in smallest.items())


class _Bound:
    """Stands in for a region's rank: logs the bound it is compared with."""

    def __init__(self, region, log):
        self.region, self.log = region, log

    def __le__(self, bound):
        self.log.append((*self.region, bound))
        return True


class TestRankConditionShadow:
    """The rank-condition description must reject every vanishing-minor
    witness, hold on every point of the cell, and bound each region by the
    ones of w's permutation matrix in it."""

    @pytest.mark.parametrize(
        "m,p",
        [(m, p) for m in range(1, 5) for p in range(1, 5)] + [(1, 7), (7, 1)],
    )
    def test_region_bounds_match_block_counts(self, m, p, monkeypatch):
        log = []
        monkeypatch.setattr(
            families.linalg, "submatrix", lambda x, rows, cols: (tuple(rows), tuple(cols))
        )
        monkeypatch.setattr(families.linalg, "rank_exact", lambda region: _Bound(region, log))
        zero = as_matrix([[0] * p for _ in range(m)])
        for w in enumerate_restricted_perms(m, p):
            log.clear()
            assert closure_rank_conditions_hold(w, zero)
            assert sorted(log) == block_count_regions(w), w.w

    @pytest.mark.parametrize("m,p", [(2, 3), (3, 3)])
    def test_every_cell_point_meets_its_bounds(self, m, p):
        for k, C in enumerate(enumerate_diagrams(m, p)):
            x = restore(random_cauchon_matrix(C, k)).final
            assert closure_rank_conditions_hold(perm_of_diagram(C), x), C

    @pytest.mark.parametrize("m,p", [(2, 2), (2, 3)])
    def test_witnesses_violate_rank_conditions(self, m, p):
        for w in enumerate_restricted_perms(m, p):
            for mid in family_of_perm(w):
                x = witness_matrix(mid, m, p)
                assert not closure_rank_conditions_hold(w, x), (w.w, mid.text())

    def test_sampled_at_3x3(self):
        rng = random.Random(17)
        perms = list(enumerate_restricted_perms(3, 3))
        for w in rng.sample(perms, 40):
            for mid in family_of_perm(w):
                assert not closure_rank_conditions_hold(w, witness_matrix(mid, 3, 3))

    def test_zero_matrix_always_allowed(self):
        zero = as_matrix([[0, 0], [0, 0]])
        for w in enumerate_restricted_perms(2, 2):
            assert closure_rank_conditions_hold(w, zero)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="matrix is 2x2, expected 2x3"):
            closure_rank_conditions_hold(w_max(2, 3), as_matrix([[0, 0], [0, 0]]))

    def test_witness_matrix_shape(self):
        x = witness_matrix(MinorId((1, 3), (2, 3)), 3, 3)
        assert [[int(v) for v in row] for row in x] == [
            [0, 1, 0],
            [0, 0, 0],
            [0, 0, 1],
        ]


class TestPartialPermutations:
    def test_counts(self):
        # sum_k C(m,k) C(p,k) k!
        assert len(list(enumerate_partial_permutations(2, 2))) == 7
        assert len(list(enumerate_partial_permutations(2, 3))) == 13
        assert len(list(enumerate_partial_permutations(3, 3))) == 34

    def test_matrix_roundtrip(self):
        for pp in enumerate_partial_permutations(2, 3):
            mat = pp.to_matrix()
            ones = {(c, r) for r, row in enumerate(mat, 1) for c, x in enumerate(row, 1) if x}
            assert len(mat) == 2 and len(mat[0]) == 3
            assert ones == set(pp.assignment)

    def test_rejects_double_one(self):
        with pytest.raises(ValueError):  # two columns onto row 1
            PartialPermutation(2, 2, ((1, 1), (2, 1)))
        with pytest.raises(ValueError):  # column 1 twice
            PartialPermutation(2, 2, ((1, 1), (1, 2)))
        with pytest.raises(ValueError):  # row 3 outside the grid
            PartialPermutation(2, 2, ((1, 3),))

    def test_accessors(self):
        pp = PartialPermutation(2, 3, ((2, 1),))  # col 2 -> row 1
        assert pp.domain() == (2,)
        assert pp.apply(2) == 1 and pp.apply(1) is None

    def test_transpose(self):
        pp = PartialPermutation(2, 3, ((1, 2), (3, 1)))  # cols 1, 3 -> rows 2, 1
        assert pp.transpose() == PartialPermutation(3, 2, ((1, 3), (2, 1)))
        assert pp.transpose().transpose() == pp


class TestBruhatCellPredicate:
    def test_formulations_agree(self):
        # the per-minor search against the dominance masks behind
        # conditions 1 and 2 of `family_of_perm`, on both signs
        for m, p in ((2, 2), (2, 3), (3, 2)):
            for pp in enumerate_partial_permutations(m, p):
                masks = {
                    "plus": _undominated(m, p, COLS, pp.assignment),
                    "minus": _undominated(m, p, ROWS, pp.transpose().assignment),
                }
                for sign, mask in masks.items():
                    for i, mid in enumerate(all_minor_ids(m, p)):
                        vanishes = bruhat_cell_vanishes(pp, mid, sign)
                        assert vanishes == bool(mask >> i & 1), (pp.assignment, sign, mid.text())

    def test_identity_goldens(self):
        # products a.I.b with upper-triangular a, b are upper triangular
        ident = PartialPermutation(2, 2, ((1, 1), (2, 2)))
        assert bruhat_cell_vanishes(ident, MinorId((2,), (1,)), "plus")
        assert not bruhat_cell_vanishes(ident, MinorId((1,), (2,)), "plus")
        assert not bruhat_cell_vanishes(ident, MinorId((1, 2), (1, 2)), "plus")
        # and the minus side is the mirror image
        assert bruhat_cell_vanishes(ident, MinorId((1,), (2,)), "minus")
        assert not bruhat_cell_vanishes(ident, MinorId((2,), (1,)), "minus")

    def test_rank_bound_forces_vanishing(self):
        pp = PartialPermutation(2, 2, ((1, 1),))  # rank 1
        assert bruhat_cell_vanishes(pp, MinorId((1, 2), (1, 2)), "plus")
        assert bruhat_cell_vanishes(pp, MinorId((1, 2), (1, 2)), "minus")

    def test_bad_sign_rejected(self):
        pp = PartialPermutation(1, 1, ((1, 1),))
        with pytest.raises(ValueError):
            bruhat_cell_vanishes(pp, MinorId((1,), (1,)), "sideways")
