import copy
import io
import json
import sys
from itertools import combinations
from math import comb

import pytest
from hypothesis import given
from hypothesis import strategies as st

from tnncells import (
    MinorFamily,
    MinorId,
    all_minor_ids,
    all_minors_table,
    as_matrix,
    eval_minor,
    is_tnn,
    match_families,
    vanishing_family,
)
from tnncells import cli, linalg
from tnncells.minors import COLS, ROWS, _mask_by, _minor_json, _sign_masks

from conftest import SMALL_GRIDS, family_of_ids, rand_fraction, rand_matrix


class TestMinorId:
    def test_text_and_parse(self):
        mid = MinorId((1, 2), (1, 3))
        assert mid.text() == "[1,2|1,3]"
        assert str(mid) == "[1,2|1,3]"
        assert MinorId((3,), (2,)).text() == "[3|2]"

    def test_validation(self):
        # eval_minor is the package's one reader of an id from outside; a
        # nonpositive index would wrap to the last row and an unsorted one
        # would permute the rows, so each is refused, not read
        M = as_matrix([[1, 2], [3, 4]])
        bad = (
            MinorId((0,), (1,)),
            MinorId((2, 1), (1, 2)),
            MinorId((1, 2), (1,)),
            MinorId((1,), ()),
            MinorId((), ()),
            MinorId((1, 1), (1, 2)),
            MinorId((0, 1), (1, 2)),
        )
        for mid in bad:
            with pytest.raises(ValueError, match="malformed minor"):
                eval_minor(M, mid)

    def test_canonical_id_order(self):
        ids = all_minor_ids(2, 2)
        assert [x.text() for x in ids] == ["[1|1]", "[1|2]", "[2|1]", "[2|2]", "[1,2|1,2]"]

    @pytest.mark.parametrize("m,p", [(0, 3), (3, 0)])
    def test_ids_of_an_empty_grid_rejected(self, m, p):
        with pytest.raises(ValueError, match="grid dimensions must be positive"):
            all_minor_ids(m, p)

    def test_id_count_formula(self):
        for m, p in ((1, 1), (2, 2), (2, 3), (3, 3), (3, 4)):
            assert len(all_minor_ids(m, p)) == comb(m + p, m) - 1

    def test_ids_are_every_minor_by_size_rows_then_columns(self):
        for m, p in ((1, 4), (3, 2), (3, 4), (5, 5)):
            expected = [
                MinorId(rows, cols)
                for k in range(1, min(m, p) + 1)
                for rows in combinations(range(1, m + 1), k)
                for cols in combinations(range(1, p + 1), k)
            ]
            assert all_minor_ids(m, p) == expected


class TestMinorFamily:
    def test_json_is_sorted_canonically(self):
        fam = family_of_ids(2, 2, [MinorId((1, 2), (1, 2)), MinorId((2,), (1,))])
        obj = fam.to_json_obj()
        assert obj == [
            {"rows": [2], "cols": [1]},
            {"rows": [1, 2], "cols": [1, 2]},
        ]

    def test_membership_iteration(self):
        fam = family_of_ids(2, 2, [MinorId((1,), (2,)), MinorId((2,), (1,))])
        assert MinorId((1,), (2,)) in set(fam)
        assert MinorId((1,), (1,)) not in set(fam)
        assert len(fam) == 2
        assert [x.text() for x in fam] == ["[1|2]", "[2|1]"]

    def test_subset(self):
        small = family_of_ids(2, 2, [MinorId((1,), (2,))])
        big = family_of_ids(2, 2, [MinorId((1,), (2,)), MinorId((2,), (1,))])
        assert frozenset(small) <= frozenset(big)
        assert not frozenset(big) <= frozenset(small)
        assert not small.mask & ~big.mask
        assert big.mask & ~small.mask

    @pytest.mark.parametrize("m, p", [(1, 1), (2, 3), (3, 3), (4, 4)])
    def test_iteration_selects_the_ids_of_the_set_bits(self, rng, m, p):
        ids = all_minor_ids(m, p)
        n = len(ids)
        masks = [0, (1 << n) - 1, 1 << (n - 1), 1]
        masks += [rng.getrandbits(n) for _ in range(20)]
        for mask in masks:
            want = [ids[i] for i in range(n) if mask >> i & 1]
            assert list(MinorFamily(m, p, mask)) == want

    def test_mask_validation(self):
        MinorFamily(2, 2, (1 << 5) - 1)  # all five minors of the 2x2 grid
        with pytest.raises(ValueError, match="nonnegative"):
            MinorFamily(2, 2, -1)
        with pytest.raises(ValueError, match="past the last minor of the 2x2 grid"):
            MinorFamily(2, 2, 1 << 5)
        for m, p in ((0, 2), (2, 0), (-1, 1)):
            with pytest.raises(ValueError, match="positive"):
                MinorFamily(m, p, 0)

    # eval_minor reads a minor id given from outside the package, so its
    # errors must name the offending minor by its text
    def test_of_names_a_malformed_minor(self):
        M = as_matrix([[1, 2, 3], [4, 5, 6], [7, 8, 9]])
        for bad, text in (
            (MinorId((1, 2), (1,)), r"\[1,2\|1\]"),
            (MinorId((), ()), r"\[\|\]"),
            (MinorId((2, 1), (1, 2)), r"\[2,1\|1,2\]"),
        ):
            with pytest.raises(ValueError, match="malformed minor " + text):
                eval_minor(M, bad)

    def test_of_names_a_minor_outside_the_grid(self):
        with pytest.raises(ValueError, match=r"minor \[3\|1\] outside the 2x2"):
            eval_minor(as_matrix([[1, 2], [3, 4]]), MinorId((3,), (1,)))
        with pytest.raises(ValueError, match="outside the 1x3"):
            eval_minor(as_matrix([[1, 2, 3]]), MinorId((1, 2), (1, 2)))


GRIDS = st.sampled_from([(1, 1), (1, 4), (2, 2), (2, 3), (3, 2), (3, 3), (3, 4), (4, 4)])


@st.composite
def grid_and_ids(draw):
    m, p = draw(GRIDS)
    ids = draw(st.lists(st.sampled_from(all_minor_ids(m, p))))
    return m, p, ids


class TestMinorFamilyProperties:
    @given(grid_and_ids())
    def test_members_are_the_ids(self, case):
        m, p, ids = case
        assert frozenset(family_of_ids(m, p, ids)) == frozenset(ids)

    @given(grid_and_ids())
    def test_iteration_is_by_size_rows_then_columns(self, case):
        m, p, ids = case
        expected = sorted(set(ids), key=lambda mid: (len(mid.rows), mid.rows, mid.cols))
        assert list(family_of_ids(m, p, ids)) == expected

    @given(grid_and_ids())
    def test_len_and_membership(self, case):
        m, p, ids = case
        fam = family_of_ids(m, p, ids)
        assert len(fam) == len(set(ids))
        members = set(fam)
        for mid in all_minor_ids(m, p):
            assert (mid in members) == (mid in ids)
        assert MinorId((m + 1,), (1,)) not in members

    @given(grid_and_ids())
    def test_json_round_trip(self, case):
        m, p, ids = case
        fam = family_of_ids(m, p, ids)
        obj = json.loads(json.dumps(fam.to_json_obj()))
        read = [MinorId(tuple(item["rows"]), tuple(item["cols"])) for item in obj]
        assert family_of_ids(m, p, read) == fam
        assert read == list(fam)


class TestEvaluation:
    def test_eval_golden(self):
        M = as_matrix([[1, 2], [3, 4]])
        assert eval_minor(M, MinorId((1,), (2,))) == 2
        assert eval_minor(M, MinorId((1, 2), (1, 2))) == -2

    def test_eval_bounds_check(self):
        with pytest.raises(ValueError, match=r"minor \[3\|1\] outside the 2x2 matrix"):
            eval_minor(as_matrix([[1, 2], [3, 4]]), MinorId((3,), (1,)))
        with pytest.raises(ValueError, match=r"minor \[1,2\|1,2\] outside the 1x3 matrix"):
            eval_minor(as_matrix([[1, 2, 3]]), MinorId((1, 2), (1, 2)))

    def test_table_matches_eval(self, rng):
        M = as_matrix(rand_matrix(rng, 3, 3))
        table = all_minors_table(M)
        assert set(table) == set(all_minor_ids(3, 3))
        for mid in all_minor_ids(3, 3):
            assert table[mid] == eval_minor(M, mid)

    def test_vanishing_family_golden(self):
        ident = as_matrix([[1, 0], [0, 1]])
        fam = vanishing_family(ident)
        assert {x.text() for x in fam} == {"[1|2]", "[2|1]"}

    def test_vanishing_family_of_worked_matrix(self):
        nbar = as_matrix([[11, 7, 4, 1], [7, 5, 3, 1], [4, 3, 2, 1], [1, 1, 1, 1]])
        fam = vanishing_family(nbar)
        assert {x.text() for x in fam} == {
            "[1,2,3|2,3,4]",
            "[1,2,4|2,3,4]",
            "[1,3,4|2,3,4]",
            "[2,3,4|1,2,3]",
            "[2,3,4|1,2,4]",
            "[2,3,4|1,3,4]",
            "[2,3,4|2,3,4]",
            "[1,2,3,4|1,2,3,4]",
        }

    def test_all_ones_vanishing(self):
        M = as_matrix([[1] * 3] * 3)
        fam = vanishing_family(M)
        expected = {mid for mid in all_minor_ids(3, 3) if len(mid.rows) >= 2}
        assert set(fam) == expected


def planted_matrices(rng, m, p):
    """Rational m x p matrices: a signed one as drawn, the same with a
    zero row, the same with its last row a rational combination of two
    earlier rows (or, with fewer than three rows, a multiple of the
    first), and the tnn rank-one product of two nonnegative vectors."""
    drawn = rand_matrix(rng, m, p, span=5)
    zero_row = [list(row) for row in drawn]
    zero_row[rng.randrange(m)] = [0] * p
    dropped = [list(row) for row in drawn]
    a, b = rand_fraction(rng, 3), rand_fraction(rng, 3)
    first, second = drawn[0], drawn[min(1, m - 1)]
    dropped[-1] = (
        [a * x + b * y for x, y in zip(first, second)] if m >= 3 else [a * x for x in first]
    )
    u, v = ([abs(rand_fraction(rng, 5)) for _ in range(n)] for n in (m, p))
    rank_one = [[x * y for y in v] for x in u]
    return [as_matrix(rows) for rows in (drawn, zero_row, dropped, rank_one)]


SIGN_SHAPES = [(1, 1), (1, 4), (3, 2), (3, 4), (4, 4)]


class TestSignMasks:
    """`_sign_masks` reads the Laplace kernel's integer table; `eval_minor`
    is one Bareiss determinant of the submatrix, so it shares no
    expansion with the masks."""

    @pytest.mark.parametrize("m,p", SIGN_SHAPES)
    def test_bits_are_the_zero_and_negative_minors(self, rng, m, p):
        ids = all_minor_ids(m, p)
        seen = {"zero": 0, "negative": 0, "positive": 0}
        for _ in range(10):
            for M in planted_matrices(rng, m, p):
                zeros, negatives = _sign_masks(M)
                assert zeros >> len(ids) == negatives >> len(ids) == 0
                for i, mid in enumerate(ids):
                    value = eval_minor(M, mid)
                    assert (zeros >> i & 1, negatives >> i & 1) == (value == 0, value < 0), mid
                    seen["zero" if value == 0 else "negative" if value < 0 else "positive"] += 1
        assert all(seen.values()), seen

    def test_nonnegative_matrix_has_no_negatives(self):
        # tnn with vanishing minors: every value >= 0, some == 0
        M = [[11, 7, 4, 1], [7, 5, 3, 1], [4, 3, 2, 1], [1, 1, 1, 1]]
        zeros, negatives = _sign_masks(M)
        assert negatives == 0 and zeros.bit_count() == 8

    def test_one_negative_minor_is_its_bit_alone(self):
        # minors [1|1] = 0, [1|2] = [2|1] = [2|2] = 1 and det = -1, the last
        assert _sign_masks([[0, 1], [1, 1]]) == (0b1, 0b10000)

    @pytest.mark.parametrize("m,p", SIGN_SHAPES)
    def test_is_tnn_witness_is_the_first_negative_minor(self, rng, m, p):
        ids = all_minor_ids(m, p)
        verdicts = set()
        for _ in range(10):
            for M in planted_matrices(rng, m, p):
                first = next((mid for mid in ids if eval_minor(M, mid) < 0), None)
                verdict = is_tnn(M)
                assert verdict.is_tnn == (first is None)
                assert verdict.witness == first
                if first is not None:
                    assert verdict.witness_value == eval_minor(M, first)
                verdicts.add(verdict.is_tnn)
        assert verdicts == {True, False}


# Every grid with at most 16 cells, plus (5,5).
LAYOUT_GRIDS = [(m, p) for m in range(1, 17) for p in range(1, 17) if m * p <= 16] + [(5, 5)]


class TestLayout:
    """The per-size layout of the Laplace plan against the canonical ids."""

    def test_blocks_fold_the_ids(self):
        for m, p in LAYOUT_GRIDS:
            plan = linalg._laplace_plan(m, p)
            assert len(plan.sizes) == min(m, p), (m, p)
            seen = 0
            for k, (offset, row_sets, col_sets) in enumerate(plan.sizes, 1):
                assert offset == seen, (m, p, k)
                assert row_sets == tuple(combinations(range(1, m + 1), k)), (m, p, k)
                assert col_sets == tuple(combinations(range(1, p + 1), k)), (m, p, k)
                for r, rows in enumerate(row_sets):
                    for c, cols in enumerate(col_sets):
                        mid = MinorId(rows, cols)
                        assert plan.ids[offset + r * len(col_sets) + c] == mid, (m, p)
                seen += len(row_sets) * len(col_sets)
            assert seen == len(plan.ids), (m, p)

    def test_mask_by_matches_a_scan_of_the_ids(self):
        predicates = (lambda S: 1 in S, lambda S: sum(S) % 2 == 0)
        for m, p in LAYOUT_GRIDS:
            ids = all_minor_ids(m, p)
            for axis in (ROWS, COLS):
                for keep in predicates:
                    for k in range(1, min(m, p) + 1):
                        scan = sum(
                            1 << bit
                            for bit, mid in enumerate(ids)
                            if len(mid.rows) == k and keep(mid[axis])
                        )
                        assert _mask_by(m, p, axis, k, keep) == scan, (m, p, axis, k)


NBAR_CSV = "11,7,4,1\n7,5,3,1\n4,3,2,1\n1,1,1,1\n"  # a 4 x 4 tnn matrix

def fresh_json(fam: MinorFamily) -> list[dict]:
    """The family's JSON built from scratch: the ids by size, rows, then
    columns, with fresh dicts for the set bits of the mask."""
    m, p = fam.m, fam.p
    ids = [
        (rows, cols)
        for k in range(1, min(m, p) + 1)
        for rows in combinations(range(1, m + 1), k)
        for cols in combinations(range(1, p + 1), k)
    ]
    return [
        {"rows": list(rows), "cols": list(cols)}
        for bit, (rows, cols) in enumerate(ids)
        if fam.mask >> bit & 1
    ]


class TestFamilyJson:
    """`to_json_obj` picks the members from one shared, read-only table
    of minor dicts per grid."""

    @pytest.mark.parametrize("m, p", SMALL_GRIDS + [(4, 4)])
    def test_every_cell_family_matches_fresh_dicts(self, m, p):
        families = [d.family for d in match_families(m, p)]
        assert MinorFamily(m, p, 0) in families  # the all-white diagram's
        for fam in families:
            assert fam.to_json_obj() == fresh_json(fam), (m, p, fam.mask)

    def test_grids_of_one_height_keep_their_own_tables(self):
        # interleaved, so that a table found by m alone serves a wrong grid
        for m, p in ((3, 3), (3, 4), (3, 1), (3, 3), (1, 3), (4, 3), (3, 4)):
            full = MinorFamily(m, p, (1 << len(all_minor_ids(m, p))) - 1)
            assert full.to_json_obj() == fresh_json(full), (m, p)

    def test_each_call_returns_a_fresh_list(self):
        fam = MinorFamily(3, 4, 0b1011_0110)
        first, second = fam.to_json_obj(), fam.to_json_obj()
        assert first == second and first is not second
        first.clear()
        assert fam.to_json_obj() == second == fresh_json(fam)

    def test_no_command_mutates_the_shared_dicts(self, capsys, monkeypatch):
        grids = [(2, 3), (3, 3), (3, 4), (4, 4)]
        tables = {grid: _minor_json(*grid) for grid in grids}
        snapshot = copy.deepcopy(tables)
        diagram = '{"m": 3, "p": 3, "black": [[1, 1], [1, 3], [2, 1], [2, 2]]}'
        commands = [
            ["match", "3", "3"],
            ["match", "2", "3"],
            ["mc", "--diagram", diagram],
            ["mw", "3", "4", "--w", "3,1,4,2,7,6,5"],
            ["classify", "--matrix", "-", "--find-perm"],
            ["verify", "match", "3", "3"],
        ]
        for argv in commands:
            for fmt in ("json", "table"):
                monkeypatch.setattr(sys, "stdin", io.StringIO(NBAR_CSV))
                assert cli.main([*argv, "--format", fmt]) == 0, argv
                assert capsys.readouterr().out
        for grid in grids:
            assert _minor_json(*grid) is tables[grid], grid
        assert tables == snapshot
