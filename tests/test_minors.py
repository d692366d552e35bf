import json
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
    minor,
    vanishing_family,
)

from conftest import rand_matrix


class TestMinorId:
    def test_text_and_parse(self):
        mid = minor((1, 2), (1, 3))
        assert mid.text() == "[1,2|1,3]"
        assert str(mid) == "[1,2|1,3]"
        assert minor((3,), (2,)).text() == "[3|2]"

    def test_sorts_inputs(self):
        assert minor((2, 1), (3, 1)) == minor((1, 2), (1, 3))

    def test_validation(self):
        with pytest.raises(ValueError):
            minor((1, 2), (1,))
        with pytest.raises(ValueError):
            minor((), ())
        with pytest.raises(ValueError):
            minor((1, 1), (1, 2))
        with pytest.raises(ValueError):
            minor((0, 1), (1, 2))

    def test_canonical_id_order(self):
        ids = all_minor_ids(2, 2)
        assert [x.text() for x in ids] == ["[1|1]", "[1|2]", "[2|1]", "[2|2]", "[1,2|1,2]"]

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
        fam = MinorFamily.of(2, 2, [minor((1, 2), (1, 2)), minor((2,), (1,))])
        obj = fam.to_json_obj()
        assert obj == [
            {"rows": [2], "cols": [1]},
            {"rows": [1, 2], "cols": [1, 2]},
        ]
        assert MinorFamily.from_json_obj(2, 2, json.loads(json.dumps(obj))) == fam

    def test_membership_iteration(self):
        fam = MinorFamily.of(2, 2, [minor((1,), (2,)), minor((2,), (1,))])
        assert minor((1,), (2,)) in fam
        assert minor((1,), (1,)) not in fam
        assert len(fam) == 2
        assert [x.text() for x in fam] == ["[1|2]", "[2|1]"]

    def test_out_of_grid_rejected(self):
        with pytest.raises(ValueError):
            MinorFamily.of(2, 2, [minor((3,), (1,))])

    def test_subset(self):
        small = MinorFamily.of(2, 2, [minor((1,), (2,))])
        big = MinorFamily.of(2, 2, [minor((1,), (2,)), minor((2,), (1,))])
        assert small.members <= big.members
        assert not big.members <= small.members
        assert not small.mask & ~big.mask
        assert big.mask & ~small.mask

    def test_mask_validation(self):
        MinorFamily(2, 2, (1 << 5) - 1)  # all five minors of the 2x2 grid
        with pytest.raises(ValueError, match="nonnegative"):
            MinorFamily(2, 2, -1)
        with pytest.raises(ValueError, match="past the last minor of the 2x2 grid"):
            MinorFamily(2, 2, 1 << 5)
        for m, p in ((0, 2), (2, 0), (-1, 1)):
            with pytest.raises(ValueError, match="positive"):
                MinorFamily(m, p, 0)

    def test_of_names_a_malformed_minor(self):
        for bad in (MinorId((1, 2), (1,)), MinorId((), ()), MinorId((2, 1), (1, 2))):
            with pytest.raises(ValueError, match="malformed minor"):
                MinorFamily.of(3, 3, [bad])

    def test_of_names_a_minor_outside_the_grid(self):
        with pytest.raises(ValueError, match=r"minor \[3\|1\] outside the 2x2 grid"):
            MinorFamily.of(2, 2, [minor((3,), (1,))])
        with pytest.raises(ValueError, match="outside the 1x3 grid"):
            MinorFamily.of(1, 3, [minor((1, 2), (1, 2))])


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
        assert MinorFamily.of(m, p, ids).members == frozenset(ids)

    @given(grid_and_ids())
    def test_iteration_is_by_size_rows_then_columns(self, case):
        m, p, ids = case
        expected = sorted(set(ids), key=lambda mid: (len(mid.rows), mid.rows, mid.cols))
        assert list(MinorFamily.of(m, p, ids)) == expected

    @given(grid_and_ids())
    def test_len_and_membership(self, case):
        m, p, ids = case
        fam = MinorFamily.of(m, p, ids)
        assert len(fam) == len(set(ids))
        for mid in all_minor_ids(m, p):
            assert (mid in fam) == (mid in ids)
        assert minor((m + 1,), (1,)) not in fam

    @given(grid_and_ids())
    def test_json_round_trip(self, case):
        m, p, ids = case
        fam = MinorFamily.of(m, p, ids)
        obj = json.loads(json.dumps(fam.to_json_obj()))
        assert MinorFamily.from_json_obj(m, p, obj) == fam
        assert [minor(item["rows"], item["cols"]) for item in obj] == list(fam)


class TestEvaluation:
    def test_eval_golden(self):
        M = as_matrix([[1, 2], [3, 4]])
        assert eval_minor(M, minor((1,), (2,))) == 2
        assert eval_minor(M, minor((1, 2), (1, 2))) == -2

    def test_eval_bounds_check(self):
        M = as_matrix([[1, 2], [3, 4]])
        with pytest.raises(ValueError):
            eval_minor(M, minor((3,), (1,)))

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
        assert set(fam.members) == expected
