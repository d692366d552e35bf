"""Acceptance gate: ten end-to-end checks, one test (= one report line) each.

Every comparison is exact; every check also carries a wall-clock budget so
a regression in the kernels or the enumerators fails loudly here.
"""

from fractions import Fraction
from time import perf_counter

from tnncells import (
    CauchonDiagram,
    RestrictedPermutation,
    all_minor_ids,
    eval_minor,
    family_of_diagram,
    family_of_perm,
    match_families,
    minor,
    restore,
)
from tnncells.verify import (
    bruhat_cell_suite,
    bruhat_monotone_suite,
    counting_suite,
    deletion_suite,
    poisson_suite,
    tnn_roundtrip_suite,
)

from conftest import stripe_column_sets, stripe_row_sets


def timed(budget_s, fn, *args, **kwargs):
    t0 = perf_counter()
    out = fn(*args, **kwargs)
    took = perf_counter() - t0
    assert took < budget_s, f"took {took:.1f}s, budget {budget_s}s"
    return out


def test_criterion_01_restoration_golden_trace():
    def check():
        tr = restore(((1, 0, 1, 1), (0, 0, 1, 1), (1, 1, 1, 1), (1, 1, 1, 1)))
        states = {
            (3, 3): ((1, 0, 2, 1), (0, 0, 1, 1), (1, 1, 1, 1), (1, 1, 1, 1)),
            (3, 4): ((3, 2, 2, 1), (1, 1, 1, 1), (1, 1, 1, 1), (1, 1, 1, 1)),
            (4, 2): ((4, 3, 3, 1), (2, 2, 2, 1), (1, 1, 1, 1), (1, 1, 1, 1)),
            (4, 3): ((7, 3, 3, 1), (4, 2, 2, 1), (2, 1, 1, 1), (1, 1, 1, 1)),
            (4, 4): ((10, 6, 3, 1), (6, 4, 2, 1), (3, 2, 1, 1), (1, 1, 1, 1)),
            (4, 5): ((11, 7, 4, 1), (7, 5, 3, 1), (4, 3, 2, 1), (1, 1, 1, 1)),
        }
        for label, want in states.items():
            got = tr[label]
            assert got == want, f"state before step {label} is off"
        assert eval_minor(tr[(4, 4)], minor([1, 3, 4], [1, 3, 4])) == -4

    timed(1, check)


def test_criterion_02_perm_family_worked_examples():
    def check():
        w34 = RestrictedPermutation(3, 4, (3, 1, 4, 2, 7, 6, 5))
        assert {x.text() for x in family_of_perm(w34)} == {
            "[2|1]", "[3|1]", "[1|3]", "[1|4]", "[2|4]",
            "[1,2|1,4]", "[1,2|2,4]", "[1,2|3,4]", "[1,3|3,4]",
            "[2,3|1,2]", "[2,3|1,3]", "[2,3|2,3]", "[2,3|1,4]",
            "[1,2,3|1,2,3]",
        }
        w44 = RestrictedPermutation(4, 4, (1, 3, 6, 4, 5, 2, 7, 8))
        cols = stripe_column_sets(w44)
        rows = stripe_row_sets(w44)
        assert cols == {(2, 3), (2, 3, 4), (1, 2, 3), (1, 2, 3, 4)}
        assert rows == {
            (3,), (1, 3), (2, 3), (3, 4),
            (1, 2, 3), (1, 3, 4), (2, 3, 4), (1, 2, 3, 4),
        }
        union = {
            mid for mid in all_minor_ids(4, 4) if mid.cols in cols or mid.rows in rows
        }
        assert set(family_of_perm(w44).members) == union

    timed(1, check)


def test_criterion_03_diagram_family_end_to_end():
    def check():
        C = CauchonDiagram.from_black(3, 3, ((1, 1), (1, 3), (2, 1), (2, 2)))
        fam = family_of_diagram(C)
        assert {x.text() for x in fam} == {
            "[1|3]", "[1,2|1,2]", "[1,3|1,2]", "[2,3|1,2]",
            "[2,3|1,3]", "[2,3|2,3]", "[1,2,3|1,2,3]",
        }
        w = RestrictedPermutation(3, 3, (1, 4, 3, 2, 6, 5))
        assert family_of_perm(w).members == fam.members

    timed(1, check)


def test_criterion_04_counting_identities():
    report = timed(5, counting_suite)  # (1,1), (2,2), (2,3), (3,3)
    counts = [row["diagrams"] for row in report.details["sizes"]]
    assert report.ok, report.summary
    assert counts == [2, 14, 46, 230]


def test_criterion_05_family_bijection_at_desk_scale():
    for m, p, budget in ((2, 2, 10), (2, 3, 20), (3, 3, 120)):
        descs = timed(budget, match_families, m, p)
        fams = [frozenset(d.family.members) for d in descs]
        assert len(set(fams)) == len(descs)  # pairwise distinct
        assert all(d.matched_perm is not None for d in descs)
        perms = {d.matched_perm for d in descs}
        diagrams = {d.diagram for d in descs}
        assert len(perms) == len(diagrams) == len(descs)  # a bijection
        for d in descs:
            assert family_of_perm(d.matched_perm).members == d.family.members


def test_criterion_06_containment_matches_bruhat_order():
    def check():
        assert bruhat_monotone_suite(2, 2).ok          # all 196 pairs
        assert bruhat_monotone_suite(2, 3).ok          # all 2116 pairs
        assert bruhat_monotone_suite(3, 3, 500, 0).ok  # 500 sampled pairs

    timed(60, check)


def test_criterion_07_random_cells_restore_to_tnn():
    def check():
        for m, p in ((2, 2), (3, 3), (4, 4), (3, 4)):
            report = tnn_roundtrip_suite(m, p, n=100, seed=0)
            assert report.ok, report.summary

    timed(120, check)


def test_criterion_08_deletion_inverts_on_the_same_corpus():
    def check():
        for m, p in ((2, 2), (3, 3), (4, 4), (3, 4)):
            report = deletion_suite(m, p, n=100, seed=0)
            assert report.ok, report.summary

    timed(120, check)


def test_criterion_09_step_brackets_and_bracket_axioms():
    def check():
        for m, p in ((2, 2), (2, 3)):
            report = poisson_suite(m, p, triples=1000, seed=0)
            assert report.ok, report.summary

    timed(180, check)


def test_criterion_10_partial_permutation_vanishing():
    def check():
        for m, p in ((2, 2), (2, 3)):
            report = bruhat_cell_suite(m, p, samples=20, seed=0)
            assert report.ok, report.summary

    timed(60, check)
