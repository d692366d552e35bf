"""Smoke and failure-path coverage for the cross-verification suites."""

import json
import random

from tnncells import restoration, verify
from tnncells.verify import (
    SuiteReport,
    _count_perms_by_filter,
    _count_perms_by_permanent,
    bruhat_cell_suite,
    _corpus,
    bruhat_monotone_suite,
    counting_suite,
    deletion_suite,
    match_suite,
    poisson_suite,
    tnn_roundtrip_suite,
)


class TestPlumbing:
    def test_report_serializes(self):
        rep = SuiteReport("demo", True, "fine", {"k": [1, 2]})
        assert json.loads(json.dumps(rep.to_json_obj()))["details"] == {"k": [1, 2]}


class TestCountingOracles:
    def test_independent_counts_agree(self):
        assert _count_perms_by_filter(2, 2) == 14
        assert _count_perms_by_permanent(2, 2) == 14
        assert _count_perms_by_permanent(2, 3) == 46

    def test_suite_passes(self):
        rep = counting_suite(((1, 1), (2, 2)))
        assert rep.ok and rep.suite == "counting"
        assert [row["diagrams"] for row in rep.details["sizes"]] == [2, 14]


class TestSuiteSmoke:
    def test_match(self):
        rep = match_suite(2, 2)
        assert rep.ok and len(rep.details["pairs"]) == 14

    def test_bruhat_monotone_exhaustive(self):
        assert bruhat_monotone_suite(2, 2).ok

    def test_bruhat_monotone_sampled(self):
        rep = bruhat_monotone_suite(2, 3, sample=50, seed=1)
        assert rep.ok and "sampled" in rep.summary

    def test_tnn_roundtrip(self):
        rep = tnn_roundtrip_suite(2, 3, n=8, seed=1)
        assert rep.ok and rep.details["failures"] == []

    def test_deletion(self):
        assert deletion_suite(2, 3, n=8, seed=1).ok

    def test_poisson(self):
        rep = poisson_suite(2, 2, triples=10, seed=1)
        assert rep.ok and rep.details["jacobi_ok"]

    def test_bruhat_cell(self):
        rep = bruhat_cell_suite(1, 2, samples=5, seed=1)
        assert rep.ok and rep.details["mismatches"] == []

    def test_deletion_fails_on_a_wrong_inverse_trace(self, monkeypatch):
        # the inverse trace of a perturbed matrix ends elsewhere, so the
        # one trace comparison the suite makes must catch it on every matrix
        def wrong(M):
            (a, *row), *rest = M
            return restoration.delete_derivations(((a + 1, *row), *rest))

        monkeypatch.setattr(verify, "delete_derivations", wrong)
        rep = deletion_suite(2, 3, n=8, seed=1)
        assert not rep.ok and len(rep.details["failures"]) == 8
        assert all("inverse trace" in msg for msg in rep.details["failures"])

    def test_deletion_checks_each_matrix_object_once(self, monkeypatch):
        # a zero pivot returns X itself; every distinct object of each
        # inverse trace is checked, and none twice
        checked = []

        def spy(M):
            checked.append(M)
            return restoration.is_cauchon_matrix(M)

        monkeypatch.setattr(verify, "is_cauchon_matrix", spy)
        assert deletion_suite(3, 3, n=20, seed=1).ok
        expected = [
            mat
            for _, X in _corpus(3, 3, 20, 1)
            for mat in {
                id(mat): mat
                for mat in restoration.delete_derivations(restoration.restore(X).final).matrices
            }.values()
        ]
        assert checked == expected
        assert len(checked) < 20 * 9

    def test_same_seed_same_report(self):
        a = deletion_suite(2, 2, n=6, seed=9)
        b = deletion_suite(2, 2, n=6, seed=9)
        assert a.to_json_obj() == b.to_json_obj()
