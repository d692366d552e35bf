"""Smoke and failure-path coverage for the cross-verification suites."""

import json
import random

import pytest

from tnncells import LaurentPoly, VarRegistry, cells, linalg, restoration, verify
from tnncells.minors import MinorFamily, MinorId, _minor_count, _sign_masks
from tnncells.poisson import PairCheck, StepBracketReport
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
    random_laurent,
    tnn_roundtrip_suite,
)

from conftest import descending_row_pool


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


def reference_random_laurent(registry, rng):
    """The sampler's draws spelled with `randint`: the stream that
    `random_laurent` must reproduce."""
    terms = {}
    for _ in range(rng.randint(1, 3)):
        e = tuple(rng.randint(-2, 2) for _ in range(len(registry)))
        terms[e] = terms.get(e, 0) + rng.randint(-9, 9)
    return LaurentPoly(registry, terms)


class TestRandomLaurent:
    @pytest.mark.parametrize("m, p", [(1, 1), (2, 3), (3, 3)])
    def test_draws_the_randint_stream(self, m, p):
        registry = VarRegistry.grid(m, p)
        for seed in range(50):
            rng, ref = random.Random(seed), random.Random(seed)
            for _ in range(30):
                f, want = random_laurent(registry, rng), reference_random_laurent(registry, ref)
                assert f.registry is registry and f.terms == want.terms
                assert all(type(c) is int and c for c in f.terms.values())
            assert rng.getstate() == ref.getstate()

    def test_merged_and_cancelled_terms(self):
        # on the 1x1 grid exponents repeat often: sizes 0 to 3 all occur
        registry = VarRegistry.grid(1, 1)
        rng = random.Random(1)
        sizes = {len(random_laurent(registry, rng).terms) for _ in range(300)}
        assert sizes == {0, 1, 2, 3}


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


def negated_minors(M):
    """The sign masks of -1 times every minor: the nonzero minors that are
    positive become the negative ones."""
    zeros, negatives = _sign_masks(M)
    every = (1 << _minor_count(*linalg.dims(M))) - 1
    return zeros, every & ~zeros & ~negatives


def every_minor(C):
    return MinorFamily(C.m, C.p, (1 << _minor_count(C.m, C.p)) - 1)


def negated_restore(X):
    # restoration is homogeneous of degree 1, so the trace of -X is the
    # negated trace and still inverts; only the sign check can fail
    return restoration.restore(tuple(tuple(-x for x in row) for row in X))


class TestFailureRows:
    """One planted fault per failure path: the suite fails, counts the
    fault in its summary and reports it as its first detail row."""

    @pytest.mark.parametrize(
        "suite,name,fault,message",
        [
            (tnn_roundtrip_suite, "_sign_masks", negated_minors,
             "negative minor [1|1] on the restored matrix of {C}"),
            (tnn_roundtrip_suite, "family_of_diagram", every_minor,
             "vanishing family of the restored matrix of {C} has 1 minors, the diagram family 5"),
            (deletion_suite, "restore", negated_restore,
             "negative entry at label (1, 2) for {C}"),
            (deletion_suite, "is_cauchon_matrix", lambda M: False,
             "non-Cauchon zero pattern at label (1, 2) for {C}"),
            (deletion_suite, "trace_h_invariance_counterexample",
             lambda td: ((2, 2), MinorId((1,), (1,))),
             "vanishing of [1|1] fails to propagate at (2, 2) for {C}"),
        ],
        ids=["negative-minor", "family-mismatch", "negative-entry", "non-cauchon", "h-invariance"],
    )
    def test_corpus_failure(self, monkeypatch, suite, name, fault, message):
        monkeypatch.setattr(verify, name, fault)
        rep = suite(2, 2, n=6, seed=1)
        assert not rep.ok and rep.summary.endswith("; 6 failures")
        first_diagram = _corpus(2, 2, 6, 1)[0][0]
        assert rep.details["failures"][0] == message.format(C=first_diagram)

    def test_poisson_bracket_failures(self, monkeypatch):
        def one_miss(C):
            return [StepBracketReport(C, (1, 2), (PairCheck((1, 1), (2, 2), False),))]

        monkeypatch.setattr(verify, "verify_all_step_brackets", one_miss)
        rep = poisson_suite(2, 2, triples=3, seed=1)
        assert not rep.ok and "; 14 bracket failures;" in rep.summary
        rows = rep.details["bracket_failures"]
        assert len(rows) == 10
        assert rows[0] == {
            "diagram": {"m": 2, "p": 2, "black": []},
            "step": [1, 2],
            "pair": [[1, 1], [2, 2]],
        }

    def test_poisson_leibniz_count(self, monkeypatch):
        monkeypatch.setattr(verify, "leibniz_holds", lambda f, g, h, table: False)
        rep = poisson_suite(2, 2, triples=3, seed=1)
        assert not rep.ok and "Jacobi ok and Leibniz FAILED on 3 random triples" in rep.summary
        assert rep.details["leibniz_failures"] == 3
        assert rep.details["bracket_failures"] == []

    def test_bruhat_monotone_violations(self, monkeypatch):
        monkeypatch.setattr(verify, "bruhat_leq", lambda w, z: True)
        rep = bruhat_monotone_suite(2, 2)
        assert not rep.ok and rep.summary == "(2,2): all 196 pairs; 127 violations"
        assert rep.details["violations"][0] == {
            "w": [1, 2, 4, 3],
            "z": [1, 2, 3, 4],
            "contained": False,
            "bruhat": True,
        }

    def test_bruhat_cell_unsorted_minus_pool(self, monkeypatch):
        # `_undominated` requires ascending pool keys; a minus pool in
        # descending row order gives wrong masks, which both the per-minor
        # comparison and the sweeps catch
        monkeypatch.setattr(verify, "_undominated", descending_row_pool)
        rep = bruhat_cell_suite(2, 2, samples=5, seed=1)
        assert not rep.ok
        assert rep.summary == (
            "(2,2): 7 partial permutations x 5 minors; 2 formulation mismatches, "
            "10 sampling contradictions (5 sweeps per sign, seed 1)"
        )
        row = {"pp": [(1, 1), (2, 2)], "sign": "minus", "minor": "[1,2|1,2]"}
        assert rep.details["mismatches"][0] == row
        assert rep.details["contradictions"][0] == row

    def test_match_disagreement(self, monkeypatch):
        monkeypatch.setattr(cells, "enumerate_diagrams", lambda m, p: iter(()))
        rep = match_suite(2, 2)
        assert not rep.ok and rep.details == {}
        assert rep.summary == (
            "family collections disagree: permutation family {} has no matching diagram"
        )
