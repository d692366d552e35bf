"""Cell-level API: nonnegativity verdicts, generic matrices, classification."""

import random
from fractions import Fraction
from types import SimpleNamespace

import pytest

from tnncells import cells, restoration
from tnncells import (
    CauchonDiagram,
    MinorFamily,
    MinorId,
    NotTotallyNonnegativeError,
    RestrictedPermutation,
    SelfCheckError,
    VarRegistry,
    classify,
    enumerate_diagrams,
    family_of_diagram,
    family_of_perm,
    is_tnn,
    match_families,
    perm_of_diagram,
    random_cauchon_matrix,
    restore,
    symbolic_cauchon_matrix,
    vanishing_family,
    w_max,
)
from tnncells.linalg import as_matrix, det_exact, submatrix
from tnncells.minors import _sign_masks

from conftest import SMALL_GRIDS, path_family, path_sums

NBAR = ((11, 7, 4, 1), (7, 5, 3, 1), (4, 3, 2, 1), (1, 1, 1, 1))

NBAR_FAMILY = {
    "[1,2,3|2,3,4]",
    "[1,2,4|2,3,4]",
    "[1,3,4|2,3,4]",
    "[2,3,4|1,2,3]",
    "[2,3,4|1,2,4]",
    "[2,3,4|1,3,4]",
    "[2,3,4|2,3,4]",
    "[1,2,3,4|1,2,3,4]",
}

FIG_DIAGRAM = CauchonDiagram.from_black(3, 3, ((1, 1), (1, 3), (2, 1), (2, 2)))

FIG_FAMILY = {
    "[1|3]",
    "[1,2|1,2]",
    "[1,3|1,2]",
    "[2,3|1,2]",
    "[2,3|1,3]",
    "[2,3|2,3]",
    "[1,2,3|1,2,3]",
}


def texts(family):
    return {str(mid) for mid in family}


class TestIsTnn:
    def test_accepts(self):
        verdict = is_tnn(NBAR)
        assert verdict.is_tnn and verdict.witness is None

    def test_witness_is_first_in_canonical_order(self):
        verdict = is_tnn(((0, 1), (1, 0)))
        assert not verdict.is_tnn
        assert verdict.witness == MinorId((1, 2), (1, 2))
        assert verdict.witness_value == -1

    def test_entry_witness(self):
        verdict = is_tnn(((1, -3), (0, 1)))
        assert verdict.witness == MinorId((1,), (2,))
        assert verdict.witness_value == -3

    def test_witness_value_is_exact_under_row_scaling(self):
        # rows scale by 6 and 35 to integers; the scaled [12|12] is -1
        X = ((Fraction(1, 3), Fraction(1, 2), 1), (Fraction(1, 7), Fraction(1, 5), 1))
        verdict = is_tnn(X)
        assert verdict.witness == MinorId((1, 2), (1, 2))
        sub = submatrix(as_matrix(X), [0, 1], [0, 1])
        assert verdict.witness_value == det_exact(sub) == Fraction(-1, 210)

    def test_first_negative_entry_in_canonical_order(self):
        # [1|2] and [2|1] are both -1; canonical order puts [1|2] first
        verdict = is_tnn(((1, -1), (-1, 1)))
        assert verdict.witness.text() == "[1|2]"
        assert verdict.witness_value == -1


class TestSymbolicMatrix:
    def test_black_cells_are_zero(self):
        C = FIG_DIAGRAM
        reg, M = symbolic_cauchon_matrix(C)
        for i in range(1, 4):
            for a in range(1, 4):
                entry = M[i - 1][a - 1]
                assert entry.is_zero == ((i, a) in C.black_cells())
                assert entry == (reg.zero() if entry.is_zero else reg.var(i, a))
        assert len(reg) == 9

    def test_all_white_uses_every_variable(self):
        reg, M = symbolic_cauchon_matrix(CauchonDiagram.from_black(2, 3, ()))
        assert [str(x) for x in M[0]] == [
            "1 * t[1,1]^1",
            "1 * t[1,2]^1",
            "1 * t[1,3]^1",
        ]

    @pytest.mark.parametrize("m,p", [(2, 3), (3, 2), (3, 3)])
    def test_black_cell_variables_never_appear(self, m, p):
        # every diagram shares the grid's registry, and a black cell's
        # variable has exponent 0 in every entry at every label, so the
        # step brackets over the full grid are those of the white cells
        for C in enumerate_diagrams(m, p):
            reg, M = symbolic_cauchon_matrix(C)
            assert reg == VarRegistry.grid(m, p)
            black = [reg.index(i, a) for i, a in C.black_cells()]
            for Y in restore(M).matrices:
                for x in (x for row in Y for x in row):
                    assert all(e[k] == 0 for e in x.terms for k in black), (C, x)


class TestCauchonGraph:
    """Restoring the generic matrix sums the paths of the Cauchon graph:
    each restored entry (i, a), term for term, is the weight sum of the
    paths from row i to column a."""

    @pytest.mark.parametrize("m,p", SMALL_GRIDS)
    def test_path_sums_equal_the_restored_generic_matrix(self, m, p):
        for C in enumerate_diagrams(m, p):
            X = restore(symbolic_cauchon_matrix(C)[1]).final
            for (i, a), weights in path_sums(C).items():
                assert X[i - 1][a - 1].terms == weights, (C, (i, a))


# Every grid with at most 9 cells, plus (2,5), (3,4) and (4,3).
POSITIVE_POINT_GRIDS = [
    (m, p) for m in range(1, 10) for p in range(1, 10) if m * p <= 9
] + [(2, 5), (3, 4), (4, 3)]


class TestPositivePoint:
    """`family_of_diagram` reads the 0/1 matrix; the symbolic family, the
    minors vanishing identically on the restored generic matrix, is the
    oracle.  By Lindstrom-Gessel-Viennot a restored generic minor [I|L] is
    a sum, with positive coefficients, over the vertex-disjoint path
    systems of the Cauchon graph from rows I to columns L (checked against
    sympy in test_sympy_oracle.py), so the symbolic family is the set of
    minors with no such system."""

    @pytest.mark.parametrize("m,p", POSITIVE_POINT_GRIDS)
    def test_equals_the_symbolic_family(self, m, p):
        for C in enumerate_diagrams(m, p):
            assert family_of_diagram(C) == path_family(C), C


class TestIntegerRoute:
    """`family_of_diagram` restores the 0/1 matrix in plain ints, where the
    int pivots take floor division; the Fraction route of `restore` is the
    oracle."""

    @pytest.mark.parametrize("m,p", POSITIVE_POINT_GRIDS)
    def test_int_route_equals_the_fraction_route(self, m, p, monkeypatch):
        traces = []

        def spy(X, direction):
            traces.append(restoration._run(X, direction))
            return traces[-1]

        monkeypatch.setattr(cells, "_run", spy)
        for C in enumerate_diagrams(m, p):
            family_of_diagram.__wrapped__(C)
            (trace,) = traces
            traces.clear()
            assert trace.initial == tuple(
                tuple(0 if (i, a) in C.black_cells() else 1 for a in range(1, p + 1))
                for i in range(1, m + 1)
            )
            assert trace.final == restore(trace.initial).final, C
            for mat in trace.matrices:
                assert all(type(x) is int and x >= 0 for row in mat for x in row), C
            for (j, b), mat in zip(trace.labels[:-1], trace.matrices):
                assert mat[j - 1][b - 1] in (0, 1), (C, (j, b))

    def test_restore_still_coerces_ints_to_fractions(self):
        M = ((1, 1, 0), (1, 1, 1))
        for mat in restore(M).matrices:
            assert all(type(x) is Fraction for row in mat for x in row)


class TestFamilyOfDiagram:
    def test_all_white_has_empty_family(self):
        C = CauchonDiagram.from_black(2, 2, ())
        assert len(family_of_diagram(C)) == 0

    def test_all_black_kills_everything(self):
        cells = [(i, a) for i in (1, 2) for a in (1, 2)]
        C = CauchonDiagram.from_black(2, 2, cells)
        assert len(family_of_diagram(C)) == 5

    def test_worked_three_by_three(self):
        assert texts(family_of_diagram(FIG_DIAGRAM)) == FIG_FAMILY

    def test_matches_perm_family(self):
        w = RestrictedPermutation(3, 3, (1, 4, 3, 2, 6, 5))
        assert family_of_perm(w) == family_of_diagram(FIG_DIAGRAM)

    def test_four_by_four_worked_cell(self):
        C = CauchonDiagram.from_black(4, 4, ((1, 2), (2, 1), (2, 2)))
        fam = family_of_diagram(C)
        assert texts(fam) == NBAR_FAMILY
        assert fam == vanishing_family(NBAR)


def randint_cauchon_matrix(C: CauchonDiagram, seed: int):
    """`random_cauchon_matrix` drawn cell by cell with `randint`, and the
    generator after it."""
    rng = random.Random(seed)
    X = tuple(
        tuple(
            Fraction(0) if (i, a) in C.black_cells()
            else Fraction(rng.randint(1, 2**32), rng.randint(1, 2**32))
            for a in range(1, C.p + 1)
        )
        for i in range(1, C.m + 1)
    )
    return X, rng


# all-white and mixed diagrams of (1,1), (2,3), (3,4) and (4,4)
RANDOM_MATRIX_DIAGRAMS = [
    (1, 1, []),
    (1, 1, [(1, 1)]),
    (2, 3, []),
    (2, 3, [(1, 2), (2, 1), (2, 2)]),
    (3, 4, []),
    (3, 4, [(1, 2), (2, 1), (2, 2), (3, 1)]),
    (4, 4, []),
    (4, 4, [(1, 2), (2, 1), (2, 2), (4, 1), (4, 2), (4, 3)]),
]


class TestRandomCauchonMatrix:
    def test_zero_pattern_and_positivity(self):
        X = random_cauchon_matrix(FIG_DIAGRAM, 7)
        for i in range(1, 4):
            for a in range(1, 4):
                if (i, a) in FIG_DIAGRAM.black_cells():
                    assert X[i - 1][a - 1] == 0
                else:
                    assert X[i - 1][a - 1] > 0

    def test_seed_determinism(self):
        assert random_cauchon_matrix(FIG_DIAGRAM, 3) == random_cauchon_matrix(
            FIG_DIAGRAM, 3
        )
        assert random_cauchon_matrix(FIG_DIAGRAM, 3) != random_cauchon_matrix(
            FIG_DIAGRAM, 4
        )

    @pytest.mark.parametrize("m,p,black", RANDOM_MATRIX_DIAGRAMS)
    def test_draws_are_randint_s(self, monkeypatch, m, p, black):
        # the stream of `randint(1, 2**32)`: equal matrices, equal state after
        made = []

        class Recording(random.Random):
            def __init__(self, seed):
                super().__init__(seed)
                made.append(self)

        monkeypatch.setattr(cells, "random", SimpleNamespace(Random=Recording))
        C = CauchonDiagram.from_black(m, p, black)
        for seed in range(50):
            X = random_cauchon_matrix(C, seed)
            expected, rng = randint_cauchon_matrix(C, seed)
            assert X == expected and made.pop().getstate() == rng.getstate(), seed

    def test_restores_into_matching_cell(self):
        for seed in range(4):
            X = random_cauchon_matrix(FIG_DIAGRAM, seed)
            fam = vanishing_family(restore(X).final)
            assert fam == family_of_diagram(FIG_DIAGRAM)


class TestClassify:
    def test_worked_four_by_four(self):
        desc = classify(NBAR)
        assert set(desc.diagram.black_cells()) == {(1, 2), (2, 1), (2, 2)}
        assert texts(desc.family) == NBAR_FAMILY
        assert desc.matched_perm is None

    def test_identity_matrix(self):
        desc = classify(((1, 0), (0, 1)))
        assert set(desc.diagram.black_cells()) == {(1, 2), (2, 1)}
        assert texts(desc.family) == {"[1|2]", "[2|1]"}

    def test_find_perm(self):
        desc = classify(NBAR, find_perm=True)
        assert desc.matched_perm is not None
        assert family_of_perm(desc.matched_perm) == desc.family

    def test_rejects_negative_input(self):
        with pytest.raises(NotTotallyNonnegativeError) as exc:
            classify(((0, 1), (1, 0)))
        assert exc.value.witness == MinorId((1, 2), (1, 2))
        assert exc.value.value == -1

    def test_one_sign_read_of_the_input(self, monkeypatch):
        # the negative mask and the zero mask both come from one call
        calls = []

        def spy(M):
            calls.append(M)
            return _sign_masks(M)

        monkeypatch.setattr(cells, "_sign_masks", spy)
        desc = classify(NBAR, find_perm=True)
        assert calls == [as_matrix(NBAR)]
        assert desc.family == vanishing_family(NBAR)
        with pytest.raises(NotTotallyNonnegativeError):
            classify(((0, 1), (1, 0)))
        assert len(calls) == 2

    def test_scaling_keeps_the_cell(self):
        scaled = tuple(tuple(Fraction(3, 7) * x for x in row) for row in NBAR)
        assert classify(scaled).family == classify(NBAR).family

    def test_non_diagram_pattern_raises(self, monkeypatch):
        def refuse(X):
            raise ValueError("planted")

        monkeypatch.setattr(cells, "diagram_of_matrix", refuse)
        with pytest.raises(SelfCheckError) as exc:
            classify(NBAR)
        assert str(exc.value) == "inverse algorithm produced a non-diagram zero pattern: planted"

    def test_family_disagreement_raises(self, monkeypatch):
        monkeypatch.setattr(cells, "family_of_diagram", empty_family)
        with pytest.raises(SelfCheckError) as exc:
            classify(NBAR)
        assert str(exc.value) == (
            "vanishing family disagrees with the diagram family: matrix has "
            "{[1,2,3|2,3,4], [1,2,4|2,3,4], [1,3,4|2,3,4], [2,3,4|1,2,3], "
            "[2,3,4|1,2,4], [2,3,4|1,3,4], [2,3,4|2,3,4], [1,2,3,4|1,2,3,4]}, "
            "diagram gives {}"
        )


class TestMatchFamilies:
    def test_two_by_two_catalogue(self):
        descs = match_families(2, 2)
        assert len(descs) == 14
        fams = [frozenset(d.family) for d in descs]
        assert len(set(fams)) == 14  # pairwise distinct
        for d in descs:
            assert d.matched_perm is not None
            assert family_of_perm(d.matched_perm) == d.family
            assert family_of_diagram(d.diagram) == d.family

    def test_every_diagram_appears_once(self):
        descs = match_families(2, 2)
        seen = {d.diagram for d in descs}
        assert seen == set(enumerate_diagrams(2, 2))

    def test_json_names_the_matched_pair(self):
        for d in match_families(2, 2):
            assert d.to_json_obj() == {
                "perm": d.matched_perm.to_json_obj(),
                "diagram": d.diagram.to_json_obj(),
                "family": d.family.to_json_obj(),
                "family_size": len(d.family),
            }
        assert classify(NBAR).to_json_obj()["perm"] is None

    def test_shared_permutation_family_raises(self, monkeypatch):
        monkeypatch.setattr(cells, "family_of_perm", empty_family)
        with pytest.raises(SelfCheckError) as exc:
            match_families(2, 2)
        assert str(exc.value) == "permutations (1, 2, 3, 4) and (1, 2, 4, 3) share one family"

    def test_shared_diagram_family_raises(self, monkeypatch):
        monkeypatch.setattr(cells, "family_of_diagram", empty_family)
        with pytest.raises(SelfCheckError) as exc:
            match_families(2, 2)
        first, second = list(enumerate_diagrams(2, 2))[:2]
        assert str(exc.value) == f"diagrams {first} and {second} share one family"

    def test_diagram_without_permutation_raises(self, monkeypatch):
        monkeypatch.setattr(cells, "enumerate_restricted_perms", lambda m, p: iter(()))
        with pytest.raises(SelfCheckError) as exc:
            match_families(2, 2)
        assert str(exc.value) == "diagram family {} has no matching permutation"

    def test_permutation_without_diagram_raises(self, monkeypatch):
        monkeypatch.setattr(cells, "enumerate_diagrams", lambda m, p: iter(()))
        with pytest.raises(SelfCheckError) as exc:
            match_families(2, 2)
        assert str(exc.value) == "permutation family {} has no matching diagram"


def empty_family(x):
    """A stand-in family map: the empty family of x's grid."""
    return MinorFamily(x.m, x.p, 0)


# Every grid with at most 9 cells, plus (3,4): the pipe-dream permutation
# must be the one match_families finds by comparing both families.
PIPE_DREAM_GRIDS = [
    (m, p) for m in range(1, 10) for p in range(1, 10) if m * p <= 9
] + [(3, 4)]


class TestPermOfDiagram:
    @pytest.mark.parametrize("m,p", PIPE_DREAM_GRIDS)
    def test_equals_match_families(self, m, p):
        descs = match_families(m, p)
        perms = [perm_of_diagram(d.diagram) for d in descs]
        assert perms == [d.matched_perm for d in descs]
        assert len(set(perms)) == len(perms)  # injective

    def test_worked_pipe_dreams(self):
        m, p = 3, 4
        all_white = CauchonDiagram.from_black(m, p, ())
        all_black = CauchonDiagram.from_black(
            m, p, [(i, a) for i in range(1, m + 1) for a in range(1, p + 1)]
        )
        # every pipe turns at its first cell: the identity, with no minor vanishing
        assert perm_of_diagram(all_white).w == tuple(range(1, m + p + 1))
        assert len(family_of_diagram(all_white)) == 0
        # every pipe runs straight through: w_max, the zero matrix's cell
        assert perm_of_diagram(all_black) == w_max(m, p)

    def test_classify_returns_the_matched_perm(self):
        for d in match_families(2, 3):
            X = restore(random_cauchon_matrix(d.diagram, seed=d.diagram.mask)).final
            assert classify(X, find_perm=True).matched_perm == d.matched_perm

    def test_mismatch_raises(self, monkeypatch):
        other = CauchonDiagram.from_black(3, 3, ())
        assert family_of_diagram(other) != family_of_diagram(FIG_DIAGRAM)
        monkeypatch.setattr(cells, "perm_of_diagram", lambda C: perm_of_diagram(other))
        X = restore(random_cauchon_matrix(FIG_DIAGRAM, seed=1)).final
        assert classify(X).diagram == FIG_DIAGRAM
        with pytest.raises(SelfCheckError, match="does not carry"):
            classify(X, find_perm=True)
