"""Step engine: golden traces, inverseness, and the minor exchange laws."""

import random
from fractions import Fraction

import pytest
from conftest import SMALL_GRIDS, rand_matrix

from tnncells import (
    CauchonDiagram,
    InexactDivisionError,
    MinorId,
    all_minor_ids,
    all_minors_table,
    as_matrix,
    delete_derivations,
    diagram_of_matrix,
    enumerate_diagrams,
    eval_minor,
    is_cauchon_matrix,
    is_tnn,
    random_cauchon_matrix,
    random_diagram,
    restore,
    step_sequence,
    symbolic_cauchon_matrix,
    trace_h_invariance_counterexample,
)
from tnncells import restoration
from tnncells.combinat import _zero_mask
from tnncells.linalg import submatrix
from tnncells.minors import _sign_masks
from tnncells.restoration import MatrixTrace, _apply_step
from tnncells.verify import _corpus

N_START = (
    (1, 0, 1, 1),
    (0, 0, 1, 1),
    (1, 1, 1, 1),
    (1, 1, 1, 1),
)

# state expected immediately before each listed step
N_STATES = {
    (3, 3): ((1, 0, 2, 1), (0, 0, 1, 1), (1, 1, 1, 1), (1, 1, 1, 1)),
    (3, 4): ((3, 2, 2, 1), (1, 1, 1, 1), (1, 1, 1, 1), (1, 1, 1, 1)),
    (4, 2): ((4, 3, 3, 1), (2, 2, 2, 1), (1, 1, 1, 1), (1, 1, 1, 1)),
    (4, 3): ((7, 3, 3, 1), (4, 2, 2, 1), (2, 1, 1, 1), (1, 1, 1, 1)),
    (4, 4): ((10, 6, 3, 1), (6, 4, 2, 1), (3, 2, 1, 1), (1, 1, 1, 1)),
    (4, 5): ((11, 7, 4, 1), (7, 5, 3, 1), (4, 3, 2, 1), (1, 1, 1, 1)),
}


def step_successor(m, p, r):
    seq = step_sequence(m, p)
    k = seq.index(r)
    if k + 1 == len(seq):
        raise ValueError(f"{r} is the final label and has no successor")
    return seq[k + 1]


def as_ints(M):
    return tuple(tuple(int(x) for x in row) for row in M)


class TestStepSequence:
    def test_two_by_two(self):
        assert step_sequence(2, 2) == [(1, 2), (2, 1), (2, 2), (2, 3)]

    def test_three_by_four(self):
        seq = step_sequence(3, 4)
        assert len(seq) == 12
        assert seq[0] == (1, 2)
        assert seq[-2:] == [(3, 4), (3, 5)]
        assert (1, 1) not in seq

    def test_successor(self):
        assert step_successor(2, 2, (1, 2)) == (2, 1)
        assert step_successor(3, 4, (1, 4)) == (2, 1)
        with pytest.raises(ValueError):
            step_successor(2, 2, (2, 3))

    def test_bad_dims(self):
        with pytest.raises(ValueError):
            step_sequence(0, 3)


class TestGoldenTrace:
    def test_intermediate_states(self):
        tr = restore(N_START)
        for label, want in N_STATES.items():
            assert as_ints(tr[label]) == want

    def test_row_passes_are_lazy(self):
        # steps in column 1 and against zero pivots change nothing
        tr = restore(N_START)
        assert tr[(3, 1)] == tr[(3, 2)] == tr[(3, 3)]
        assert tr[(4, 1)] == tr[(4, 2)]

    def test_intermediate_minor_can_be_negative(self):
        tr = restore(N_START)
        assert eval_minor(tr[(4, 4)], MinorId((1, 3, 4), (1, 3, 4))) == -4

    def test_final_is_tnn_here(self):
        assert is_tnn(restore(N_START).final).is_tnn

    def test_zero_pivot_is_skipped(self):
        tr = restore(((0, 1), (2, 3)))
        assert tr.final == ((Fraction(2, 3), 1), (2, 3))

    def test_trace_mechanics(self):
        tr = restore(N_START)
        assert tr.initial == N_START
        assert list(tr.labels) == step_sequence(4, 4)
        assert dict(tr.items())[(4, 5)] == tr.final
        with pytest.raises(KeyError):
            tr[(1, 1)]

    def test_run_labels_are_the_step_sequence(self, monkeypatch):
        # the step kernel does not check its label: every label it is
        # given comes from `_run`, so `_run` must give only pivots of the
        # grid, in step order
        taken = []

        def spy(X, r, direction):
            taken.append(r)
            return _apply_step(X, r, direction)

        monkeypatch.setattr(restoration, "_apply_step", spy)
        for m in range(1, 7):
            for p in range(1, 7):
                cells = [(j, b) for j in range(1, m + 1) for b in range(1, p + 1)]
                labels = cells[1:] + [(m, p + 1)]
                assert step_sequence(m, p) == labels
                X = tuple((0,) * p for _ in range(m))
                for run, order in ((restore, labels[:-1]), (delete_derivations, labels[-2::-1])):
                    taken.clear()
                    assert list(run(X).labels) == labels
                    assert taken == order


class TestStepEntryPoints:
    """A full run validates its input once and must agree with stepping
    through the kernel."""

    def test_steps_reject_ragged_input(self):
        for run in (restore, delete_derivations):
            with pytest.raises(ValueError):
                run([[1, 2], [3]])
            with pytest.raises(ValueError):
                run(())

    @staticmethod
    def _stepped(X, forward):
        m, p = len(X), len(X[0])
        labels = step_sequence(m, p)[:-1]
        mats = [X]
        for r in labels if forward else reversed(labels):
            mats.append(_apply_step(mats[-1], r, +1 if forward else -1))
        return tuple(mats if forward else reversed(mats))

    def test_runs_equal_public_steps(self, rng):
        inputs = [N_START]
        for _ in range(10):
            m, p = rng.randint(1, 4), rng.randint(1, 4)
            X = [row[:] for row in rand_matrix(rng, m, p, span=9)]
            for _ in range(rng.randint(0, m * p // 2)):
                X[rng.randrange(m)][rng.randrange(p)] = 0
            inputs.append(X)
        for C in (CauchonDiagram.from_black(2, 3, ((1, 2),)), CauchonDiagram.from_black(3, 3, ())):
            inputs.append(symbolic_cauchon_matrix(C)[1])
        for X in inputs:
            tr = restore(X)
            assert tr.matrices == self._stepped(as_matrix(X), forward=True)
            assert delete_derivations(tr.final).matrices == self._stepped(tr.final, forward=False)
        # the 0/1 int points of `family_of_diagram`: the run stays in ints,
        # and a step that writes nothing hands on its input object
        for m, p in SMALL_GRIDS:
            for C in enumerate_diagrams(m, p):
                X = C.fill(lambda i, a: 1, 0)
                tr = restoration._run(X, +1)
                assert tr.matrices == self._stepped(X, forward=True), C
                for before, after in zip(tr.matrices, tr.matrices[1:]):
                    assert all(type(x) is int for row in after for x in row), C
                    assert after is before or after != before, C


def product_then_divide_step(X, r, direction):
    """The step as a product, a quotient and a sum on every entry
    above-left of the pivot, zeros included: the reference for the
    rational kernel of `_apply_step`."""
    j, b = r
    pivot = X[j - 1][b - 1]
    if not pivot:
        return X
    rows = list(X)
    for i in range(j - 1):
        row = list(X[i])
        for a in range(b - 1):
            correction = row[b - 1] * X[j - 1][a] / pivot
            row[a] = row[a] + correction if direction > 0 else row[a] - correction
        rows[i] = tuple(row)
    return tuple(rows)


def kept_objects(before, after):
    """Positions whose entry object survived the step."""
    return {
        (i, a)
        for i, (old, new) in enumerate(zip(before, after))
        for a, (x, y) in enumerate(zip(old, new))
        if x is y
    }


def zero_correction_positions(X, r):
    """Positions a step leaves alone: outside the block above-left of the
    pivot, or with a zero row multiplier or pivot-row factor."""
    j, b = r
    return {
        (i, a)
        for i in range(len(X))
        for a in range(len(X[0]))
        if i >= j - 1 or a >= b - 1 or not X[i][b - 1] or not X[j - 1][a]
        or not X[j - 1][b - 1]
    }


class TestStepKernel:
    """The rational kernel writes one normalised Fraction per changed
    entry and leaves every entry with a zero correction alone."""

    @staticmethod
    def check_step(X, r, direction):
        out = _apply_step(X, r, direction)
        assert out == product_then_divide_step(X, r, direction)
        assert all(type(x) is Fraction for row in out for x in row)
        assert kept_objects(X, out) == zero_correction_positions(X, r)
        if kept_objects(X, out) == {(i, a) for i in range(len(X)) for a in range(len(X[0]))}:
            assert out is X
        return out

    @pytest.mark.parametrize("m,p", [(3, 3), (4, 4)])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_equals_product_then_divide_on_corpus_traces(self, m, p, seed):
        for _, X in _corpus(m, p, 100, seed):
            tr = restore(X)
            td = delete_derivations(tr.final)
            for k, r in enumerate(tr.labels[:-1]):
                assert self.check_step(tr.matrices[k], r, +1) == tr.matrices[k + 1]
                assert self.check_step(td.matrices[k + 1], r, -1) == td.matrices[k]

    def test_equals_product_then_divide_with_negative_pivots(self, rng):
        negative = 0
        for _ in range(60):
            m, p = rng.randint(2, 4), rng.randint(2, 4)
            X = as_matrix(rand_matrix(rng, m, p, span=4))
            for direction in (+1, -1):
                M = X
                for r in step_sequence(m, p)[:-1]:
                    negative += M[r[0] - 1][r[1] - 1] < 0
                    M = self.check_step(M, r, direction)
        assert negative > 100

    def test_step_that_writes_nothing_returns_x(self):
        frac = as_matrix(((1, 0, 2), (3, 0, 4), (5, 6, 7)))
        ints = ((1, 0, 2), (3, 0, 4), (5, 6, 7))
        reg, _ = symbolic_cauchon_matrix(CauchonDiagram.from_black(3, 3, ()))
        t = [reg.gen(k) for k in range(9)]
        laurent = as_matrix(((t[0], 0, t[2]), (t[3], 0, t[5]), (t[6], t[7], t[8])))
        for X in (frac, ints, laurent):
            for direction in (+1, -1):
                # every multiplier above the pivot (3,2) is zero
                assert _apply_step(X, (3, 2), direction) is X
        # every pivot-row factor left of the pivot (2,2) is zero
        X = as_matrix(((1, 2), (0, 3)))
        assert _apply_step(X, (2, 2), +1) is X

    def test_entry_with_zero_correction_keeps_its_object(self):
        X = as_matrix(((1, 2, 3), (4, 5, 6), (0, 7, 8)))
        out = _apply_step(X, (3, 3), +1)
        assert out[0][0] is X[0][0] and out[1][0] is X[1][0]
        assert out[0][1] == 2 + Fraction(3 * 7, 8) and out[1][1] == 5 + Fraction(6 * 7, 8)
        assert out[2] is X[2]
        Y = as_matrix(((1, 2, 3), (4, 5, 0), (1, 7, 8)))
        out = _apply_step(Y, (3, 3), -1)
        assert out[1] is Y[1] and out[0] is not Y[0]
        assert out[0] == (1 - Fraction(3, 8), 2 - Fraction(21, 8), 3)


class TestSymbolic:
    def test_generic_two_by_two(self):
        _, M = symbolic_cauchon_matrix(CauchonDiagram.from_black(2, 2, ()))
        y11 = restore(M).final[0][0]
        assert str(y11) == "1 * t[1,1]^1 + 1 * t[1,2]^1 * t[2,1]^1 * t[2,2]^-1"

    def test_symbolic_roundtrip(self):
        _, M = symbolic_cauchon_matrix(CauchonDiagram.from_black(2, 3, ((1, 2),)))
        assert delete_derivations(restore(M).final).initial == M

    def test_inexact_pivot_division_is_loud(self):
        reg, M = symbolic_cauchon_matrix(CauchonDiagram.from_black(2, 2, ()))
        t11, t12, t21, t22 = (reg.gen(k) for k in range(4))
        with pytest.raises(InexactDivisionError):
            restore(((t11, t12 + 1), (t21, t22 + 1)))


class TestInverseness:
    # forward and backward runs undo each other entrywise on any
    # rational matrix, zeros and signs notwithstanding
    def test_roundtrip_random(self, rng):
        for _ in range(25):
            m, p = rng.randint(1, 4), rng.randint(1, 4)
            X = [row[:] for row in rand_matrix(rng, m, p, span=9)]
            for _ in range(rng.randint(0, m * p // 2)):
                X[rng.randrange(m)][rng.randrange(p)] = Fraction(0)
            X = tuple(tuple(row) for row in X)
            tr = restore(X)
            td = delete_derivations(tr.final)
            assert td.matrices == tr.matrices
            assert restore(td.initial).final == tr.final

    def test_single_step_inverse(self, rng):
        X = as_matrix(rand_matrix(rng, 3, 3, span=7))
        for r in step_sequence(3, 3)[:-1]:
            assert _apply_step(_apply_step(X, r, +1), r, -1) == X


class TestZeroPatterns:
    def test_zero_pattern(self):
        # row-major bits, the layout of CauchonDiagram.mask
        assert _zero_mask(((0, 1), (2, 0))) == 0b1001
        assert _zero_mask(((1, 0, 0), (0, 2, 3))) == 0b001110
        C = random_diagram(3, 4, random.Random(5))
        assert _zero_mask(random_cauchon_matrix(C, 5)) == C.mask

    def test_cauchon_matrix_detection(self):
        assert is_cauchon_matrix(((0, 1), (2, 3)))
        # an isolated interior zero fails both directions
        assert not is_cauchon_matrix(((1, 1), (1, 0)))

    def test_diagram_of_matrix(self):
        C = diagram_of_matrix(((0, 1), (2, 3)))
        assert C.black_cells() == ((1, 1),)


def mixed_corpus(rng, count=6):
    """Random rational matrices with sprinkled zeros, negatives included."""
    out = []
    for _ in range(count):
        m, p = rng.randint(2, 4), rng.randint(2, 4)
        X = [row[:] for row in rand_matrix(rng, m, p, span=9)]
        for _ in range(rng.randint(0, 2)):
            X[rng.randrange(m)][rng.randrange(p)] = Fraction(0)
        out.append(tuple(tuple(row) for row in X))
    return out


def trace_tables(tr):
    return {label: all_minors_table(M) for label, M in tr.items()}


class TestExchangeLaws:
    """How each minor moves across one forward step (j, b) with pivot u.

    Writing rows(d) = i_1 < ... < i_l and cols(d) = a_1 < ... < a_l:

    * pivot law: if the minor closes exactly at (j, b) and u != 0, its new
      value is u times the old value of the minor with that corner dropped;
    * frozen cases: with the corner strictly before (j, b), the value is
      unchanged whenever u = 0, or i_l = j, or b is one of the columns, or
      b precedes all of them;
    * row sum: for i_l < j, a_l < b, u != 0, the change is a signed sum of
      old minors with one row swapped out for j, weighted by column-b
      entries over u;
    * column sum: for i_l < j and a_h < b < a_{h+1}, the change is a signed
      sum of old minors with one column swapped out for b, weighted by
      row-j entries over u;
    * single-term form: the same change collapses to one minor with a_h
      swapped out for b, read from the earlier state (j, a_h).
    """

    def check_all(self, X):
        tr = restore(X)
        tables = trace_tables(tr)
        m, p = tr.m, tr.p
        ids = all_minor_ids(m, p)
        fired = {k: 0 for k in ("pivot", "frozen", "rowsum", "colsum", "oneterm")}
        for r in tr.labels[:-1]:
            j, b = r
            nxt = step_successor(m, p, r)
            now, new = tables[r], tables[nxt]
            u = tr[r][j - 1][b - 1]
            for d in ids:
                rows, cols = d.rows, d.cols
                l = len(rows)
                if (rows[-1], cols[-1]) == (j, b):
                    if u:
                        dropped = (
                            now[MinorId(rows[:-1], cols[:-1])] if l > 1 else Fraction(1)
                        )
                        assert new[d] == dropped * u
                        fired["pivot"] += 1
                    continue
                if (rows[-1], cols[-1]) > (j, b):
                    continue
                if not u or rows[-1] == j or b in cols or b < cols[0]:
                    assert new[d] == now[d]
                    fired["frozen"] += 1
                    continue
                # now: rows[-1] < j, u != 0, b > cols[0], b not a column
                delta = new[d] - now[d]
                if cols[-1] < b:
                    want = sum(
                        (-1) ** ((k + 1) + l)
                        * now[MinorId(rows[:k] + rows[k + 1 :] + (j,), cols)]
                        * tr[r][rows[k] - 1][b - 1]
                        for k in range(l)
                    )
                    assert delta == want / u
                    fired["rowsum"] += 1
                h = sum(1 for a in cols if a < b)
                want = sum(
                    (-1) ** ((t + 1) + h)
                    * now[MinorId(rows, tuple(sorted(cols[:t] + cols[t + 1 :] + (b,))))]
                    * tr[r][j - 1][cols[t] - 1]
                    for t in range(h)
                )
                assert delta == want / u
                fired["colsum"] += 1
                ah = cols[h - 1]
                swapped = MinorId(rows, tuple(sorted(cols[:h - 1] + cols[h:] + (b,))))
                one = eval_minor(tr[(j, ah)], swapped) * tr[r][j - 1][ah - 1]
                assert delta == one / u
                fired["oneterm"] += 1
        return fired

    def test_laws_on_mixed_matrices(self, rng):
        totals = {k: 0 for k in ("pivot", "frozen", "rowsum", "colsum", "oneterm")}
        for X in mixed_corpus(rng):
            for k, v in self.check_all(X).items():
                totals[k] += v
        assert all(v > 20 for v in totals.values()), totals

    def test_pivot_law_zero_cases_on_cauchon_input(self, rng):
        # started from a nonnegative matrix whose zeros form a diagram,
        # the corner minor vanishes after the step iff the pivot was zero
        # or the corner-dropped minor already vanished
        for seed in range(8):
            C = random_diagram(rng.randint(2, 4), rng.randint(2, 4), rng)
            X = random_cauchon_matrix(C, seed)
            tr = restore(X)
            tables = trace_tables(tr)
            for r in tr.labels[:-1]:
                j, b = r
                nxt = step_successor(tr.m, tr.p, r)
                u = tr[r][j - 1][b - 1]
                for d in all_minor_ids(tr.m, tr.p):
                    if (d.rows[-1], d.cols[-1]) != (j, b):
                        continue
                    dropped = (
                        tables[r][MinorId(d.rows[:-1], d.cols[:-1])]
                        if len(d.rows) > 1
                        else Fraction(1)
                    )
                    after = tables[nxt][d]
                    if not u:
                        assert after == 0
                    assert (after == 0) == (not u or dropped == 0)

    def test_row_j_and_later_columns_never_move(self, rng):
        # a step only rewrites entries strictly above and left of its pivot
        for X in mixed_corpus(rng, count=3):
            tr = restore(X)
            for r in tr.labels[:-1]:
                j, b = r
                nxt = step_successor(tr.m, tr.p, r)
                before, after = tr[r], tr[nxt]
                for i in range(1, tr.m + 1):
                    for a in range(1, tr.p + 1):
                        if i >= j or a >= b:
                            assert before[i - 1][a - 1] == after[i - 1][a - 1]

    def test_pivot_row_keeps_initial_values(self, rng):
        # row j is untouched until the first step of row j+1, so every
        # pivot read during row j's pass still carries the input entry
        for X in mixed_corpus(rng, count=3):
            tr = restore(X)
            for (j, b) in tr.labels[:-1]:
                if b <= tr.p:
                    assert tr[(j, b)][j - 1][b - 1] == X[j - 1][b - 1]


class TestRestoredShape:
    # growing slices of the trace of a nonnegative diagram-patterned
    # start stay totally nonnegative
    def test_leading_slices_tnn(self, rng):
        for seed in range(6):
            C = random_diagram(rng.randint(2, 4), rng.randint(2, 4), rng)
            X = random_cauchon_matrix(C, seed)
            tr = restore(X)
            for (j, b), M in tr.items():
                if b > 1:
                    S = submatrix(M, range(j), range(min(b, tr.p + 1) - 1))
                    assert is_tnn(S).is_tnn
                if j > 1:
                    S = submatrix(M, range(j - 1), range(tr.p))
                    assert is_tnn(S).is_tnn

    def test_full_run_entries_stay_nonnegative(self, rng):
        for seed in range(6):
            C = random_diagram(rng.randint(2, 4), rng.randint(2, 4), rng)
            tr = restore(random_cauchon_matrix(C, seed))
            for _, M in tr.items():
                assert all(x >= 0 for row in M for x in row)


class TestVanishingPropagation:
    def test_counterexample_on_sign_mixed_input(self):
        hit = trace_h_invariance_counterexample(restore(((-1, 1), (1, 1))))
        assert hit == ((2, 2), MinorId((1,), (1,)))

    def test_holds_on_diagram_patterned_input(self, rng):
        for seed in range(5):
            C = random_diagram(3, 3, rng)
            trace = restore(random_cauchon_matrix(C, seed))
            assert trace_h_invariance_counterexample(trace) is None


def all_tables_counterexample(trace):
    """The h-invariance check with one exact Fraction table per label and
    no skipping: the oracle for the table reuse of
    `trace_h_invariance_counterexample`."""
    tables = [all_minors_table(mat) for mat in trace.matrices]
    for k, r in enumerate(trace.labels[:-1]):
        for (mid, now), after in zip(tables[k].items(), tables[k + 1].values()):
            if (mid.rows[-1], mid.cols[-1]) < r and not after and now:
                return r, mid
    return None


def two_by_two_trace(*mats):
    """A hand-built 2x2 trace over the labels (1,2), (2,1), (2,2), (2,3);
    the matrix objects are kept as given, repeats included."""
    return MatrixTrace(2, 2, tuple(step_sequence(2, 2)), mats)


ONES = as_matrix(((1, 1), (1, 1)))


class TestTableReuse:
    """`trace_h_invariance_counterexample` builds one minors table per
    distinct matrix object and skips labels whose successor is the same
    object; it must report what the all-tables oracle reports."""

    @pytest.mark.parametrize("m,p", [(3, 3), (4, 4)])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_corpus_traces_agree_with_the_oracle(self, m, p, seed):
        for _, X in _corpus(m, p, 100, seed):
            trace = delete_derivations(restore(X).final)
            assert trace_h_invariance_counterexample(trace) == all_tables_counterexample(trace)

    def test_sign_mixed_traces_agree_with_the_oracle(self, rng):
        """Small signed integer entries make vanishing failures common."""
        hits = 0
        for _ in range(60):
            m, p = rng.randint(2, 4), rng.randint(2, 4)
            trace = restore([[rng.randint(-2, 2) for _ in range(p)] for _ in range(m)])
            found = trace_h_invariance_counterexample(trace)
            assert found == all_tables_counterexample(trace)
            hits += found is not None
        assert hits

    def test_repeated_object_then_a_failing_step(self):
        B = as_matrix(((0, 1), (1, 1)))
        trace = two_by_two_trace(ONES, ONES, B, B)
        expected = ((2, 1), MinorId((1,), (1,)))
        assert all_tables_counterexample(trace) == expected
        assert trace_h_invariance_counterexample(trace) == expected

    def test_all_objects_distinct(self):
        trace = two_by_two_trace(
            *map(as_matrix, (((1, 1), (1, 1)), ((2, 1), (1, 1)), ((1, 1), (1, 1)), ((1, 1), (0, 1))))
        )
        assert len({id(mat) for mat in trace.matrices}) == 4
        expected = ((2, 2), MinorId((2,), (1,)))
        assert all_tables_counterexample(trace) == expected
        assert trace_h_invariance_counterexample(trace) == expected

    def test_object_repeated_out_of_order(self):
        B, D = as_matrix(((2, 1), (1, 1))), as_matrix(((1, 1), (0, 1)))
        trace = two_by_two_trace(ONES, B, ONES, D)
        expected = ((2, 2), MinorId((2,), (1,)))
        assert all_tables_counterexample(trace) == expected
        assert trace_h_invariance_counterexample(trace) == expected

    def test_one_table_per_distinct_object(self, monkeypatch):
        built = []

        def spy(M):
            built.append(M)
            return _sign_masks(M)

        monkeypatch.setattr(restoration, "_sign_masks", spy)
        for _, X in _corpus(4, 4, 20, 1):
            trace = restore(X)
            built.clear()
            assert trace_h_invariance_counterexample(trace) is None
            distinct = {id(mat) for mat in trace.matrices}
            assert len(built) == (len(distinct) if len(distinct) > 1 else 0)
            assert len({id(mat) for mat in built}) == len(built)
