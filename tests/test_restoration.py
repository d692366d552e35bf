"""Step engine: golden traces, inverseness, and the minor exchange laws."""

import random
from fractions import Fraction

import pytest
from conftest import rand_matrix

from tnncells import (
    CauchonDiagram,
    InexactDivisionError,
    all_minor_ids,
    all_minors_table,
    as_matrix,
    delete_derivations,
    delete_step,
    diagram_of_matrix,
    eval_minor,
    is_cauchon_matrix,
    is_tnn,
    minor,
    random_cauchon_matrix,
    random_diagram,
    restore,
    restore_step,
    step_sequence,
    symbolic_cauchon_matrix,
    trace_h_invariance_counterexample,
)
from tnncells import restoration
from tnncells.linalg import _scaled_minors, submatrix
from tnncells.restoration import MatrixTrace, zero_pattern
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
        assert eval_minor(tr[(4, 4)], minor([1, 3, 4], [1, 3, 4])) == -4

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

    def test_step_label_validation(self):
        with pytest.raises(ValueError):
            restore_step(N_START, (1, 1))
        with pytest.raises(ValueError):
            delete_step(N_START, (5, 2))


class TestStepEntryPoints:
    """The public single steps validate their input; a full run validates
    once and must agree with stepping through them."""

    def test_steps_reject_ragged_input(self):
        for step in (restore_step, delete_step):
            with pytest.raises(ValueError):
                step(((1, 2), (3,)), (2, 2))
            with pytest.raises(ValueError):
                step((), (1, 2))
        for run in (restore, delete_derivations):
            with pytest.raises(ValueError):
                run([[1, 2], [3]])

    def test_steps_coerce_int_entries(self):
        X = ((1, 2), (3, 4))
        assert restore_step(X, (2, 2)) == ((Fraction(5, 2), 2), (3, 4))
        assert delete_step(X, (2, 2)) == ((Fraction(-1, 2), 2), (3, 4))
        for out in (
            restore_step(X, (2, 2)),
            delete_step(X, (2, 2)),
            restore_step(((1, 2), (3, 0)), (2, 2)),  # zero pivot
            restore_step(X, (1, 2)),  # nothing above-left of the pivot
        ):
            assert all(type(x) is Fraction for row in out for x in row)

    def test_steps_lift_scalars_into_the_registry(self):
        reg, M = symbolic_cauchon_matrix(CauchonDiagram.from_black(2, 2, ()))
        t11, t12, t21, t22 = reg.gens()
        out = restore_step(((t11, 2), (t21, t22)), (2, 2))
        assert all(x.registry is reg for row in out for x in row)
        assert out[0][0] == t11 + 2 * t21 * t22**-1

    @staticmethod
    def _stepped(X, forward):
        m, p = len(X), len(X[0])
        labels = step_sequence(m, p)[:-1]
        mats = [as_matrix(X)]
        for r in labels if forward else reversed(labels):
            mats.append((restore_step if forward else delete_step)(mats[-1], r))
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
            assert tr.matrices == self._stepped(X, forward=True)
            assert delete_derivations(tr.final).matrices == self._stepped(tr.final, forward=False)


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
        t11, t12, t21, t22 = reg.gens()
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
        X = tuple(tuple(row) for row in rand_matrix(rng, 3, 3, span=7))
        for r in step_sequence(3, 3)[:-1]:
            assert delete_step(restore_step(X, r), r) == X


class TestZeroPatterns:
    def test_zero_pattern(self):
        assert zero_pattern(((0, 1), (2, 0))) == frozenset({(1, 1), (2, 2)})

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
                            now[minor(rows[:-1], cols[:-1])] if l > 1 else Fraction(1)
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
                        * now[minor(rows[:k] + rows[k + 1 :] + (j,), cols)]
                        * tr[r][rows[k] - 1][b - 1]
                        for k in range(l)
                    )
                    assert delta == want / u
                    fired["rowsum"] += 1
                h = sum(1 for a in cols if a < b)
                want = sum(
                    (-1) ** ((t + 1) + h)
                    * now[minor(rows, sorted(cols[:t] + cols[t + 1 :] + (b,)))]
                    * tr[r][j - 1][cols[t] - 1]
                    for t in range(h)
                )
                assert delta == want / u
                fired["colsum"] += 1
                ah = cols[h - 1]
                swapped = minor(rows, sorted(cols[:h - 1] + cols[h:] + (b,)))
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
                        tables[r][minor(d.rows[:-1], d.cols[:-1])]
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
        assert hit == ((2, 2), minor([1], [1]))

    def test_holds_on_diagram_patterned_input(self, rng):
        for seed in range(5):
            C = random_diagram(3, 3, rng)
            trace = restore(random_cauchon_matrix(C, seed))
            assert trace_h_invariance_counterexample(trace) is None


def all_tables_counterexample(trace):
    """The h-invariance check with one table per label and no skipping:
    the oracle for the table reuse of `trace_h_invariance_counterexample`."""
    tables = [_scaled_minors(mat) for mat in trace.matrices]
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
        expected = ((2, 1), minor([1], [1]))
        assert all_tables_counterexample(trace) == expected
        assert trace_h_invariance_counterexample(trace) == expected

    def test_all_objects_distinct(self):
        trace = two_by_two_trace(
            *map(as_matrix, (((1, 1), (1, 1)), ((2, 1), (1, 1)), ((1, 1), (1, 1)), ((1, 1), (0, 1))))
        )
        assert len({id(mat) for mat in trace.matrices}) == 4
        expected = ((2, 2), minor([2], [1]))
        assert all_tables_counterexample(trace) == expected
        assert trace_h_invariance_counterexample(trace) == expected

    def test_object_repeated_out_of_order(self):
        B, D = as_matrix(((2, 1), (1, 1))), as_matrix(((1, 1), (0, 1)))
        trace = two_by_two_trace(ONES, B, ONES, D)
        expected = ((2, 2), minor([2], [1]))
        assert all_tables_counterexample(trace) == expected
        assert trace_h_invariance_counterexample(trace) == expected

    def test_one_table_per_distinct_object(self, monkeypatch):
        built = []

        def spy(M):
            built.append(M)
            return _scaled_minors(M)

        monkeypatch.setattr(restoration, "_scaled_minors", spy)
        for _, X in _corpus(4, 4, 20, 1):
            trace = restore(X)
            built.clear()
            assert trace_h_invariance_counterexample(trace) is None
            distinct = {id(mat) for mat in trace.matrices}
            assert len(built) == (len(distinct) if len(distinct) > 1 else 0)
            assert len({id(mat) for mat in built}) == len(built)
