"""The restoration algorithm and its inverse, generic over the entry domain.

Steps are indexed by grid positions (j, b) running lexicographically from
(1,2) to (m,p), plus a final label (m, p+1); the matrix stored at a label
is the state *before* that step runs.  One step engine serves both
directions - they differ in a sign and in traversal order - and every entry
domain: the correction is ``div(X[i][b] * X[j][a], pivot)``, where ``div``
is the domain's exact division, passed in as `linalg._det_bareiss` takes
it.  The public entry points validate their matrix once with
:func:`~tnncells.linalg.as_matrix` (int entries become Fraction) and pass
``operator.truediv``: exact on rationals and exact Laurent division on
Laurent polynomials, so a non-exact pivot division can never pass
silently.  The third domain is plain int: `cells.family_of_diagram`
restores a 0/1 matrix with ``operator.floordiv``, exact there because
every nonzero pivot of that run is an untouched entry 1.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Callable, Iterator

from .combinat import CauchonDiagram, is_cauchon
from .linalg import Matrix, _scaled_minors, as_matrix, dims
from .minors import MinorId

Step = tuple[int, int]


def step_sequence(m: int, p: int) -> list[Step]:
    """All step labels in order: (1,2) ... (m,p), then the final (m,p+1).

    The first grid cell (1,1) is skipped; for the labels the final state
    counts as position (m, p+1).
    """
    if m < 1 or p < 1:
        raise ValueError("grid dimensions must be positive")
    labels = [(j, b) for j in range(1, m + 1) for b in range(1, p + 1)]
    labels.remove((1, 1))
    labels.append((m, p + 1))
    return labels


def _apply_step(X: Matrix, r: Step, direction: int, div: Callable) -> Matrix:
    """One step on a validated matrix; `div` is its entries' exact division."""
    m, p = dims(X)
    j, b = r
    if not (1 <= j <= m and 1 <= b <= p) or r == (1, 1):
        raise ValueError(f"{r} is not a pivot position for a {m}x{p} matrix")
    pivot = X[j - 1][b - 1]
    if not pivot:
        return X
    pivot_row = X[j - 1]
    rows = list(X)
    for i in range(j - 1):
        row = list(X[i])
        xib = row[b - 1]
        for a in range(b - 1):
            correction = div(xib * pivot_row[a], pivot)
            row[a] = row[a] + correction if direction > 0 else row[a] - correction
        rows[i] = tuple(row)
    return tuple(rows)


def restore_step(X: Matrix, r: Step) -> Matrix:
    """One forward step: entries above-left of the pivot gain the
    pivot-scaled rank-one correction; a zero pivot leaves X unchanged."""
    return _apply_step(as_matrix(X), r, +1, operator.truediv)


def delete_step(X: Matrix, r: Step) -> Matrix:
    """The inverse step (subtraction form), keyed on the same pivot
    position read from its own input."""
    return _apply_step(as_matrix(X), r, -1, operator.truediv)


@dataclass(frozen=True)
class MatrixTrace:
    """All intermediate matrices of one run, keyed by step label."""

    m: int
    p: int
    labels: tuple[Step, ...]
    matrices: tuple[Matrix, ...]

    def __getitem__(self, label: Step) -> Matrix:
        try:
            return self.matrices[self.labels.index(label)]
        except ValueError:
            raise KeyError(f"no matrix at label {label}") from None

    @property
    def initial(self) -> Matrix:
        return self.matrices[0]

    @property
    def final(self) -> Matrix:
        return self.matrices[-1]

    def items(self) -> Iterator[tuple[Step, Matrix]]:
        return iter(zip(self.labels, self.matrices))


def restore(X: Matrix) -> MatrixTrace:
    """Run all forward steps; the final matrix sits at label (m, p+1)."""
    return _restore(as_matrix(X), operator.truediv)


def _restore(X: Matrix, div: Callable) -> MatrixTrace:
    """`restore` without validation or coercion: X is a tuple of row
    tuples whose entries `div` divides exactly."""
    m, p = dims(X)
    labels = step_sequence(m, p)
    mats = [X]
    for r in labels[:-1]:
        mats.append(_apply_step(mats[-1], r, +1, div))
    return MatrixTrace(m, p, tuple(labels), tuple(mats))


def delete_derivations(Xbar: Matrix) -> MatrixTrace:
    """Run all inverse steps from the final label back to (1,2)."""
    Xbar = as_matrix(Xbar)
    m, p = dims(Xbar)
    labels = step_sequence(m, p)
    mats = [Xbar]
    for r in reversed(labels[:-1]):
        mats.append(_apply_step(mats[-1], r, -1, operator.truediv))
    mats.reverse()
    return MatrixTrace(m, p, tuple(labels), tuple(mats))


def zero_pattern(X: Matrix) -> frozenset[tuple[int, int]]:
    m, p = dims(X)
    return frozenset(
        (i, a) for i in range(1, m + 1) for a in range(1, p + 1) if not X[i - 1][a - 1]
    )


def is_cauchon_matrix(X: Matrix) -> bool:
    """Is the zero pattern of X a valid diagram?"""
    m, p = dims(X)
    return is_cauchon(m, p, zero_pattern(X))


def diagram_of_matrix(X: Matrix) -> CauchonDiagram:
    m, p = dims(X)
    return CauchonDiagram.from_black(m, p, zero_pattern(X))


def trace_h_invariance_counterexample(
    trace: MatrixTrace,
) -> tuple[Step, MinorId] | None:
    """First (step, minor) whose vanishing fails to propagate backward.

    For every non-final label r and minor closing strictly before r (its
    largest row and largest column, as a pair, precede r), a zero value at
    the successor label must force a zero value at r.  Both tables list
    every minor in canonical order, so they are walked side by side; only
    zero-ness is read, so they come from `linalg._scaled_minors`.  A label
    whose successor is the same matrix object cannot fail and is skipped
    (a zero pivot returns X itself); every other matrix gets one table,
    keyed by object id while the trace keeps the matrices alive.
    """
    tables: dict[int, dict] = {}
    mats = trace.matrices
    for k, r in enumerate(trace.labels[:-1]):
        now, after = mats[k], mats[k + 1]
        if now is after:
            continue
        for mat in (now, after):
            if id(mat) not in tables:
                tables[id(mat)] = _scaled_minors(mat)
        for (mid, x), y in zip(tables[id(now)].items(), tables[id(after)].values()):
            if (mid.rows[-1], mid.cols[-1]) < r and not y and x:
                return r, mid
    return None
