"""The restoration algorithm and its inverse, generic over the entry domain.

Steps are indexed by grid positions (j, b) running lexicographically from
(1,2) to (m,p), plus a final label (m, p+1); the matrix stored at a label
is the state *before* that step runs.  One step engine and one driver
serve both directions - they differ in a sign and in traversal order -
and every entry domain: the correction is X[i][b] * X[j][a] / pivot, in
the pivot's own exact division.  A step writes only the entries whose
correction is nonzero: a row with a zero multiplier X[i][b] keeps its row
tuple, an entry with a zero pivot-row factor X[j][a] keeps its object,
and a step that writes nothing (a zero pivot among them) returns its
input matrix itself, so the h-invariance check, the deletion suite and
the step-bracket checks can skip what a step left alone.

The labels of each grid shape are built once and cached (bounded), and
that tuple is the only source of the pivots the driver `_run` hands the
step kernel.  So the kernel neither re-reads the matrix's dimensions nor
checks its label: every label it is given is a pivot of its grid.

The pivot's type picks the division.  A Fraction pivot takes a rational
kernel that builds each written entry as one normalised ``Fraction(n, d)``.
A Laurent pivot takes ``/``, exact Laurent division, so a non-exact pivot
division can never pass silently.  An int pivot takes ``//``: only
`cells.family_of_diagram` restores plain ints, a 0/1 matrix whose every
nonzero pivot is an untouched entry 1, so floor division is exact there.
The public entry points validate their matrix once with
:func:`~tnncells.linalg.as_matrix`, so int input reaches the engine as
Fraction.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import Iterator

from ._value import _Value
from .combinat import CauchonDiagram, _mask_is_cauchon, _zero_mask
from .linalg import Matrix, _laplace_plan, as_matrix, dims
from .minors import MinorFamily, MinorId, _sign_masks

Step = tuple[int, int]


def step_sequence(m: int, p: int) -> list[Step]:
    """All step labels in order: (1,2) ... (m,p), then the final (m,p+1).

    The first grid cell (1,1) is skipped; for the labels the final state
    counts as position (m, p+1).
    """
    if m < 1 or p < 1:
        raise ValueError("grid dimensions must be positive")
    return list(_labels(m, p))


@lru_cache(maxsize=64)
def _labels(m: int, p: int) -> tuple[Step, ...]:
    """The labels of `step_sequence`, built once per grid shape."""
    cells = [(j, b) for j in range(1, m + 1) for b in range(1, p + 1)]
    return (*cells[1:], (m, p + 1))


def _apply_step(X: Matrix, r: Step, direction: int) -> Matrix:
    """One step on a validated matrix, in its pivot's exact division.

    The label r is not checked: `_run` passes only non-final labels of
    the matrix's own grid, taken from `_labels`.  Only entries with a
    nonzero correction are written (see the module docstring).  A
    Fraction pivot forms xib/pivot once per row as an unreduced integer
    pair, so each written entry costs one normalisation, in
    `Fraction(n, d)`.  An int pivot takes ``xib * X[j][a] // pivot``
    and any other (Laurent) pivot ``xib * X[j][a] / pivot``, the exact
    forms where xib/pivot need not lie in the domain.
    """
    j, b = r[0] - 1, r[1] - 1  # the 0-based pivot position
    pivot_row = X[j]
    pivot = pivot_row[b]
    if not pivot:
        return X
    cols = [a for a in range(b) if pivot_row[a]]
    if not cols:
        return X
    kind = type(pivot)
    if kind is Fraction:
        factors = [(a, pivot_row[a].numerator, pivot_row[a].denominator) for a in cols]
    rows = None
    for i in range(j):
        xib = X[i][b]
        if not xib:
            continue
        row = list(X[i])
        if kind is Fraction:
            # row[a] + direction * (n / d) * y, over one common denominator
            n = direction * xib.numerator * pivot.denominator
            d = xib.denominator * pivot.numerator
            for a, yn, yd in factors:
                x = row[a]
                dy = d * yd
                row[a] = Fraction(x.numerator * dy + n * yn * x.denominator, x.denominator * dy)
        else:
            for a in cols:
                y = xib * pivot_row[a]
                correction = y // pivot if kind is int else y / pivot
                row[a] = row[a] + correction if direction > 0 else row[a] - correction
        if rows is None:
            rows = list(X)
        rows[i] = tuple(row)
    return X if rows is None else tuple(rows)


class MatrixTrace(_Value):
    """All intermediate matrices of one run, keyed by step label."""

    __slots__ = ("m", "p", "labels", "matrices")

    def __init__(
        self, m: int, p: int, labels: tuple[Step, ...], matrices: tuple[Matrix, ...]
    ) -> None:
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "matrices", matrices)

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
    return _run(as_matrix(X), +1)


def delete_derivations(Xbar: Matrix) -> MatrixTrace:
    """Run all inverse steps from the final label back to (1,2)."""
    return _run(as_matrix(Xbar), -1)


def _run(X: Matrix, direction: int) -> MatrixTrace:
    """The whole run without validation or coercion: X is a tuple of row
    tuples, the initial matrix when `direction` is +1 and the final one
    when it is -1; the trace is keyed by label either way.  Every pivot
    the steps take is a label of `_labels`."""
    m, p = dims(X)
    labels = _labels(m, p)
    mats = [X]
    for r in labels[:-1] if direction > 0 else labels[-2::-1]:
        mats.append(_apply_step(mats[-1], r, direction))
    if direction < 0:
        mats.reverse()
    return MatrixTrace(m, p, labels, tuple(mats))


def is_cauchon_matrix(X: Matrix) -> bool:
    """Is the zero pattern of X a valid diagram?"""
    m, p = dims(X)
    return _mask_is_cauchon(m, p, _zero_mask(X))


def diagram_of_matrix(X: Matrix) -> CauchonDiagram:
    m, p = dims(X)
    return CauchonDiagram(m, p, _zero_mask(X))


@lru_cache(maxsize=64)
def _closed_before(m: int, p: int) -> dict[Step, int]:
    """Non-final label of the m x p grid -> the mask, over the canonical
    minor order, of the minors that close strictly before it (their
    largest row and largest column, as a pair, precede the label)."""
    corners = [(mid.rows[-1], mid.cols[-1]) for mid in _laplace_plan(m, p).ids]
    return {
        r: sum(1 << bit for bit, corner in enumerate(corners) if corner < r)
        for r in step_sequence(m, p)[:-1]
    }


def trace_h_invariance_counterexample(
    trace: MatrixTrace,
) -> tuple[Step, MinorId] | None:
    """First (step, minor) whose vanishing fails to propagate backward.

    For every non-final label r and minor closing strictly before r (its
    largest row and largest column, as a pair, precede r), a zero value at
    the successor label must force a zero value at r.  Each matrix is
    read as the zero mask of `minors._sign_masks`, so label r fails when
    ``before(r) & zeros(after) & ~zeros(now)`` is nonzero, and the first
    minor of that family, in canonical order, is the witness.  A label whose
    successor is the same matrix object cannot fail and is skipped (a
    step that writes nothing returns X itself); every other matrix gets
    one mask, keyed by object id while the trace keeps the matrices alive.
    """
    m, p = trace.m, trace.p
    closed_before = _closed_before(m, p)
    zeros: dict[int, int] = {}
    mats = trace.matrices
    for k, r in enumerate(trace.labels[:-1]):
        now, after = mats[k], mats[k + 1]
        if now is after:
            continue
        for mat in (now, after):
            if id(mat) not in zeros:
                zeros[id(mat)] = _sign_masks(mat)[0]
        failed = closed_before[r] & zeros[id(after)] & ~zeros[id(now)]
        if failed:
            return r, next(iter(MinorFamily(m, p, failed)))
    return None
