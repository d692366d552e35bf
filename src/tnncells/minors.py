"""Minor identifiers, families as bitmasks, enumeration and evaluation.

A minor [I|L] is the determinant of the submatrix with row set I and
column set L, |I| = |L| >= 1 (the empty minor is the constant 1 and is
never stored).  Its 1-based id :class:`MinorId` keys the all-minors
tables of :mod:`tnncells.linalg`, where it is defined.  The minors of an
m x p grid have one canonical order - by size, then rows, then columns -
which is the id order of the grid's Laplace plan and of every all-minors
table.  A family is one int over that order: bit i is set when the i-th
minor belongs.  Equality, hashing and size are integer operations, and
iteration walks the set bits in canonical order, so serialized families
are byte-stable.  `_mask_by` builds the mask of the minors whose row set,
or column set, passes a test, one block of the plan's per-size layout at
a time; :mod:`tnncells.families` combines such masks.  `_sign_masks`
reads the masks of a matrix's zero and negative minors from one integer
all-minors table; every question of sign or zero asks it.  Minors are
evaluated on rational matrices only; a Laurent matrix raises `TypeError`.

A family's JSON is a fresh list that picks its members from `_minor_json`,
one bounded table per grid of ``{"rows": [...], "cols": [...]}`` dicts in
canonical order.  Those dicts are shared by every family of the grid and
every call, so callers must treat them as read-only.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import compress
from math import comb
from typing import Iterator

from . import linalg
from ._value import _Value
from .linalg import MinorId


def all_minor_ids(m: int, p: int) -> list[MinorId]:
    """All nonempty minors of an m x p grid in canonical order."""
    if m < 1 or p < 1:
        raise ValueError("grid dimensions must be positive")
    return list(linalg._laplace_plan(m, p).ids)


def _minor_count(m: int, p: int) -> int:
    """Number of nonempty minors of an m x p grid, C(m+p, m) - 1."""
    return comb(m + p, m) - 1


@lru_cache(maxsize=64)
def _minor_json(m: int, p: int) -> tuple[dict, ...]:
    """The JSON of every minor of an m x p grid in canonical order, built
    once per grid and shared, read-only, by every `MinorFamily.to_json_obj`."""
    ids = linalg._laplace_plan(m, p).ids
    return tuple([{"rows": [*rows], "cols": [*cols]} for rows, cols in ids])


ROWS, COLS = 0, 1  # the axes of a MinorId, for `_mask_by`


def _mask_by(m: int, p: int, axis: int, k: int, keep) -> int:
    """The size-k minors whose row set (axis ROWS) or column set (axis
    COLS) satisfies `keep`."""
    offset, row_sets, col_sets = linalg._laplace_plan(m, p).sizes[k - 1]
    # binary digits, the last minor first
    if axis == COLS:
        # one digit per column set, repeated in every row set's block
        digits = "".join("1" if keep(cols) else "0" for cols in reversed(col_sets))
        digits *= len(row_sets)
    else:
        # one whole block per row set
        width = len(col_sets)
        digits = "".join(("1" if keep(rows) else "0") * width for rows in reversed(row_sets))
    return int(digits, 2) << offset


class MinorFamily(_Value):
    """A set of minors of an m x p grid: bit i of `mask` is the i-th minor
    in canonical order.  Equality and hashing are structural."""

    __slots__ = ("m", "p", "mask")

    def __init__(self, m: int, p: int, mask: int) -> None:
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "mask", mask)
        if m < 1 or p < 1:
            raise ValueError(f"grid dimensions must be positive, got {m}x{p}")
        if mask < 0:
            raise ValueError(f"family mask must be nonnegative, got {mask}")
        if mask.bit_length() > _minor_count(m, p):
            raise ValueError(
                f"family mask has a bit past the last minor of the {m}x{p} grid"
            )

    def _pick(self, per_minor):
        """The items of a sequence with one item per minor, in canonical
        order, at the set bits: the binary digits read backwards, the i-th
        selects the i-th item."""
        return compress(per_minor, map("1".__eq__, reversed(f"{self.mask:b}")))

    def __iter__(self) -> Iterator[MinorId]:
        return self._pick(linalg._laplace_plan(self.m, self.p).ids)

    def __len__(self) -> int:
        return self.mask.bit_count()

    def to_json_obj(self) -> list[dict]:
        """The members as ``{"rows": [...], "cols": [...]}`` in canonical
        order: a fresh list of the grid's shared `_minor_json` dicts, which
        are read-only."""
        return list(self._pick(_minor_json(self.m, self.p)))


def eval_minor(M: linalg.Matrix, mid: MinorId):
    """Exact value of the minor on a rational matrix.

    The row and column sets must be nonempty, of one size, positive and
    strictly increasing, and the minor must fit in the matrix.
    """
    rows, cols = mid
    if not 0 < len(rows) == len(cols) or any(
        ix[0] < 1 or sorted(set(ix)) != list(ix) for ix in mid
    ):
        raise ValueError(f"malformed minor {mid}")
    m, p = linalg.dims(M)
    if rows[-1] > m or cols[-1] > p:
        raise ValueError(f"minor {mid} outside the {m}x{p} matrix")
    return linalg.det_exact(linalg.submatrix(M, [i - 1 for i in rows], [a - 1 for a in cols]))


def all_minors_table(M: linalg.Matrix) -> dict[MinorId, object]:
    """Every nonempty minor's exact value, keyed by MinorId in canonical order."""
    return linalg.all_minors(M)


def _sign_masks(M: linalg.Matrix) -> tuple[int, int]:
    """(zeros, negatives): the masks of the minors of a rational matrix M
    that are 0 and that are below 0.

    The one reader of signs and zeros.  It runs the integer all-minors
    kernel on M's denominator-cleared rows: each value is the minor times
    a positive integer, so its sign and whether it is zero are exact.  The
    values come in canonical order, so the i-th sets bit i.
    """
    values = linalg._all_minors(linalg._scaled_int_rows(M)[0])
    # binary digits, the last minor first
    zeros = int("".join(["0" if value else "1" for value in reversed(values)]), 2)
    if min(values) >= 0:  # a tnn matrix, the common case: no digits to build
        return zeros, 0
    negatives = "".join(["1" if value < 0 else "0" for value in reversed(values)])
    return zeros, int(negatives, 2)


def vanishing_family(M: linalg.Matrix) -> MinorFamily:
    """The set of minors of a rational matrix M that are exactly zero: the
    zero mask of `_sign_masks`."""
    m, p = linalg.dims(M)
    return MinorFamily(m, p, _sign_masks(M)[0])
