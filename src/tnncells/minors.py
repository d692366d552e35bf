"""Minor identifiers, families as bitmasks, enumeration and evaluation.

A minor [I|L] is the determinant of the submatrix with row set I and
column set L, |I| = |L| >= 1 (the empty minor is the constant 1 and is
never stored).  Its 1-based id :class:`MinorId` keys the all-minors
tables of :mod:`tnncells.linalg`, where it is defined.  The minors of an
m x p grid have one canonical order - by size, then rows, then columns -
which is the id order of the grid's Laplace plan and of every all-minors
table.  A family is one int over that order: bit i is set when the i-th
minor belongs.  Equality, hashing, containment and size are integer
operations, and iteration walks the set bits in canonical order, so
serialized families are byte-stable.  `_mask_by` builds the mask of the
minors whose row set, or column set, passes a test, one block of the
order at a time; :mod:`tnncells.families` combines such masks.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, compress
from math import comb
from typing import Iterable, Iterator

from . import linalg
from .combinat import as_index_set
from .linalg import MinorId


def minor(rows: Iterable[int], cols: Iterable[int]) -> MinorId:
    r = as_index_set(rows)
    c = as_index_set(cols)
    if not r or len(r) != len(c):
        raise ValueError(f"need equal nonzero numbers of rows and columns, got {r}|{c}")
    return MinorId(r, c)


def all_minor_ids(m: int, p: int) -> list[MinorId]:
    """All nonempty minors of an m x p grid in canonical order."""
    if m < 1 or p < 1:
        raise ValueError("grid dimensions must be positive")
    return list(linalg._laplace_plan(m, p)[0])


def _minor_count(m: int, p: int) -> int:
    """Number of nonempty minors of an m x p grid, C(m+p, m) - 1."""
    return comb(m + p, m) - 1


@lru_cache(maxsize=64)
def _minor_index(m: int, p: int) -> dict[MinorId, int]:
    """MinorId -> its bit, the position in the grid's canonical order."""
    return {mid: bit for bit, mid in enumerate(linalg._laplace_plan(m, p)[0])}


ROWS, COLS = 0, 1  # the axes of a MinorId, for `_mask_by`


@lru_cache(maxsize=64)
def _sizes(m: int, p: int) -> tuple[tuple[int, tuple, tuple], ...]:
    """Per minor size k = 1, 2, ...: (bit of its first minor, its row sets,
    its column sets).  The size-k minors sit in one block per row set, in
    canonical order, each block listing its column sets in order."""
    out, offset = [], 0
    for k in range(1, min(m, p) + 1):
        row_sets = tuple(combinations(range(1, m + 1), k))
        col_sets = tuple(combinations(range(1, p + 1), k))
        out.append((offset, row_sets, col_sets))
        offset += len(row_sets) * len(col_sets)
    return tuple(out)


def _mask_by(m: int, p: int, axis: int, k: int, keep) -> int:
    """The size-k minors whose row set (axis ROWS) or column set (axis
    COLS) satisfies `keep`."""
    offset, row_sets, col_sets = _sizes(m, p)[k - 1]
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


def _misplaced(mid: MinorId, m: int, p: int) -> str:
    """Why `mid` has no bit in the m x p grid's canonical order."""
    rows, cols = mid
    try:
        well_formed = minor(rows, cols) == (tuple(rows), tuple(cols))
    except ValueError:
        well_formed = False
    if not well_formed:
        return f"malformed minor {mid}"
    return f"minor {mid} outside the {m}x{p} grid"


@dataclass(frozen=True)
class MinorFamily:
    """A set of minors of an m x p grid: bit i of `mask` is the i-th minor
    in canonical order.  Equality and hashing are structural."""

    m: int
    p: int
    mask: int

    def __post_init__(self) -> None:
        if self.m < 1 or self.p < 1:
            raise ValueError(f"grid dimensions must be positive, got {self.m}x{self.p}")
        if self.mask < 0:
            raise ValueError(f"family mask must be nonnegative, got {self.mask}")
        if self.mask.bit_length() > _minor_count(self.m, self.p):
            raise ValueError(
                f"family mask has a bit past the last minor of the {self.m}x{self.p} grid"
            )

    @classmethod
    def of(cls, m: int, p: int, ids: Iterable[MinorId]) -> "MinorFamily":
        index = _minor_index(m, p)
        mask = 0
        for mid in ids:
            bit = index.get(mid)
            if bit is None:
                raise ValueError(_misplaced(mid, m, p))
            mask |= 1 << bit
        return cls(m, p, mask)

    def __iter__(self) -> Iterator[MinorId]:
        # the binary digits read backwards: the i-th selects the i-th id
        ids = linalg._laplace_plan(self.m, self.p)[0]
        return compress(ids, map(int, reversed(f"{self.mask:b}")))

    def __len__(self) -> int:
        return self.mask.bit_count()

    def __contains__(self, mid: MinorId) -> bool:
        bit = _minor_index(self.m, self.p).get(mid)
        return bit is not None and bool(self.mask >> bit & 1)

    def to_json_obj(self) -> list[dict]:
        return [{"rows": list(mid.rows), "cols": list(mid.cols)} for mid in self]

    @classmethod
    def from_json_obj(cls, m: int, p: int, arr: list[dict]) -> "MinorFamily":
        """Read [{"rows": [...], "cols": [...]}, ...].  A missing field or a
        malformed item raises ValueError naming it (a bool is not an index)."""
        if not isinstance(arr, list):
            raise ValueError(f"a family is a JSON list of minors, got {type(arr).__name__}")
        for item in arr:
            if not isinstance(item, dict):
                raise ValueError(f"minor {item!r} is not a JSON object")
            for name in ("rows", "cols"):
                if name not in item:
                    raise ValueError(f"a minor needs the field {name!r}")
                if not (isinstance(item[name], list) and all(type(x) is int for x in item[name])):
                    raise ValueError(f"{name} of minor {item!r} is not a list of integers")
        return cls.of(m, p, (minor(item["rows"], item["cols"]) for item in arr))


def _zeros_family(m: int, p: int, values: Iterable) -> MinorFamily:
    """The family of the minors whose value is zero, from the values of an
    m x p all-minors table in canonical order."""
    digits = "".join("0" if value else "1" for value in values)
    return MinorFamily(m, p, int(digits[::-1], 2))


def eval_minor(M: linalg.Matrix, mid: MinorId):
    """Exact value of the minor on a matrix over either entry domain."""
    m, p = linalg.dims(M)
    if mid.rows[-1] > m or mid.cols[-1] > p:
        raise ValueError(f"minor {mid} outside the {m}x{p} matrix")
    sub = linalg.submatrix(
        M, [i - 1 for i in mid.rows], [a - 1 for a in mid.cols]
    )
    return linalg.det_exact(sub)


def all_minors_table(M: linalg.Matrix) -> dict[MinorId, object]:
    """Every nonempty minor's exact value, keyed by MinorId in canonical order."""
    return linalg.all_minors(M)


def vanishing_family(M: linalg.Matrix) -> MinorFamily:
    """The set of minors of M that are exactly zero.

    A rational M is read from the integer table of `linalg._scaled_minors`,
    whose zeros are exactly the minors' zeros; a Laurent M from
    `all_minors_table`.  Both tables are in canonical order, so each value
    sets its own bit.
    """
    m, p = linalg.dims(M)
    table = all_minors_table(M) if linalg.is_symbolic(M) else linalg._scaled_minors(M)
    return _zeros_family(m, p, table.values())
