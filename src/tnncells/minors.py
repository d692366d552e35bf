"""Minor identifiers, canonical families, enumeration and evaluation.

A minor [I|L] is the determinant of the submatrix with row set I and
column set L, |I| = |L| >= 1 (the empty minor is the constant 1 and is
never stored).  Its 1-based id :class:`MinorId` keys the all-minors
tables of :mod:`tnncells.linalg`, where it is defined.  Families are
plain extensional sets of minor ids with a frozen canonical order - by
size, then rows, then columns - so that serialized families are
byte-stable.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from dataclasses import dataclass

from . import linalg
from .combinat import as_index_set
from .linalg import MinorId


def minor(rows: Iterable[int], cols: Iterable[int]) -> MinorId:
    r = as_index_set(rows)
    c = as_index_set(cols)
    if not r or len(r) != len(c):
        raise ValueError(f"need equal nonzero numbers of rows and columns, got {r}|{c}")
    return MinorId(r, c)


def minor_sort_key(mid: MinorId) -> tuple:
    return (len(mid.rows), mid.rows, mid.cols)


def all_minor_ids(m: int, p: int) -> list[MinorId]:
    """All nonempty minors of an m x p grid in canonical order."""
    if m < 1 or p < 1:
        raise ValueError("grid dimensions must be positive")
    return list(linalg._laplace_plan(m, p)[0])


@dataclass(frozen=True)
class MinorFamily:
    """A set of minors of an m x p grid; equality and hashing structural."""

    m: int
    p: int
    members: frozenset[MinorId]

    def __post_init__(self) -> None:
        for mid in self.members:
            if not mid.rows or len(mid.rows) != len(mid.cols):
                raise ValueError(f"malformed minor {mid}")
            if mid.rows[-1] > self.m or mid.cols[-1] > self.p:
                raise ValueError(f"minor {mid} outside the {self.m}x{self.p} grid")

    @classmethod
    def of(cls, m: int, p: int, ids: Iterable[MinorId]) -> "MinorFamily":
        return cls(m, p, frozenset(ids))

    def sorted_members(self) -> list[MinorId]:
        return sorted(self.members, key=minor_sort_key)

    def __iter__(self) -> Iterator[MinorId]:
        return iter(self.sorted_members())

    def __len__(self) -> int:
        return len(self.members)

    def __contains__(self, mid: MinorId) -> bool:
        return mid in self.members

    def to_json_obj(self) -> list[dict]:
        return [
            {"rows": list(mid.rows), "cols": list(mid.cols)}
            for mid in self.sorted_members()
        ]

    @classmethod
    def from_json_obj(cls, m: int, p: int, arr: list[dict]) -> "MinorFamily":
        return cls.of(
            m, p, (minor(item["rows"], item["cols"]) for item in arr)
        )


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
    `all_minors_table`.
    """
    m, p = linalg.dims(M)
    table = all_minors_table(M) if linalg.is_symbolic(M) else linalg._scaled_minors(M)
    return MinorFamily.of(m, p, (mid for mid, value in table.items() if not value))
