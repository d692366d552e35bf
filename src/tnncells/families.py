"""Vanishing families attached to restricted permutations.

A minor belongs to the family of w when at least one of four
combinatorial conditions holds.  `family_of_perm` computes each
condition as a bitmask over the grid's canonical minor order (see
:mod:`tnncells.minors`) from a few per-shape masks, with no loop over
the minors:

- conditions 1 and 2 are dominance conditions.  A witness is a nonempty
  subset L of a pool of columns (rows for condition 2) together with the
  sorted image of L, a row set (column set); it rules out every minor
  whose column set is >= L and whose row set is <= the image,
  componentwise.  A condition's mask is the complement of the union of
  these "column set >= L" AND "row set <= image" masks;
- conditions 3 and 4 are interval-counting ("stripe") conditions on the
  column set, respectively the row set: each is the union, over the
  windows [r, s], of the minors with more indices in [r, s] than the
  window's free positions.

The per-shape masks are built on demand from the shape's row-set and
column-set blocks and kept in bounded caches.

`bruhat_cell_vanishes` is the per-minor form of the dominance test on a
partial permutation: one search over the witnesses, where the minus sign
is the plus search on the transposes.  The `verify bruhat-cell` suite
checks it against the masks of `_undominated`, the code behind
conditions 1 and 2, on both signs.  `closure_rank_conditions_hold`
realizes the vanishing data through rank inequalities, an independent
oracle for the tests.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from functools import lru_cache
from itertools import combinations
from operator import le
from typing import Iterable, Sequence

from . import linalg
from ._value import _Value
from .combinat import (
    RestrictedPermutation,
    block_decompose,
    index_set_leq,
)
from .minors import COLS, ROWS, MinorFamily, MinorId, _mask_by, _minor_count


class PartialPermutation(_Value):
    """A partial injection from columns to rows, as sorted (col, row) pairs."""

    __slots__ = ("size_rows", "size_cols", "assignment")

    def __init__(
        self, size_rows: int, size_cols: int, assignment: tuple[tuple[int, int], ...]
    ) -> None:
        object.__setattr__(self, "size_rows", size_rows)
        object.__setattr__(self, "size_cols", size_cols)
        object.__setattr__(self, "assignment", assignment)
        cols = [c for c, _ in assignment]
        rows = [r for _, r in assignment]
        if cols != sorted(set(cols)):
            raise ValueError("assignment must be sorted by column, no duplicates")
        if len(set(rows)) != len(rows):
            raise ValueError("not injective")
        for c, r in assignment:
            if not (1 <= c <= size_cols and 1 <= r <= size_rows):
                raise ValueError(f"pair {(c, r)} out of range")

    def domain(self) -> tuple[int, ...]:
        return tuple(c for c, _ in self.assignment)

    def apply(self, col: int) -> int | None:
        for c, r in self.assignment:
            if c == col:
                return r
        return None

    def transpose(self) -> PartialPermutation:
        """The inverse injection, from rows to columns, sorted by row."""
        pairs = tuple(sorted((r, c) for c, r in self.assignment))
        return PartialPermutation(self.size_cols, self.size_rows, pairs)

    def to_matrix(self) -> tuple[tuple[int, ...], ...]:
        """0/1 matrix of shape size_rows x size_cols."""
        hits = {(r, c) for c, r in self.assignment}
        return tuple(
            tuple(1 if (i, c) in hits else 0 for c in range(1, self.size_cols + 1))
            for i in range(1, self.size_rows + 1)
        )


def enumerate_partial_permutations(
    size_rows: int, size_cols: int
) -> Iterable[PartialPermutation]:
    """Every partial injection from columns into rows, including the empty
    one."""
    from itertools import permutations

    cols = range(1, size_cols + 1)
    rows = range(1, size_rows + 1)
    for k in range(0, min(size_rows, size_cols) + 1):
        for dom in combinations(cols, k):
            for img in permutations(rows, k):
                yield PartialPermutation(
                    size_rows, size_cols, tuple(zip(dom, img))
                )


def _bounded_subsets(
    pool: Sequence[int], k: int, bound: Sequence[int]
) -> Iterable[tuple[int, ...]]:
    """Size-k subsets L of pool (ascending) with L <= bound componentwise."""
    for L in combinations(sorted(pool), k):
        if all(l <= b for l, b in zip(L, bound)):
            yield L


def bruhat_cell_vanishes(w: PartialPermutation, mid: MinorId, sign: str = "plus") -> bool:
    """Does the minor vanish identically on the (signed) triangular sweep
    of the partial permutation matrix?

    plus: no L inside the domain with L <= cols maps onto a row set
    dominating rows.  minus: the plus condition on the transposes of the
    partial permutation and of the minor.
    """
    if sign == "minus":
        return bruhat_cell_vanishes(w.transpose(), MinorId(mid.cols, mid.rows), "plus")
    if sign != "plus":
        raise ValueError(f"sign must be 'plus' or 'minus', got {sign!r}")
    for L in _bounded_subsets(w.domain(), len(mid.rows), mid.cols):
        if index_set_leq(mid.rows, sorted(w.apply(c) for c in L)):
            return False
    return True


# -- the four membership conditions ----------------------------------------


# Keys: every index set of either axis, and every window and bound, of the
# grids in use; 4096 covers all of them for any grid up to (8,8).
@lru_cache(maxsize=4096)
def _at_least(m: int, p: int, axis: int, S: tuple[int, ...]) -> int:
    """The size-|S| minors whose index set on `axis` is >= S componentwise."""
    return _mask_by(m, p, axis, len(S), lambda T: all(map(le, S, T)))


@lru_cache(maxsize=4096)
def _at_most(m: int, p: int, axis: int, S: tuple[int, ...]) -> int:
    """The size-|S| minors whose index set on `axis` is <= S componentwise."""
    return _mask_by(m, p, axis, len(S), lambda T: all(map(le, T, S)))


@lru_cache(maxsize=4096)
def _more_than(m: int, p: int, axis: int, r: int, s: int, bound: int) -> int:
    """The minors with more than `bound` indices in [r, s] on `axis`."""
    mask = 0
    for k in range(bound + 1, min(m, p) + 1):
        mask |= _mask_by(m, p, axis, k, lambda T: bisect_right(T, s) - bisect_left(T, r) > bound)
    return mask


def _undominated(m: int, p: int, axis: int, image: dict[int, int]) -> int:
    """The minors that no witness dominates.  A witness is a nonempty subset
    L of the pool `image` (indices on `axis`) with the sorted image of L on
    the other axis; it dominates [I|J] when the index set on `axis` is >= L
    and the other one is <= the image, both componentwise.

    The pool's keys must ascend: L is drawn with `combinations` over them
    and compared as it comes, unsorted.  A pool in any other order gives a
    wrong mask with no error."""
    other = COLS - axis
    dominated = 0
    for k in range(1, len(image) + 1):
        for L in combinations(image, k):
            dominated |= _at_least(m, p, axis, L) & _at_most(
                m, p, other, tuple(sorted(image[x] for x in L))
            )
    return ((1 << _minor_count(m, p)) - 1) & ~dominated


def _condition_masks(w: RestrictedPermutation) -> tuple[int, int, int, int]:
    """The masks of the minors meeting each of the four conditions, in the
    grid's canonical minor order."""
    m, p, n, line = w.m, w.p, w.n, w.w
    # condition 1: columns a of the left block whose image stays in the top
    # rows, mapped to the row m+1-w(a)
    cond1 = _undominated(
        m, p, COLS, {a: m + 1 - line[a - 1] for a in range(1, p + 1) if line[a - 1] <= m}
    )
    # condition 2: reversed positions l whose image lands in the bottom
    # rows, mapped to that image less m, a column
    cond2 = _undominated(
        m, p, ROWS, {l: line[n - l] - m for l in range(1, m + 1) if line[n - l] >= m + 1}
    )
    # condition 3: more columns in a window [r, s] than its free positions
    cond3 = 0
    for r in range(1, p + 1):
        # positions a in [r, s] with m+r <= line[a-1] <= m+s.  Widening the
        # window to s can add position s only: line[a-1] <= a+m for a
        # restricted permutation, so no earlier position had a value above
        # the old bound m+s-1.
        held = 0
        for s in range(r, p + 1):
            if m + r <= line[s - 1] <= m + s:
                held += 1
            # with nothing held no minor has more columns than the window
            if held:
                cond3 |= _more_than(m, p, COLS, r, s, s + 1 - r - held)
    # condition 4: more rows in a window [r, s] than its free positions
    cond4 = 0
    for r in range(1, m + 1):
        # positions j in [n+1-s, n+1-r] with m+1-s <= line[j-1] <= m+1-r.
        # Widening the window to s can add position n+1-s only: line[j-1] >=
        # j-p for a restricted permutation, so no position already in the
        # window has the new lowest value m+1-s.
        held = 0
        for s in range(r, m + 1):
            if m + 1 - s <= line[n - s] <= m + 1 - r:
                held += 1
            if held:
                cond4 |= _more_than(m, p, ROWS, r, s, s + 1 - r - held)
    return cond1, cond2, cond3, cond4


def family_of_perm(w: RestrictedPermutation) -> MinorFamily:
    """All minors satisfying at least one of the four conditions."""
    cond1, cond2, cond3, cond4 = _condition_masks(w)
    return MinorFamily(w.m, w.p, cond1 | cond2 | cond3 | cond4)


# -- rank-condition oracle ---------------------------------------------------


def _ones_in(block, rows: range, cols: range) -> int:
    return sum(block[i - 1][a - 1] for i in rows for a in cols)


def closure_rank_conditions_hold(w: RestrictedPermutation, x: linalg.Matrix) -> bool:
    """Do all four families of rank inequalities hold for the matrix x?

    The right-hand bounds come from the blocks of the permutation matrix;
    block slices are partial permutation matrices, so their rank is their
    number of ones.
    """
    m, p = w.m, w.p
    mm, pp = linalg.dims(x)
    if (mm, pp) != (m, p):
        raise ValueError(f"matrix is {mm}x{pp}, expected {m}x{p}")
    blocks = block_decompose(w, m, p)
    rev_rows_11 = tuple(blocks.w11[m - i] for i in range(1, m + 1))  # flip rows
    w22t = tuple(tuple(blocks.w22[a - 1][i - 1] for a in range(1, p + 1)) for i in range(1, m + 1))
    rev_rows_22t = tuple(w22t[m - i] for i in range(1, m + 1))
    flip12 = tuple(
        tuple(blocks.w12[m - i][m - j] for j in range(1, m + 1)) for i in range(1, m + 1)
    )

    def xrank(rows: range, cols: range) -> int:
        sub = linalg.submatrix(x, [i - 1 for i in rows], [a - 1 for a in cols])
        return linalg.rank_exact(sub)

    for r in range(1, m + 1):
        for s in range(1, p + 1):
            if xrank(range(r, m + 1), range(1, s + 1)) > _ones_in(
                rev_rows_11, range(r, m + 1), range(1, s + 1)
            ):
                return False
            if xrank(range(1, r + 1), range(s, p + 1)) > _ones_in(
                rev_rows_22t, range(1, r + 1), range(s, p + 1)
            ):
                return False
    for r in range(1, p + 1):
        for s in range(r, p + 1):
            bound = s + 1 - r - _ones_in(blocks.w21, range(r, p + 1), range(r, s + 1))
            if xrank(range(1, m + 1), range(r, s + 1)) > bound:
                return False
    for r in range(1, m + 1):
        for s in range(r, m + 1):
            bound = s + 1 - r - _ones_in(flip12, range(r, s + 1), range(1, s + 1))
            if xrank(range(r, s + 1), range(1, p + 1)) > bound:
                return False
    return True
