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
column-set blocks and kept in bounded caches.  Each condition's mask is
memoised, in a bounded cache too, on what it reads: conditions 1 and 2
on their pool of (index, image) pairs, conditions 3 and 4 on their
pattern of holds (see `_stripes`).  The 1,066 permutations of (3,4) read
73 distinct pools for condition 1, 73 for condition 2, 51 hold patterns
for condition 3 and 15 for condition 4.  So one `match_suite(3, 4)`
runs the dominance search 146 times, where it ran 2,132, and the window
loops 66 times, where they ran 2,132; it asks the per-shape caches 576
times each for `_at_least` and `_at_most` (8,850 before) and 361 times
for `_more_than` (7,580 before).

`bruhat_cell_vanishes` is the per-minor form of the dominance test on a
partial permutation: one search over the witnesses, where the minus sign
is the plus search on the transposes.  The `verify bruhat-cell` suite
checks it against the masks of `_undominated`, the code behind
conditions 1 and 2, on both signs.  `closure_rank_conditions_hold`
realizes the vanishing data through rank inequalities on regions of the
matrix, an independent oracle for the tests; each region's bound is a
count read straight off the one-line notation of w.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from functools import lru_cache
from itertools import combinations, permutations
from operator import le
from typing import Iterable, Sequence

from . import linalg
from ._value import _Value
from .combinat import RestrictedPermutation, index_set_leq
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


@lru_cache(maxsize=4096)
def _undominated(m: int, p: int, axis: int, pool: tuple[tuple[int, int], ...]) -> int:
    """The minors that no witness dominates.  The pool lists pairs (x, y),
    an index x on `axis` and its image y on the other axis.  A witness is
    a nonempty subset of the pool; with L its x's and its sorted y's as
    the image, it dominates the minors whose index set on `axis` is >= L
    and whose other index set is <= the image, both componentwise.

    The x's must ascend: L is drawn with `combinations` over the pool and
    compared as it comes, unsorted.  A pool in any other order gives a
    wrong mask with no error.  The mask depends on the pool alone, so it
    is memoised on the pool as given."""
    other = COLS - axis
    dominated = 0
    for k in range(1, len(pool) + 1):
        for L in combinations(pool, k):
            keys, image = zip(*L)
            dominated |= _at_least(m, p, axis, keys) & _at_most(
                m, p, other, tuple(sorted(image))
            )
    return ((1 << _minor_count(m, p)) - 1) & ~dominated


@lru_cache(maxsize=4096)
def _stripes(m: int, p: int, axis: int, holds: tuple[int, ...]) -> int:
    """The minors with more indices on `axis` in some window [r, s] than
    the window's free positions: s + 1 - r less the positions it holds.

    Window [r, s] holds position a of [r, s] exactly when
    r <= holds[a-1], so a 0 is held by no window; `_condition_masks`
    derives this form for conditions 3 and 4.  The mask depends on the
    holds alone, so it is memoised on them."""
    mask = 0
    for r in range(1, len(holds) + 1):
        held = 0
        for s in range(r, len(holds) + 1):
            if holds[s - 1] >= r:
                held += 1
            # with nothing held no minor has more indices than the window
            if held:
                mask |= _more_than(m, p, axis, r, s, s + 1 - r - held)
    return mask


def _condition_masks(w: RestrictedPermutation) -> tuple[int, int, int, int]:
    """The masks of the minors meeting each of the four conditions, in the
    grid's canonical minor order."""
    m, p, n, line = w.m, w.p, w.n, w.w
    # condition 1: columns a of the left block whose image stays in the top
    # rows, mapped to the row m+1-w(a)
    cond1 = _undominated(
        m, p, COLS, tuple((a, m + 1 - line[a - 1]) for a in range(1, p + 1) if line[a - 1] <= m)
    )
    # condition 2: reversed positions l whose image lands in the bottom
    # rows, mapped to that image less m, a column
    cond2 = _undominated(
        m, p, ROWS, tuple((l, line[n - l] - m) for l in range(1, m + 1) if line[n - l] >= m + 1)
    )
    # condition 3: more columns in a window [r, s] than its free positions.
    # It holds position a of [r, s] when m+r <= w(a) <= m+s, and w(a) <= m+a
    # for a restricted permutation, so when r <= w(a)-m: clipped at 0, one
    # pattern of holds is one key
    cond3 = _stripes(m, p, COLS, tuple(max(line[a - 1] - m, 0) for a in range(1, p + 1)))
    # condition 4, the mirror image on rows: it holds reversed position l of
    # [r, s] when m+1-s <= w(n+1-l) <= m+1-r, and w(n+1-l) >= m+1-l
    cond4 = _stripes(m, p, ROWS, tuple(max(m + 1 - line[n - l], 0) for l in range(1, m + 1)))
    return cond1, cond2, cond3, cond4


def family_of_perm(w: RestrictedPermutation) -> MinorFamily:
    """All minors satisfying at least one of the four conditions."""
    cond1, cond2, cond3, cond4 = _condition_masks(w)
    return MinorFamily(w.m, w.p, cond1 | cond2 | cond3 | cond4)


# -- rank-condition oracle ---------------------------------------------------


def closure_rank_conditions_hold(w: RestrictedPermutation, x: linalg.Matrix) -> bool:
    """Do all four families of rank inequalities hold for the matrix x?

    Each region of x, a set of rows by a set of columns (1-based), has its
    rank bounded by a count read off the one-line notation of w, n = m+p:

    - lower-left corner, rows [r, m] x cols [1, s]:
      #{a <= s : w(a) <= m+1-r};
    - upper-right corner, rows [1, r] x cols [s, p]:
      #{i <= r : w(n+1-i) >= m+s};
    - column window, all rows x cols [r, s]:
      (s+1-r) - #{a in [r, s] : w(a) >= m+r};
    - row window, rows [r, s] x all cols:
      (s+1-r) - #{j <= s : m+1-s <= w(n+1-j) <= m+1-r}.

    Some regions recur across the families (a corner can also be a
    window); each distinct region is ranked once, against the smallest of
    its bounds.
    """
    m, p, n, line = w.m, w.p, w.n, w.w
    mm, pp = linalg.dims(x)
    if (mm, pp) != (m, p):
        raise ValueError(f"matrix is {mm}x{pp}, expected {m}x{p}")
    regions = []
    for r in range(1, m + 1):
        for s in range(1, p + 1):
            lower = sum(line[a - 1] <= m + 1 - r for a in range(1, s + 1))
            upper = sum(line[n - i] >= m + s for i in range(1, r + 1))
            regions.append((range(r, m + 1), range(1, s + 1), lower))
            regions.append((range(1, r + 1), range(s, p + 1), upper))
    for r in range(1, p + 1):
        for s in range(r, p + 1):
            held = sum(line[a - 1] >= m + r for a in range(r, s + 1))
            regions.append((range(1, m + 1), range(r, s + 1), s + 1 - r - held))
    for r in range(1, m + 1):
        for s in range(r, m + 1):
            held = sum(m + 1 - s <= line[n - j] <= m + 1 - r for j in range(1, s + 1))
            regions.append((range(r, s + 1), range(1, p + 1), s + 1 - r - held))
    bounds: dict[tuple[range, range], int] = {}
    for rows, cols, bound in regions:
        bounds[rows, cols] = min(bound, bounds.get((rows, cols), bound))
    return all(
        linalg.rank_exact(linalg.submatrix(x, [i - 1 for i in rows], [a - 1 for a in cols]))
        <= bound
        for (rows, cols), bound in bounds.items()
    )
