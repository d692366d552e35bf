"""Vanishing families attached to restricted permutations.

`family_of_perm` evaluates four combinatorial conditions per minor; a
minor belongs to the family when at least one holds.  Conditions 1 and 2
quantify over index sets carried through the permutation's blocks: per
minor size k, the permutation's witness list holds every k-subset L of
its pool with the sorted image of L, built once, so a minor [I|J] fails
condition 1 exactly when some witness has L <= J and I <= image
componentwise (condition 2 likewise with rows and columns exchanged).
Conditions 3 and 4 are interval-counting ("stripe") conditions that
depend only on the column set, respectively the row set.

`bruhat_cell_vanishes` and `closure_rank_conditions_hold` realize the
same vanishing data through partial permutations and rank inequalities;
they exist as independent cross-checking oracles for the test suites.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import combinations
from operator import le
from typing import Iterable, Sequence

from . import linalg
from .combinat import (
    RestrictedPermutation,
    block_decompose,
    index_set_leq,
)
from .minors import MinorFamily, MinorId


@dataclass(frozen=True)
class PartialPermutation:
    """A partial injection from columns to rows, as sorted (col, row) pairs."""

    size_rows: int
    size_cols: int
    assignment: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        cols = [c for c, _ in self.assignment]
        rows = [r for _, r in self.assignment]
        if cols != sorted(set(cols)):
            raise ValueError("assignment must be sorted by column, no duplicates")
        if len(set(rows)) != len(rows):
            raise ValueError("not injective")
        for c, r in self.assignment:
            if not (1 <= c <= self.size_cols and 1 <= r <= self.size_rows):
                raise ValueError(f"pair {(c, r)} out of range")

    @property
    def rank(self) -> int:
        return len(self.assignment)

    def domain(self) -> tuple[int, ...]:
        return tuple(c for c, _ in self.assignment)

    def image(self) -> tuple[int, ...]:
        return tuple(sorted(r for _, r in self.assignment))

    def apply(self, col: int) -> int | None:
        for c, r in self.assignment:
            if c == col:
                return r
        return None

    def preimage(self, row: int) -> int | None:
        for c, r in self.assignment:
            if r == row:
                return c
        return None

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


def _witnesses(
    pool: Sequence[int], k: int, image
) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """(L, sorted image of L) for every size-k subset L of the ascending pool."""
    return [(L, tuple(sorted(map(image, L)))) for L in combinations(pool, k)]


def _bounded_subsets(
    pool: Sequence[int], k: int, bound: Sequence[int]
) -> Iterable[tuple[int, ...]]:
    """Size-k subsets L of pool (ascending) with L <= bound componentwise."""
    for L in combinations(sorted(pool), k):
        if all(l <= b for l, b in zip(L, bound)):
            yield L


def bruhat_cell_vanishes(
    w: PartialPermutation, mid: MinorId, sign: str = "plus", *, via_inverse: bool = False
) -> bool:
    """Does the minor vanish identically on the (signed) triangular sweep
    of the partial permutation matrix?

    plus: no L inside the domain with L <= cols maps onto a row set
    dominating rows.  minus: the mirrored condition with rows and the
    inverse map.  `via_inverse` evaluates the plus condition through the
    inverse assignment instead; both formulations must always agree.
    """
    rows, cols = mid.rows, mid.cols
    k = len(rows)
    if sign == "plus":
        if via_inverse:
            for L2 in combinations(w.image(), k):
                if all(x >= y for x, y in zip(L2, rows)):
                    pre = sorted(w.preimage(r) for r in L2)
                    if index_set_leq(pre, cols):
                        return False
            return True
        for L in _bounded_subsets(w.domain(), k, cols):
            img = sorted(w.apply(c) for c in L)
            if index_set_leq(rows, img):
                return False
        return True
    if sign == "minus":
        if via_inverse:
            raise ValueError("via_inverse is defined for the plus form only")
        for L in _bounded_subsets(w.image(), k, rows):
            pre = sorted(w.preimage(r) for r in L)
            if index_set_leq(cols, pre):
                return False
        return True
    raise ValueError(f"sign must be 'plus' or 'minus', got {sign!r}")


# -- the four membership conditions ----------------------------------------


class _PermContext:
    """Pools, images and witness lists shared by all minors of one
    permutation."""

    def __init__(self, w: RestrictedPermutation):
        self.m, self.p = w.m, w.p
        self.n = w.n
        line = w.w
        m, p, n = self.m, self.p, self.n
        # columns a of the left block whose image stays in the top rows
        pool_rows = tuple(a for a in range(1, p + 1) if line[a - 1] <= m)
        # reversed positions l whose image lands in the bottom rows
        pool_cols = tuple(l for l in range(1, m + 1) if line[n - l] >= m + 1)
        sizes = range(min(m, p) + 1)
        self.witnesses_rows = [
            _witnesses(pool_rows, k, lambda a: m + 1 - line[a - 1]) for k in sizes
        ]
        # images less m, so that condition 2 compares them with columns
        self.witnesses_cols = [
            _witnesses(pool_cols, k, lambda l: line[n - l] - m) for k in sizes
        ]
        self.line = line

    def cond1(self, rows, cols) -> bool:
        for L, img in self.witnesses_rows[len(rows)]:
            if all(map(le, L, cols)) and all(map(le, rows, img)):
                return False
        return True

    def cond2(self, rows, cols) -> bool:
        for L, img in self.witnesses_cols[len(cols)]:
            if all(map(le, L, rows)) and all(map(le, cols, img)):
                return False
        return True

    def cond3(self, cols) -> bool:
        m, p, line = self.m, self.p, self.line
        for r in range(1, p + 1):
            inside = 0
            # positions a in [r, s] with m+r <= line[a-1] <= m+s.  Widening
            # the window to s can add position s only: line[a-1] <= a+m for a
            # restricted permutation, so no earlier position had a value
            # above the old bound m+s-1.
            held = 0
            for s in range(r, p + 1):
                if s in cols:
                    inside += 1
                if m + r <= line[s - 1] <= m + s:
                    held += 1
                if inside > s + 1 - r - held:
                    return True
        return False

    def cond4(self, rows) -> bool:
        m, n, line = self.m, self.n, self.line
        for r in range(1, m + 1):
            inside = 0
            # positions j in [n+1-s, n+1-r] with m+1-s <= line[j-1] <= m+1-r.
            # Widening the window to s can add position n+1-s only:
            # line[j-1] >= j-p for a restricted permutation, so no position
            # already in the window has the new lowest value m+1-s.
            held = 0
            for s in range(r, m + 1):
                if s in rows:
                    inside += 1
                if m + 1 - s <= line[n - s] <= m + 1 - r:
                    held += 1
                if inside > s + 1 - r - held:
                    return True
        return False


def family_of_perm(w: RestrictedPermutation) -> MinorFamily:
    """All minors satisfying at least one of the four conditions.

    Conditions 3 and 4 see only the column set, respectively the row set,
    so each is evaluated once per set and reused by every minor sharing it.
    """
    ctx = _PermContext(w)
    cond1, cond2 = ctx.cond1, ctx.cond2
    cond3 = cache(ctx.cond3)
    cond4 = cache(ctx.cond4)
    members = []
    for mid in linalg._laplace_plan(w.m, w.p)[0]:
        rows, cols = mid
        if cond3(cols) or cond4(rows) or cond1(rows, cols) or cond2(rows, cols):
            members.append(mid)
    return MinorFamily.of(w.m, w.p, members)


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
