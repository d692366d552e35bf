"""Exact rational matrices: fraction-free determinants, all-minors tables, rank.

Matrices are immutable tuples of row tuples.  `submatrix` selects rows and
columns by 0-based index; the all-minors table is keyed by 1-based
:class:`MinorId`, the package's one name for a minor, in canonical order
(by size, then rows, then columns).  `as_matrix` also freezes matrices of
:class:`~tnncells.laurent.LaurentPoly` entries, which restoration and the
Poisson checks use, but minors, determinants and ranks are defined for
rational (int/Fraction) matrices only and refuse a matrix with any
Laurent entry with `TypeError`.  One Bareiss kernel (`_bareiss`, rank and
determinant from one elimination) and one Laplace all-minors kernel run
on plain integer rows: a rational matrix enters them after clearing
denominators row by row (`_scaled_int_rows`, which also holds the guard).
A row of plain ints, such as the restored 0/1 point of
`cells.family_of_diagram`, skips that pass and enters as it is.

The all-minors kernel runs a Laplace plan built once per grid shape and
cached (bounded): the canonical ids, each row set's first row and the
block of its other rows, and per minor size one shared list of first-row
terms as positions in that block, so no key is built per term.  The plan
also keeps each size's stretch of the canonical order (its first position,
row sets and column sets), from which `minors` builds family masks.
The kernel returns a plain list of values in that canonical order.
`all_minors` divides it back to exact Fractions; questions of sign and
zero are read from the integer values themselves, in :mod:`tnncells.minors`.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from itertools import chain, combinations
from typing import NamedTuple, Sequence

from .laurent import LaurentPoly

Matrix = tuple[tuple, ...]


class MinorId(NamedTuple):
    """The minor [I|L]: 1-based strictly increasing rows I and columns L."""

    rows: tuple[int, ...]
    cols: tuple[int, ...]

    def text(self) -> str:
        return "[{}|{}]".format(
            ",".join(map(str, self.rows)), ",".join(map(str, self.cols))
        )

    def __str__(self) -> str:
        return self.text()


def as_matrix(rows: Sequence[Sequence]) -> Matrix:
    """Validate and freeze a rectangular matrix, coercing scalar entries.

    Fraction entries are kept as they are and other scalars become
    Fraction; if any entry is a LaurentPoly, every scalar entry is lifted
    into its registry.
    """
    data = [list(r) for r in rows]
    if not data or not data[0]:
        raise ValueError("matrix must have at least one row and one column")
    width = len(data[0])
    if any(len(r) != width for r in data):
        raise ValueError("ragged rows")
    registry = next(
        (x.registry for r in data for x in r if isinstance(x, LaurentPoly)), None
    )
    if registry is None:
        return tuple([tuple([x if type(x) is Fraction else Fraction(x) for x in r]) for r in data])
    return tuple(
        [tuple([x if isinstance(x, LaurentPoly) else registry.const(x) for x in r]) for r in data]
    )


def dims(M: Matrix) -> tuple[int, int]:
    return len(M), len(M[0])


def mat_mul(A: Matrix, B: Matrix) -> Matrix:
    ra, ca = dims(A)
    rb, cb = dims(B)
    if ca != rb:
        raise ValueError(f"cannot multiply {ra}x{ca} by {rb}x{cb}")
    return tuple(
        tuple(sum(A[i][k] * B[k][j] for k in range(ca)) for j in range(cb))
        for i in range(ra)
    )


def is_symbolic(M: Matrix) -> bool:
    return isinstance(M[0][0], LaurentPoly)


def submatrix(M: Matrix, rows: Sequence[int], cols: Sequence[int]) -> Matrix:
    """0-based row/column selection."""
    return tuple(tuple(M[i][j] for j in cols) for i in rows)


def _scaled_int_rows(M: Matrix) -> tuple[list[Sequence[int]], list[int]]:
    """Clear denominators row by row; returns (int rows, positive scales).

    A row of plain ints is returned as it is, with scale 1.  Every minor,
    determinant and rank reader enters the integer kernels here, so this
    is where a matrix with any Laurent entry is refused: it has no
    `denominator`.
    """
    ints, scales = [], []
    try:
        for row in M:
            if all(map(int.__instancecheck__, row)):
                ints.append(row)
                scales.append(1)
                continue
            scale = math.lcm(*[x.denominator for x in row])
            ints.append([x.numerator * (scale // x.denominator) for x in row])
            scales.append(scale)
    except AttributeError:
        raise TypeError(
            "minors, determinants and ranks are defined for rational matrices only"
        ) from None
    return ints, scales


def det_exact(M: Matrix) -> Fraction:
    """Exact determinant of a square rational matrix."""
    n, w = dims(M)
    if n != w:
        raise ValueError(f"matrix is {n}x{w}, not square")
    ints, scales = _scaled_int_rows(M)
    return Fraction(_bareiss(ints)[1], math.prod(scales))


def all_minors(M: Matrix) -> dict[MinorId, Fraction]:
    """Every nonempty minor's exact value, keyed by MinorId in canonical order."""
    ints, scales = _scaled_int_rows(M)
    return {
        mid: Fraction(d, math.prod(scales[i - 1] for i in mid.rows))
        for mid, d in zip(_laplace_plan(*dims(M)).ids, _all_minors(ints))
    }


def rank_exact(M: Matrix) -> int:
    """Rank of a rational matrix by fraction-free elimination."""
    return _bareiss(_scaled_int_rows(M)[0])[0]


def _bareiss(rows: Sequence[Sequence[int]]) -> tuple[int, int]:
    """(rank, determinant) of an integer matrix by fraction-free elimination.

    Full pivoting: each step takes the first nonzero entry of the trailing
    submatrix, in row-major order, and swaps it into place, flipping the
    sign once per row swap and once per column swap.  Every Bareiss
    quotient is an integer, so every floor division is exact.  The
    determinant is 0 unless the matrix is square and of full rank; the
    empty determinant is 1.

    The row-swap sign never reaches a returned determinant.  The search is
    row-major, so a row swap happens only when the whole leading row of the
    trailing submatrix is zero; that submatrix is then singular, and so is
    a square matrix, whose determinant is returned as 0.  The flip stays:
    it keeps `sign * prev` the determinant under any pivot search, such as
    a column-major one, that can swap rows of a nonsingular matrix.
    """
    a = [list(r) for r in rows]
    m = len(a)
    n = len(a[0]) if a else 0
    rank = 0
    sign = 1
    prev = 1
    while rank < m and rank < n:
        pr = pc = -1
        for i in range(rank, m):
            for j in range(rank, n):
                if a[i][j]:
                    pr, pc = i, j
                    break
            if pr >= 0:
                break
        if pr < 0:
            break
        if pr != rank:
            a[rank], a[pr] = a[pr], a[rank]
            sign = -sign
        if pc != rank:
            for row in a:
                row[rank], row[pc] = row[pc], row[rank]
            sign = -sign
        rk = a[rank]
        pivot = rk[rank]
        for i in range(rank + 1, m):
            ri = a[i]
            air = ri[rank]
            for j in range(rank + 1, n):
                ri[j] = (pivot * ri[j] - air * rk[j]) // prev
        prev = pivot
        rank += 1
    det = sign * prev if rank == m == n else 0
    return rank, det


class _LaplacePlan(NamedTuple):
    """The all-minors layout of one grid shape; see `_laplace_plan`."""

    ids: tuple[MinorId, ...]
    expansions: tuple
    sizes: tuple[tuple[int, tuple, tuple], ...]


@lru_cache(maxsize=64)
def _laplace_plan(m: int, p: int) -> _LaplacePlan:
    """The all-minors expansion of an m x p grid, shared by every matrix of
    that shape.

    Values live in blocks, one per row set in canonical order; a block
    lists the minors of its row set by columns, and the blocks of the
    single rows are the matrix rows.  The first-row Laplace terms of a
    size-k minor depend only on its columns, so each size has one shared
    tuple over column sets of terms (column, position of the complementary
    columns in the block below, negate).  Holds the MinorIds in canonical
    order (`ids`); for every row set of size >= 2, (first row, index of the
    block of the other rows, terms of its size), all 0-based
    (`expansions`); and per size k = 1, 2, ..., (position in `ids` of its
    first minor, its row sets, its column sets) (`sizes`).
    """
    row_sets = tuple((i,) for i in range(1, m + 1))
    col_sets = tuple((a,) for a in range(1, p + 1))
    ids = [MinorId(rows, cols) for rows in row_sets for cols in col_sets]
    sizes = [(0, row_sets, col_sets)]
    block_of = {rows: n for n, rows in enumerate(row_sets)}
    position = {cols: n for n, cols in enumerate(col_sets)}
    expansions = []
    for k in range(2, min(m, p) + 1):
        row_sets = tuple(combinations(range(1, m + 1), k))
        col_sets = tuple(combinations(range(1, p + 1), k))
        sizes.append((len(ids), row_sets, col_sets))
        terms = tuple(
            tuple(
                (cols[t] - 1, position[cols[:t] + cols[t + 1:]], t % 2 == 1)
                for t in range(k)
            )
            for cols in col_sets
        )
        for rows in row_sets:
            expansions.append((rows[0] - 1, block_of[rows[1:]], terms))
            block_of[rows] = len(block_of)
            ids.extend(MinorId(rows, cols) for cols in col_sets)
        position = {cols: n for n, cols in enumerate(col_sets)}
    return _LaplacePlan(tuple(ids), tuple(expansions), tuple(sizes))


def _all_minors(mat: Sequence[Sequence[int]]) -> list[int]:
    """Determinants of every nonempty square submatrix of an integer
    matrix, in the canonical order of the shape's plan ids.

    Runs the shape's cached Laplace plan: blocks are filled in canonical
    order, size by size, so each first-row expansion reads size-(k-1)
    values already present.  A zero entry or a zero sub-minor contributes
    no term.
    """
    plan = _laplace_plan(len(mat), len(mat[0]))
    blocks = list(mat)
    for r, b, terms in plan.expansions:
        row, below = mat[r], blocks[b]
        block = []
        for col_terms in terms:
            acc = 0
            for c, s, negate in col_terms:
                x = row[c]
                if x:
                    sub = below[s]
                    if sub:
                        acc = acc - x * sub if negate else acc + x * sub
            block.append(acc)
        blocks.append(block)
    return list(chain.from_iterable(blocks))
