"""Exact matrices: fraction-free determinants, all-minors tables, rank.

Matrices are immutable tuples of row tuples.  `submatrix` selects rows and
columns by 0-based index; the all-minors table is keyed by 1-based
:class:`MinorId`, the package's one name for a minor, in canonical order
(by size, then rows, then columns).  Entries are either all
rational (int/Fraction) or all :class:`~tnncells.laurent.LaurentPoly`
over one registry.  Both are integral domains, so one Bareiss kernel and
one Laplace all-minors kernel serve both: rational matrices enter them as
integer rows after clearing denominators row by row, and Laurent matrices
enter as they are, with exact Laurent division for the Bareiss quotients.

The all-minors kernel runs a Laplace plan built once per grid shape and
cached (bounded): the canonical ids, each row set's first row and the
block of its other rows, and per minor size one shared list of first-row
terms as positions in that block, so no key is built per term.  `all_minors`
divides the integer table back to exact Fractions; sign-and-zero readers
(`cells.is_tnn`, `minors.vanishing_family` on rational input, the
h-invariance check and the tnn round trip) use the integer table from
`_scaled_minors` directly, since scaling a row by a positive integer keeps
every minor's sign and zero-ness.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from functools import lru_cache
from itertools import chain, combinations
from typing import NamedTuple, Sequence

from .laurent import LaurentPoly, laurent_div_exact

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

    int entries become Fraction; if any entry is a LaurentPoly, every
    scalar entry is lifted into its registry.
    """
    data = [list(r) for r in rows]
    if not data or not data[0]:
        raise ValueError("matrix must have at least one row and one column")
    width = len(data[0])
    if any(len(r) != width for r in data):
        raise ValueError("ragged rows")
    registry = None
    for r in data:
        for x in r:
            if isinstance(x, LaurentPoly):
                registry = x.registry
                break
        if registry is not None:
            break
    out = []
    for r in data:
        row = []
        for x in r:
            if isinstance(x, LaurentPoly):
                row.append(x)
            elif registry is not None:
                row.append(registry.const(x))
            else:
                row.append(Fraction(x))
        out.append(tuple(row))
    return tuple(out)


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


def _scaled_int_rows(M: Matrix) -> tuple[list[list[int]], list[int]]:
    """Clear denominators row by row; returns (int rows, positive scales)."""
    ints, scales = [], []
    for row in M:
        scale = 1
        for x in row:
            scale = scale * x.denominator // math.gcd(scale, x.denominator)
        ints.append([int(x.numerator * (scale // x.denominator)) for x in row])
        scales.append(scale)
    return ints, scales


def det_exact(M: Matrix):
    """Exact determinant of a square matrix over either entry domain."""
    n, w = dims(M)
    if n != w:
        raise ValueError(f"matrix is {n}x{w}, not square")
    if is_symbolic(M):
        return _det_bareiss(M, M[0][0].registry.zero(), laurent_div_exact)
    ints, scales = _scaled_int_rows(M)
    return Fraction(_det_bareiss(ints, 0, operator.floordiv), math.prod(scales))


def all_minors(M: Matrix) -> dict[MinorId, object]:
    """Every nonempty minor's exact value, keyed by MinorId in canonical order."""
    if is_symbolic(M):
        return _all_minors(M, M[0][0].registry.zero())
    ints, scales = _scaled_int_rows(M)
    return {
        mid: Fraction(d, math.prod(scales[i - 1] for i in mid.rows))
        for mid, d in _all_minors(ints, 0).items()
    }


def _scaled_minors(M: Matrix) -> dict[MinorId, object]:
    """Every nonempty minor up to a positive factor, keyed like `all_minors`.

    A rational matrix enters as its denominator-cleared integer rows, so
    each value is the minor times a positive integer: its sign and whether
    it is zero are exact, its size is not.  A Laurent matrix enters as it
    is (factor 1).  This is the table for sign-and-zero questions.
    """
    if is_symbolic(M):
        return _all_minors(M, M[0][0].registry.zero())
    return _all_minors(_scaled_int_rows(M)[0], 0)


def rank_exact(M: Matrix) -> int:
    """Rank of a rational matrix by fraction-free elimination."""
    if is_symbolic(M):
        raise TypeError("rank_exact is defined for rational matrices only")
    ints, _ = _scaled_int_rows(M)
    return _rank_int(ints)


def _rank_int(rows: list[list[int]]) -> int:
    a = [list(r) for r in rows]
    m = len(a)
    n = len(a[0])
    rank = 0
    prev = 1
    while rank < m and rank < n:
        # full pivot search in the trailing submatrix
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
        if pc != rank:
            for row in a:
                row[rank], row[pc] = row[pc], row[rank]
        pivot = a[rank][rank]
        for i in range(rank + 1, m):
            air = a[i][rank]
            for j in range(rank + 1, n):
                a[i][j] = (pivot * a[i][j] - air * a[rank][j]) // prev
            a[i][rank] = 0
        prev = pivot
        rank += 1
    return rank


def _det_bareiss(rows: Sequence[Sequence], zero, div):
    """Determinant of a square matrix by fraction-free elimination.

    `zero` is the zero of the entries' integral domain and `div` its exact
    division.  Row swaps supply pivots; every Bareiss quotient exists in an
    integral domain, so every division is exact.
    """
    a = [list(r) for r in rows]
    n = len(a)
    if n == 0:
        return zero + 1
    sign = 1
    prev = None
    for k in range(n - 1):
        if not a[k][k]:
            for r in range(k + 1, n):
                if a[r][k]:
                    a[k], a[r] = a[r], a[k]
                    sign = -sign
                    break
            else:
                return zero
        rk = a[k]
        pivot = rk[k]
        for i in range(k + 1, n):
            ri = a[i]
            aik = ri[k]
            for j in range(k + 1, n):
                num = pivot * ri[j] - aik * rk[j]
                ri[j] = num if prev is None else div(num, prev)
        prev = pivot
    d = a[n - 1][n - 1]
    return -d if sign < 0 else d


@lru_cache(maxsize=64)
def _laplace_plan(m: int, p: int) -> tuple[tuple[MinorId, ...], tuple]:
    """The all-minors expansion of an m x p grid, shared by every matrix of
    that shape.

    Values live in blocks, one per row set in canonical order; a block
    lists the minors of its row set by columns, and the blocks of the
    single rows are the matrix rows.  The first-row Laplace terms of a
    size-k minor depend only on its columns, so each size has one shared
    tuple over column sets of terms (column, position of the complementary
    columns in the block below, negate).  Returns the MinorIds in canonical
    order and, for every row set of size >= 2, (first row, index of the
    block of the other rows, terms of its size), all 0-based.
    """
    ids = [MinorId((i,), (a,)) for i in range(1, m + 1) for a in range(1, p + 1)]
    block_of = {(i,): i - 1 for i in range(1, m + 1)}
    position = {(a,): a - 1 for a in range(1, p + 1)}
    expansions = []
    for k in range(2, min(m, p) + 1):
        col_sets = list(combinations(range(1, p + 1), k))
        terms = tuple(
            tuple(
                (cols[t] - 1, position[cols[:t] + cols[t + 1:]], t % 2 == 1)
                for t in range(k)
            )
            for cols in col_sets
        )
        for rows in combinations(range(1, m + 1), k):
            expansions.append((rows[0] - 1, block_of[rows[1:]], terms))
            block_of[rows] = len(block_of)
            ids.extend(MinorId(rows, cols) for cols in col_sets)
        position = {cols: n for n, cols in enumerate(col_sets)}
    return tuple(ids), tuple(expansions)


def _all_minors(mat: Sequence[Sequence], zero) -> dict[MinorId, object]:
    """Determinants of every nonempty square submatrix, keyed by MinorId.

    Runs the shape's cached Laplace plan: blocks are filled in canonical
    order, size by size, so each first-row expansion reads size-(k-1)
    values already present.  A zero entry or a zero sub-minor contributes
    no term; `zero` is the entries' zero.
    """
    ids, expansions = _laplace_plan(len(mat), len(mat[0]))
    blocks = list(mat)
    for r, b, terms in expansions:
        row, below = mat[r], blocks[b]
        block = []
        for col_terms in terms:
            acc = zero
            for c, s, negate in col_terms:
                x = row[c]
                if x:
                    sub = below[s]
                    if sub:
                        acc = acc - x * sub if negate else acc + x * sub
            block.append(acc)
        blocks.append(block)
    return dict(zip(ids, chain.from_iterable(blocks)))
