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
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from itertools import combinations
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


def _all_minors(mat: Sequence[Sequence], zero) -> dict[MinorId, object]:
    """Determinants of every nonempty square submatrix, keyed by MinorId.

    The table is filled in canonical order, size by size, so each
    first-row Laplace expansion reuses the size-(k-1) entries already
    present.  A zero entry or a zero sub-minor contributes no term; `zero`
    is the entries' zero.
    """
    m, p = len(mat), len(mat[0])
    out: dict = {}
    for i in range(1, m + 1):
        row = mat[i - 1]
        for a in range(1, p + 1):
            out[MinorId((i,), (a,))] = row[a - 1]
    for k in range(2, min(m, p) + 1):
        for rows in combinations(range(1, m + 1), k):
            rest = rows[1:]
            row0 = mat[rows[0] - 1]
            for cols in combinations(range(1, p + 1), k):
                acc = zero
                for t in range(k):
                    x = row0[cols[t] - 1]
                    if x:
                        sub = out[(rest, cols[:t] + cols[t + 1:])]
                        if sub:
                            acc = acc - x * sub if t % 2 else acc + x * sub
                out[MinorId(rows, cols)] = acc
    return out
