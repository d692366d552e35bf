"""Cauchon diagrams, restricted permutations, Bruhat and index-set orders.

Diagrams are m x p black/white grids in which every black cell has either
all cells strictly to its left black or all cells strictly above it
black; `_row_allowed` is that rule, a row at a time.  Restricted
permutations are the w in S_{m+p} with -p <= w(i) - i <= m; `_band_moves`
is that rule, a position at a time.  Each side has one walk, `_row_walk`
and `_band_walk`, run over lists of partial diagrams or permutations to
enumerate and over counts to count.  `perm_of_diagram` is the bijection
between the two: it reads a diagram's permutation off its pipe dream.

Bit (i-1)*p + (a-1) of `CauchonDiagram.mask` is set when cell (i, a) is
black.  Only this module knows that layout: other modules reach it through
`CauchonDiagram.fill` and `black_cells`, which read it, and `_black_mask`
(via `from_black`) and `_zero_mask`, which write it.
"""

from __future__ import annotations

from collections import defaultdict
from itertools import chain
from typing import Any, Callable, Iterable, Iterator

from ._value import _Ordered
from .errors import SizeCapError

# `_check_grid` and the CLI refuse grids with more cells than this.  Masks
# are unbounded ints, so the cap bounds work, not storage: the walks, the
# rejection sampler and the minors tables grow exponentially with the grid.
MAX_GRID_CELLS = 64


def _check_grid(m: int, p: int) -> None:
    if m < 1 or p < 1:
        raise ValueError("grid dimensions must be positive")
    if m * p > MAX_GRID_CELLS:
        raise SizeCapError(f"{m}x{p} grid exceeds the {MAX_GRID_CELLS}-cell cap")


def _row_allowed(row: int, above: int) -> bool:
    """The left-or-above rule for one row of a diagram.

    The row's black cells with every cell to their left black are its
    trailing run of set bits, ``row ^ (row + 1)`` (plus the first clear
    bit, which is white); `above` holds the columns black in every earlier
    row.  A black cell outside both breaks the rule.
    """
    return not row & ~((row ^ (row + 1)) | above)


def _mask_is_cauchon(m: int, p: int, mask: int) -> bool:
    """The left-or-above test on a row-major mask, a row at a time."""
    width = (1 << p) - 1
    above = width
    for shift in range(0, m * p, p):
        row = mask >> shift & width
        if not _row_allowed(row, above):
            return False
        above &= row
    return True


def _rows_under(p: int, above: int) -> list[int]:
    """The rows of width p that `_row_allowed` admits under `above`."""
    return [row for row in range(1 << p) if _row_allowed(row, above)]


def _black_mask(m: int, p: int, black: Iterable[tuple[int, int]]) -> int:
    """The row-major bitmask of a black-cell set, each cell checked on the grid."""
    _check_grid(m, p)
    mask = 0
    for i, a in black:
        if not (1 <= i <= m and 1 <= a <= p):
            raise ValueError(f"cell {(i, a)} outside the {m}x{p} grid")
        mask |= 1 << ((i - 1) * p + (a - 1))
    return mask


def _zero_mask(X: Iterable[Iterable]) -> int:
    """The row-major bitmask of the zero entries of a matrix: the inverse
    of `CauchonDiagram.fill` with a zero `black` and nonzero whites."""
    return sum(1 << k for k, x in enumerate(chain.from_iterable(X)) if not x)


class CauchonDiagram(_Ordered):
    """An m x p diagram as a row-major bitmask (set bit = black cell)."""

    __slots__ = ("m", "p", "mask")

    def __init__(self, m: int, p: int, mask: int) -> None:
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "mask", mask)
        _check_grid(m, p)
        if not 0 <= mask < (1 << (m * p)):
            raise ValueError("mask out of range for the grid")
        if not _mask_is_cauchon(m, p, mask):
            raise ValueError("black cells violate the left-or-above condition")

    @classmethod
    def from_black(
        cls, m: int, p: int, black: Iterable[tuple[int, int]]
    ) -> "CauchonDiagram":
        return cls(m, p, _black_mask(m, p, black))

    def fill(self, white: Callable[[int, int], Any], black: Any) -> tuple[tuple, ...]:
        """The m x p matrix, as a tuple of row tuples, with `black` at every
        black cell and ``white(i, a)`` at every white cell (1-based).
        `white` is called once per white cell, in row-major order."""
        p, full = self.p, (1 << self.p) - 1
        rows = []
        for i in range(1, self.m + 1):
            bits = self.mask >> (i - 1) * p & full
            rows.append(tuple([black if bits >> a & 1 else white(i, a + 1) for a in range(p)]))
        return tuple(rows)

    def black_cells(self) -> tuple[tuple[int, int], ...]:
        """Black cells in row-major order."""
        p, mask = self.p, self.mask
        return tuple((k // p + 1, k % p + 1) for k in range(self.m * p) if mask >> k & 1)

    def to_json_obj(self) -> dict:
        p, mask = self.p, self.mask
        black = [[k // p + 1, k % p + 1] for k in range(self.m * p) if mask >> k & 1]
        return {"m": self.m, "p": p, "black": black}

    @classmethod
    def from_json_obj(cls, obj: dict) -> "CauchonDiagram":
        """Read {"m": M, "p": P, "black": [[i, a], ...]}.  A missing field
        or a field of the wrong type raises ValueError naming it (a bool is
        not a size or an index)."""
        if not isinstance(obj, dict):
            raise ValueError(f"a diagram is a JSON object, got {type(obj).__name__}")
        for name in ("m", "p", "black"):
            if name not in obj:
                raise ValueError(f"a diagram needs the field {name!r}")
        m, p, black = obj["m"], obj["p"], obj["black"]
        for name, size in (("m", m), ("p", p)):
            if type(size) is not int:
                raise ValueError(f"grid size {name} must be an integer, got {size!r}")
        if not isinstance(black, list):
            raise ValueError(f"black must be a list of [row, column] pairs, got {black!r}")
        for cell in black:
            if not (
                isinstance(cell, list)
                and len(cell) == 2
                and all(type(x) is int for x in cell)
            ):
                raise ValueError(f"black cell {cell!r} is not a pair of integers")
        return cls.from_black(m, p, [tuple(c) for c in black])


def _row_walk(m: int, p: int, start, extend) -> Iterable:
    """The row walk, a row at a time; returns its last states' values.

    Which rows may come next depends only on `above`, the columns black in
    every row so far, so the walk keeps one value per `above`, `start` at
    first.  Each row `_rows_under` admits adds ``extend(value, row <<
    shift)`` to its next state's value with ``+=``: lists grow, counts add.
    """
    values = {(1 << p) - 1: start}
    for shift in range(0, m * p, p):
        grown = defaultdict(type(start))
        for above, value in values.items():
            for row in _rows_under(p, above):
                grown[above & row] += extend(value, row << shift)
        values = grown
    return values.values()


def enumerate_diagrams(m: int, p: int) -> Iterator[CauchonDiagram]:
    """All m x p diagrams, ascending by row-major bitmask: the row walk over
    lists of partial masks, which meets only diagrams, B(m, p) at the end,
    not the 2^(mp) masks.  Each is yielded without the constructor's
    checks, which it passes by construction."""
    _check_grid(m, p)
    masks = sorted(chain.from_iterable(
        _row_walk(m, p, [0], lambda masks, bits: [mask | bits for mask in masks])
    ))
    for mask in masks:
        yield CauchonDiagram._unchecked(m, p, mask)


def count_diagrams(m: int, p: int) -> int:
    """The number of m x p diagrams, the poly-Bernoulli number B(m, p).

    The row walk over counts.  The left-or-above rule maps to itself under
    transpose, so the walk runs over the shorter side: at most 8 columns,
    hence 256 states, on any grid under the cell cap.
    """
    _check_grid(m, p)
    return sum(_row_walk(max(m, p), min(m, p), 1, lambda count, bits: count))


def _band_moves(used: int, last: int) -> Iterable[int]:
    """The band rule: the bits t whose value j-p+t position j may take.

    `used` has bit t set when value j-p+t is used (values below 1 count as
    used) and `last` is the bit of the largest value <= m+p, so the window
    is [j-p, j+m].  Value j-p can sit no later than position j, so while
    it is free it is the only choice; else any free bit in 1..`last` is."""
    if not used & 1:
        return (0,)
    free, moves = ~used & ((2 << last) - 2), []
    while free:
        moves.append((free & -free).bit_length() - 1)
        free &= free - 1
    return moves


def _band_walk(m: int, p: int, start, extend) -> Iterable:
    """The band walk, a position at a time; returns its last states' values.

    The walk keeps one value per `used` of `_band_moves` (p bits set, so
    at most C(m+p, p) states), `start` at first, and each step shifts the
    window right by one.  Placing value v adds ``extend(value, v)`` to the
    next state's value with ``+=``: lists grow, counts add.
    """
    n = m + p
    values = {(1 << p) - 1: start}
    for j in range(1, n + 1):
        low, last = j - p, min(n, j + m) - (j - p)
        grown = defaultdict(type(start))
        for used, value in values.items():
            for t in _band_moves(used, last):
                grown[(used | 1 << t) >> 1] += extend(value, low + t)
        values = grown
    return values.values()


def _count_restricted_perms(m: int, p: int) -> int:
    """The number of restricted permutations: the band walk over counts."""
    _check_grid(m, p)
    return sum(_band_walk(m, p, 1, lambda count, v: count))


def random_diagram(m: int, p: int, rng) -> CauchonDiagram:
    """Uniform random diagram by rejection sampling of bitmasks."""
    _check_grid(m, p)
    cells = m * p
    while True:
        mask = rng.getrandbits(cells)
        if _mask_is_cauchon(m, p, mask):
            return CauchonDiagram(m, p, mask)


class RestrictedPermutation(_Ordered):
    """w in S_{m+p} with -p <= w(i) - i <= m, in one-line notation."""

    __slots__ = ("m", "p", "w")

    def __init__(self, m: int, p: int, w: tuple[int, ...]) -> None:
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "w", w)
        if m < 1 or p < 1:
            raise ValueError("m and p must be positive")
        n = m + p
        if sorted(w) != list(range(1, n + 1)):
            raise ValueError(f"{w} is not a permutation of 1..{n}")
        for j, v in enumerate(w, start=1):
            if not -p <= v - j <= m:
                raise ValueError(
                    f"w({j}) = {v} violates the shift bounds -{p} <= w(i)-i <= {m}"
                )

    @property
    def n(self) -> int:
        return self.m + self.p

    def to_json_obj(self) -> dict:
        return {"m": self.m, "p": self.p, "w": list(self.w)}


def w_max(m: int, p: int) -> RestrictedPermutation:
    """The Bruhat-maximal restricted permutation [m+1, ..., m+p, 1, ..., m]."""
    return RestrictedPermutation(
        m, p, tuple(range(m + 1, m + p + 1)) + tuple(range(1, m + 1))
    )


def enumerate_restricted_perms(m: int, p: int) -> Iterator[RestrictedPermutation]:
    """All restricted permutations in ascending one-line (lex) order: the
    band walk over lists of partial one-line tuples, then sorted.  Each is
    yielded without the constructor's checks, which it passes by
    construction."""
    _check_grid(m, p)
    lines = sorted(chain.from_iterable(
        _band_walk(m, p, [()], lambda lines, v: [(*line, v) for line in lines])
    ))
    for line in lines:
        yield RestrictedPermutation._unchecked(m, p, line)


def perm_of_diagram(C: CauchonDiagram) -> RestrictedPermutation:
    """The restricted permutation of a diagram, read off its pipe dream.

    Pipes move only up or left.  Pipe k (1 <= k <= p) enters at the
    bottom of column k; pipe p+j (1 <= j <= m) enters at the right end of
    row m+1-j.  A pipe turns (up <-> left) on a white cell and goes
    straight through a black one.  A pipe leaving through the top of
    column a takes the value m+a, one leaving through the left end of row
    i takes m+1-i; w lists the values of pipes 1..m+p.  O(mp), no search.
    """
    m, p = C.m, C.p
    up = list(range(1, p + 1))  # up[a-1]: the pipe moving up in column a
    left = [m + p + 1 - i for i in range(1, m + 1)]  # left[i-1]: moving left in row i
    for i in range(m, 0, -1):
        for a in range(p, 0, -1):
            if not C.mask >> ((i - 1) * p + (a - 1)) & 1:
                up[a - 1], left[i - 1] = left[i - 1], up[a - 1]
    w = [0] * (m + p)
    for a in range(1, p + 1):
        w[up[a - 1] - 1] = m + a
    for i in range(1, m + 1):
        w[left[i - 1] - 1] = m + 1 - i
    return RestrictedPermutation(m, p, tuple(w))


def _one_line(w) -> tuple[int, ...]:
    if isinstance(w, RestrictedPermutation):
        return w.w
    return tuple(w)


def bruhat_leq(w, z) -> bool:
    """Bruhat order via the rank-matrix (dominance) criterion.

    w <= z iff for all (i, j): #{k <= j : w(k) >= i} <= #{k <= j : z(k) >= i}.
    """
    wt = _one_line(w)
    zt = _one_line(z)
    n = len(wt)
    if len(zt) != n:
        raise ValueError("permutations act on different sets")
    for i in range(1, n + 1):
        cw = cz = 0
        for j in range(n):
            if wt[j] >= i:
                cw += 1
            if zt[j] >= i:
                cz += 1
            if cw > cz:
                return False
    return True


def index_set_leq(I: Iterable[int], J: Iterable[int]) -> bool:
    """Componentwise order after ascending sort; sizes must agree."""
    a = sorted(I)
    b = sorted(J)
    if len(a) != len(b):
        raise ValueError("index sets of different cardinality are incomparable")
    return all(x <= y for x, y in zip(a, b))
