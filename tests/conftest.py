import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import settings

from tnncells import CauchonDiagram, MinorFamily, VarRegistry, all_minor_ids
from tnncells.families import _condition_masks, _undominated
from tnncells.minors import ROWS

settings.register_profile("suite", max_examples=60, deadline=None)
settings.load_profile("suite")

# Every grid with at most 12 cells.
SMALL_GRIDS = [(m, p) for m in range(1, 13) for p in range(1, 13) if m * p <= 12]


@pytest.fixture
def rng() -> random.Random:
    return random.Random(0xC0FFEE)


@pytest.fixture(scope="session")
def reg22() -> VarRegistry:
    return VarRegistry.grid(2, 2)


def rand_fraction(rng: random.Random, span: int = 30, allow_zero: bool = True) -> Fraction:
    num = rng.randint(-span, span)
    if not allow_zero and num == 0:
        num = 1
    return Fraction(num, rng.randint(1, span))


def rand_matrix(rng: random.Random, m: int, p: int, span: int = 30) -> list:
    return [[rand_fraction(rng, span) for _ in range(p)] for _ in range(m)]


def family_of_ids(m: int, p: int, ids) -> MinorFamily:
    """The family of the m x p grid holding exactly the given MinorIds."""
    order = all_minor_ids(m, p)
    mask = 0
    for mid in ids:
        mask |= 1 << order.index(mid)
    return MinorFamily(m, p, mask)


def stripe_column_sets(w) -> set[tuple[int, ...]]:
    """Column sets of the minors that condition 3 (the column stripes)
    alone puts into the family of w."""
    return {mid.cols for mid in MinorFamily(w.m, w.p, _condition_masks(w)[2])}


def stripe_row_sets(w) -> set[tuple[int, ...]]:
    """Row sets of the minors that condition 4 (the row stripes) alone
    puts into the family of w."""
    return {mid.rows for mid in MinorFamily(w.m, w.p, _condition_masks(w)[3])}


# The Cauchon graph of a diagram (Casteels, J. Algebra 330, 2011; Postnikov's
# Le-graphs, arXiv math/0609764).  Restoring the generic matrix sums its
# paths, and by Lindstrom-Gessel-Viennot each restored minor sums its
# vertex-disjoint path systems, so these walks are an oracle for symbolic
# restoration and for `family_of_diagram` that shares no arithmetic with
# either.


def cauchon_paths(C: CauchonDiagram) -> list[tuple[int, int, int, tuple[int, ...]]]:
    """Every path of the Cauchon graph of C, as (start row, end column,
    cells, weight).  `cells` has bit (r-1)*p + (c-1) set for each cell
    (r, c) the path visits; `weight` is the exponent vector of its
    monomial over every grid cell in row-major order, the variables of
    `symbolic_cauchon_matrix(C)`, so a black cell's exponent stays 0.

    A path from row i enters cell (i, p) moving left.  It goes straight
    through black cells.  On a white cell (r, c) it either goes straight
    or turns: left->down multiplies its weight by t_rc, and down->left
    divides by it.  It is dropped if it leaves past column 1, and it ends
    at column c if it leaves below row m.
    """
    m, p = C.m, C.p
    black = C.black_cells()
    paths = []

    def walk(start, r, c, down, cells, weight):
        if c < 1:
            return
        if r > m:
            paths.append((start, c, cells, weight))
            return
        k = (r - 1) * p + c - 1
        cells |= 1 << k
        for turn in (False,) if (r, c) in black else (False, True):
            w = weight
            if turn:
                w = w[:k] + (w[k] + (-1 if down else 1),) + w[k + 1:]
            if down != turn:
                walk(start, r + 1, c, True, cells, w)
            else:
                walk(start, r, c - 1, False, cells, w)

    for i in range(1, m + 1):
        walk(i, i, p, False, 0, (0,) * (m * p))
    return paths


def path_sums(C: CauchonDiagram) -> dict[tuple[int, int], dict[tuple[int, ...], int]]:
    """(i, a) -> the weights of the paths from row i to column a, as
    exponent vector -> number of paths."""
    sums = {(i, a): Counter() for i in range(1, C.m + 1) for a in range(1, C.p + 1)}
    for start, end, _, weight in cauchon_paths(C):
        sums[(start, end)][weight] += 1
    return {cell: dict(counts) for cell, counts in sums.items()}


def disjoint_systems(paths, rows, cols):
    """Every tuple of pairwise vertex-disjoint paths, the t-th from row
    rows[t], that ends on the columns `cols` in any order.  Paths share a
    vertex when they visit one cell, black cells included."""

    def extend(t, used, free, chosen):
        if t == len(rows):
            yield chosen
            return
        for path in paths:
            start, end, cells, _ = path
            if start == rows[t] and end in free and not cells & used:
                yield from extend(t + 1, used | cells, free - {end}, chosen + (path,))

    return extend(0, 0, frozenset(cols), ())


def path_family(C: CauchonDiagram) -> MinorFamily:
    """The minors [I|L] with no vertex-disjoint path system from rows I to
    columns L."""
    paths = cauchon_paths(C)
    mask = 0
    for n, mid in enumerate(all_minor_ids(C.m, C.p)):
        if next(disjoint_systems(paths, mid.rows, mid.cols), None) is None:
            mask |= 1 << n
    return MinorFamily(C.m, C.p, mask)


def descending_row_pool(m: int, p: int, axis: int, pool: tuple[tuple[int, int], ...]) -> int:
    """`families._undominated` with a row pool reversed: a planted fault,
    since `_undominated` requires ascending keys."""
    if axis == ROWS:
        pool = pool[::-1]
    return _undominated(m, p, axis, pool)
