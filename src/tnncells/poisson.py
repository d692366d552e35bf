"""Symbolic Poisson brackets on the grid's Laurent-polynomial algebra.

A bracket is specified by its values on generator pairs and extended as a
biderivation through formal partial derivatives:

    {f, g} = sum over v < w of b[v,w] * (df/dv * dg/dw - df/dw * dg/dv)

which is automatically bilinear, antisymmetric, and Leibniz in each
argument.

Two generator tables are provided: the cell table (same-row or
same-column ordered pairs bracket to the product, all other pairs to
zero) and the matrix table (which adds the crossed 2 * t[i,g] * t[k,a]
term for northwest-southeast pairs).

`bracket` takes one route on every table.  Each value is a Laurent
polynomial, so it splits by shift: b[v,w] = t_v * t_w * sum over s of
Lambda_s[v][w] * x^s, where each term c * x^e of b[v,w] has shift
s = e - e_v - e_w and puts c into the skew matrix Lambda_s.  A bracket of
monomials is then

    {x^alpha, x^beta} = sum over s of (alpha^T Lambda_s beta) * x^(alpha + beta + s)

so {f, g} is one pass over the term pairs of f and the shifted, weighted
terms of g, with Lambda_s beta computed once per term of g and shift.
Each column of Lambda_s is stored as its nonzero entries only, so
Lambda_s beta costs the nonzero entries of the columns in the support of
beta.
Every Lambda_s is skew, so beta^T Lambda_s alpha = -(alpha^T Lambda_s beta)
and {f, g} = -{g, f} holds term by term, on every table: the weighted side
is the operand with fewer terms, and swapping the operands only negates
the coefficients.  The cell table has the one shift s = 0; the matrix table
adds one shift per crossed pair, e_(i,g) + e_(k,a) - e_(i,a) - e_(k,g).

The step-bracket check runs on the cell table, whose one shift is 0, so
{f, g} sums c_alpha * c_beta * (alpha^T Lambda beta) * x^(alpha + beta).
A pair predicted to be the product f * g is proved when every term-pair
weight is 1 and no term of g has a zero Lambda beta; a pair predicted to
be zero is proved when every weight is 0.  Every other pair - crossed,
mixed weights, or a table with another shift - builds both sides and
compares them.  A restoration step shares every entry it leaves alone,
so each label starts from the previous label's checks, recomputes
Lambda beta only for the entries that changed, and examines a pair again
only when (a) one of its entries changed, (b) it is a
northwest-southeast pair whose Y_ig or Y_ka changed, or (c) it is a
northwest-southeast pair whose second position is the previous label, so
its case turns from zero to crossed.  What depends only on the grid's
shape (the cell table, which every diagram's generic matrix shares, the
pairs, which pairs read each entry, which turn crossed at each label, the
passing check of each pair, and each pair's case at each label) is built
once per shape.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations
from operator import add, mul
from typing import Iterable, Mapping

from ._value import _Value
from .cells import symbolic_cauchon_matrix
from .combinat import CauchonDiagram
from .errors import RegistryMismatchError
from .laurent import LaurentPoly, VarRegistry
from .restoration import Step, _labels, restore


class BracketTable(_Value):
    """Bracket values on generator pairs v < w (registry index order).

    `shifts` splits the values by shift: one pair (s, columns) per shift s
    that some term c * x^e of a value b[v,w] has, s = e - e_v - e_w.
    That shift's skew matrix Lambda_s has c at [v][w] and -c at [w][v];
    `columns` maps u to column u of Lambda_s, for the nonzero columns only,
    and holds each column as its nonzero entries (v, Lambda_s[v][u]),
    sorted by v.
    """

    __slots__ = ("registry", "entries", "shifts")
    _fields = ("registry", "entries")  # `shifts` is derived from them

    def __init__(
        self, registry: VarRegistry, entries: Mapping[tuple[int, int], LaurentPoly]
    ) -> None:
        object.__setattr__(self, "registry", registry)
        object.__setattr__(self, "entries", entries)
        for (v, w), value in entries.items():
            if not 0 <= v < w < len(registry):
                raise ValueError(f"pair {(v, w)} is not ordered or out of range")
            if value.registry != registry:
                raise RegistryMismatchError("table value from a foreign registry")
        # cols[u] maps row v to Lambda_s[v][u]: Lambda_s[v][w] = c lands in
        # column w at row v, and Lambda_s[w][v] = -c in column v at row w
        by_shift: dict[tuple[int, ...], dict[int, dict]] = {}
        for (v, w), value in entries.items():
            for e, c in value.terms.items():
                shift = list(e)
                shift[v] -= 1
                shift[w] -= 1
                cols = by_shift.setdefault(tuple(shift), {})
                cols.setdefault(w, {})[v] = c
                cols.setdefault(v, {})[w] = -c
        shifts = tuple(
            (s, {u: tuple(sorted(column.items())) for u, column in cols.items()})
            for s, cols in by_shift.items()
        )
        object.__setattr__(self, "shifts", shifts)


def _monomial(registry: VarRegistry, c: int, v: int, w: int) -> LaurentPoly:
    """c * x_v * x_w for distinct generators v and w."""
    e = [0] * len(registry)
    e[v] = e[w] = 1
    return LaurentPoly._raw(registry, {tuple(e): c})


def cell_bracket_table(registry: VarRegistry) -> BracketTable:
    """Products for ordered same-row or same-column pairs, zero otherwise."""
    entries = {}
    n = len(registry)
    for v in range(n):
        i, a = registry.positions[v]
        for w in range(v + 1, n):
            k, g = registry.positions[w]
            if (i == k and a < g) or (i < k and a == g):
                entries[(v, w)] = _monomial(registry, 1, v, w)
    return BracketTable(registry, entries)


def matrix_bracket_table(registry: VarRegistry) -> BracketTable:
    """The cell table plus the crossed term 2 * t[i,g] * t[k,a] for each
    northwest-southeast pair (i, a), (k, g); every registry covers the
    full grid, so every crossed position carries a variable."""
    entries = dict(cell_bracket_table(registry).entries)
    n = len(registry)
    for v in range(n):
        i, a = registry.positions[v]
        for w in range(v + 1, n):
            k, g = registry.positions[w]
            if i < k and a < g:
                entries[(v, w)] = _monomial(
                    registry, 2, registry.index(i, g), registry.index(k, a)
                )
    return BracketTable(registry, entries)


def bracket(f: LaurentPoly, g: LaurentPoly, table: BracketTable) -> LaurentPoly:
    """The biderivation extension of the table to whole polynomials.

    The operand with fewer terms is the weighted one: every Lambda_s is
    skew, so {f, g} = -{g, f} term by term, and weighing f instead of g
    only negates each coefficient of its weighted terms."""
    registry = table.registry
    if (f.registry is not registry and f.registry != registry) or (
        g.registry is not registry and g.registry != registry
    ):
        raise RegistryMismatchError("operands do not match the table's registry")
    if len(f.terms) < len(g.terms):
        f_weighted = _weighted_terms(f.terms, table.shifts)
        terms = _monomial_bracket(g.terms, [(e, -c, lb) for e, c, lb in f_weighted])
    else:
        terms = _monomial_bracket(f.terms, _weighted_terms(g.terms, table.shifts))
    return LaurentPoly._raw(registry, terms)


def _weighted_terms(terms: dict, shifts: tuple) -> list[tuple]:
    """Each term (beta, c) of a term map as (beta + s, c, Lambda_s beta),
    once per shift s whose Lambda_s beta is nonzero.

    Lambda_s beta is summed as beta_u times column u over the support of
    beta only, and each column holds only its nonzero entries, so a term
    costs only the nonzero entries of its own columns."""
    out = []
    for e, c in terms.items():
        support = [(u, x) for u, x in enumerate(e) if x]
        for s, columns in shifts:
            lb = None
            for u, x in support:
                column = columns.get(u)
                if column is None:
                    continue
                if lb is None:
                    lb = [0] * len(e)
                for v, y in column:
                    lb[v] += x * y
            if lb is not None and any(lb):
                out.append((tuple(map(add, e, s)), c, tuple(lb)))
    return out


def _monomial_bracket(f_terms: dict, g_weighted: list[tuple]) -> dict:
    """The term map of {f, g}: one pass over the term pairs of f and the
    weighted terms of g, each pair weighted by alpha^T (Lambda_s beta)."""
    out: dict = {}
    for ea, ca in f_terms.items():
        for eb, cb, lb in g_weighted:
            weight = sum(map(mul, ea, lb))
            if not weight:
                continue
            e = tuple(map(add, ea, eb))
            c = out.get(e)
            if c is None:
                out[e] = weight * ca * cb
            else:
                c = c + weight * ca * cb
                if c:
                    out[e] = c
                else:
                    del out[e]
    return out


class PairCheck(_Value):
    """One bracket comparison inside a step verification."""

    __slots__ = ("first", "second", "ok", "difference")

    def __init__(
        self,
        first: tuple[int, int],
        second: tuple[int, int],
        ok: bool,
        difference: LaurentPoly | None = None,
    ) -> None:
        object.__setattr__(self, "first", first)
        object.__setattr__(self, "second", second)
        object.__setattr__(self, "ok", ok)
        object.__setattr__(self, "difference", difference)


class StepBracketReport(_Value):
    __slots__ = ("diagram", "step", "checks")

    def __init__(self, diagram: CauchonDiagram, step: Step, checks: tuple[PairCheck, ...]) -> None:
        object.__setattr__(self, "diagram", diagram)
        object.__setattr__(self, "step", step)
        object.__setattr__(self, "checks", checks)

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    @property
    def failures(self) -> tuple[PairCheck, ...]:
        return tuple(c for c in self.checks if not c.ok)


_PRODUCT, _ZERO, _CROSSED = "product", "zero", "crossed"


def _step_case(r: Step, pos1: tuple[int, int], pos2: tuple[int, int]) -> str:
    """Which of the three predictions the five-case rule makes at step r.

    Ordered same-row or same-column pairs give the product;
    row-increasing column-decreasing pairs give zero; strictly
    northwest-southeast pairs give the crossed term while the second
    position lies strictly before the step, and zero from there on.
    """
    (i, a), (k, g) = pos1, pos2
    if i == k and a < g or i < k and a == g:
        return _PRODUCT
    if i < k and a > g:
        return _ZERO
    if i < k and a < g:
        return _CROSSED if (k, g) < r else _ZERO
    raise ValueError(f"positions {pos1}, {pos2} are not lexicographically ordered")


def expected_step_bracket(
    Y, r: Step, pos1: tuple[int, int], pos2: tuple[int, int], registry: VarRegistry
) -> LaurentPoly:
    """The predicted bracket of two step-matrix entries: Y_ia * Y_kg,
    zero, or the crossed term 2 * Y_ig * Y_ka, as `_step_case` says."""
    case = _step_case(r, pos1, pos2)
    (i, a), (k, g) = pos1, pos2
    if case == _PRODUCT:
        return Y[i - 1][a - 1] * Y[k - 1][g - 1]
    if case == _CROSSED:
        y_ig = Y[i - 1][g - 1]
        return (y_ig + y_ig) * Y[k - 1][a - 1]  # 2 is never lifted to a constant
    return registry.zero()


def verify_all_step_brackets(C: CauchonDiagram) -> list[StepBracketReport]:
    """Step-bracket reports for every label of the diagram's grid, from one
    restoration of the generic matrix.

    Each label starts from the previous label's checks.  At label r with
    predecessor r' a pair is examined again only when (a) one of its
    entries is not the object it was at r', (b) it is a northwest-southeast
    pair whose Y_ig or Y_ka is not the object it was at r', or (c) it is a
    northwest-southeast pair whose second position is r'; every pair is
    examined at the first label.  An examined pair is first offered to
    `_certified`; only a pair it cannot prove builds both sides, and a
    difference is built only for a pair whose bracket misses."""
    registry, M = symbolic_cauchon_matrix(C)
    trace = restore(M)
    table, zero_shift, grid, pairs, reads, turns, passing, cases = _step_plan(C.m, C.p)
    # entry u and its Lambda beta terms at the previous label; every entry
    # differs from None, so every pair is examined at the first label
    entries: list = [None] * len(grid)
    weighted: list = [None] * len(grid)
    checks: list = [None] * len(pairs)
    reports = []
    Y = None
    for t, (r, matrix) in enumerate(trace.items()):
        before, Y = Y, matrix
        # label t-1 is grid position t, so its turns are turns[t]
        todo = set(turns[t]) if t else set()
        if Y is not before:
            for u, entry in enumerate(x for row in Y for x in row):
                if entry is not entries[u]:
                    entries[u] = entry
                    weighted[u] = _weighted_terms(entry.terms, table.shifts)
                    todo.update(reads[u])
        case_of = cases[t]
        for j in todo:
            x, y = pairs[j]
            f, g_weighted = entries[x], weighted[y]
            if zero_shift and _certified(case_of[j], f.terms, entries[y].terms, g_weighted):
                checks[j] = passing[j]
                continue
            pos1, pos2 = grid[x], grid[y]
            lhs = _monomial_bracket(f.terms, g_weighted)
            rhs = expected_step_bracket(Y, r, pos1, pos2, registry)
            if lhs == rhs.terms:
                checks[j] = passing[j]
            else:
                diff = LaurentPoly._raw(registry, lhs) - rhs
                checks[j] = PairCheck(pos1, pos2, False, diff)
        reports.append(StepBracketReport(C, r, tuple(checks)))
    return reports


@lru_cache(maxsize=64)
def _step_plan(m: int, p: int) -> tuple:
    """What the step checks of an m x p grid need from its shape alone.

    `table` is the cell table of the grid's registry, which every
    diagram's generic matrix shares, and `zero_shift` says whether its
    every shift is 0, as `_certified` needs.  `grid` is the registry's
    `positions`, row-major, so position (i, a) has index (i-1)*p + a-1,
    and `pairs` lists their index pairs x < y in `combinations(grid, 2)`
    order.  `reads[u]` holds the pairs that read entry u: as one of their
    entries or, for a northwest-southeast pair, as Y_ig or Y_ka.
    `turns[u]` holds the northwest-southeast pairs whose second position
    is u.  `passing[j]` is the passing check of pair j, and `cases[t][j]`
    is its `_step_case` at the t-th step label."""
    registry = VarRegistry.grid(m, p)
    table = cell_bracket_table(registry)
    zero_shift = all(not any(s) for s, _ in table.shifts)
    grid = registry.positions
    pairs = tuple(combinations(range(m * p), 2))
    reads: list[list[int]] = [[] for _ in grid]
    turns: list[list[int]] = [[] for _ in grid]
    for j, (x, y) in enumerate(pairs):
        (i, a), (k, g) = grid[x], grid[y]
        reads[x].append(j)
        reads[y].append(j)
        if i < k and a < g:
            reads[registry.index(i, g)].append(j)
            reads[registry.index(k, a)].append(j)
            turns[y].append(j)
    passing = tuple(PairCheck(grid[x], grid[y], True) for x, y in pairs)
    cases = tuple(
        tuple(_step_case(r, grid[x], grid[y]) for x, y in pairs) for r in _labels(m, p)
    )
    reads_of, turns_at = tuple(map(tuple, reads)), tuple(map(tuple, turns))
    return table, zero_shift, grid, pairs, reads_of, turns_at, passing, cases


def _certified(case: str, f_terms: dict, g_terms: dict, g_weighted: list[tuple]) -> bool:
    """Whether the term-pair weights alone prove {f, g} equals the
    prediction, on a table whose one shift is 0.

    There {f, g} = sum of c_alpha * c_beta * (alpha^T Lambda beta) *
    x^(alpha + beta), so every weight 0 makes it zero, and every weight 1,
    with no term of g dropped for a zero Lambda beta, makes it f * g.  A
    crossed pair, or a pair with mixed weights, is never certified."""
    if case == _CROSSED:
        return False
    want = 1 if case == _PRODUCT else 0
    if want and len(g_weighted) != len(g_terms):
        return False
    return all(
        sum(map(mul, ea, lb)) == want for ea in f_terms for _, _, lb in g_weighted
    )


def verify_jacobi(table: BracketTable, sample: Iterable[LaurentPoly]) -> bool:
    """Jacobi identity on consecutive disjoint triples of the sample."""
    items = list(sample)
    for t in range(0, len(items) - len(items) % 3, 3):
        f, g, h = items[t : t + 3]
        total = (
            bracket(f, bracket(g, h, table), table)
            + bracket(g, bracket(h, f, table), table)
            + bracket(h, bracket(f, g, table), table)
        )
        if total:
            return False
    return True
