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

`bracket` takes one of two routes, chosen by the table:

* Log-canonical tables, where every value is b[v,w] = c * t_v * t_w for a
  constant c, record the skew matrix Lambda of those constants.  A
  bracket of monomials is then one monomial,
  {x^alpha, x^beta} = (alpha^T Lambda beta) * x^(alpha + beta), so {f, g}
  is one pass over the term pairs of f and g, with Lambda beta computed
  once per term of g.  The cell table takes this route, on any registry.
* Every other table takes the gradient route: each operand's partials
  are computed once, as one gradient per operand, and summed over the
  variable pairs with a nonzero table value.  The matrix table takes this
  route, since its crossed values 2 * t[i,g] * t[k,a] are not multiples
  of t_v * t_w.

The step-bracket check runs on the cell table and computes Lambda beta
once per step-matrix entry, for all of that entry's pairs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from operator import add, mul
from typing import Iterable, Mapping

from .cells import symbolic_cauchon_matrix
from .combinat import CauchonDiagram
from .errors import RegistryMismatchError
from .laurent import LaurentPoly, VarRegistry, _demote, _has_fraction
from .restoration import Step, restore, step_sequence


@dataclass(frozen=True)
class BracketTable:
    """Bracket values on generator pairs v < w (registry index order).

    `skew` is the table's Lambda when the table is log-canonical (every
    value is a constant times t_v * t_w): row v holds Lambda[v][w], with
    Lambda[w][v] = -Lambda[v][w] and a zero diagonal.  It is None for any
    other table.
    """

    registry: VarRegistry
    entries: Mapping[tuple[int, int], LaurentPoly]
    skew: tuple[tuple, ...] | None = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        for (v, w), value in self.entries.items():
            if not 0 <= v < w < len(self.registry):
                raise ValueError(f"pair {(v, w)} is not ordered or out of range")
            if value.registry != self.registry:
                raise RegistryMismatchError("table value from a foreign registry")
        object.__setattr__(self, "skew", self._log_canonical_skew())

    def _log_canonical_skew(self) -> tuple[tuple, ...] | None:
        """Lambda if every value is c * t_v * t_w for a constant c, else None."""
        n = len(self.registry)
        skew = [[0] * n for _ in range(n)]
        for (v, w), value in self.entries.items():
            if not value:
                continue
            if len(value.terms) != 1:
                return None
            ((e, c),) = value.terms.items()
            if e[v] != 1 or e[w] != 1 or sum(map(abs, e)) != 2:
                return None
            skew[v][w] = c
            skew[w][v] = -c
        return tuple(map(tuple, skew))

    def pair(self, v: int, w: int) -> LaurentPoly:
        """{t_v, t_w} for any v, w (antisymmetry fills the lower half)."""
        if v == w:
            return self.registry.zero()
        if v < w:
            return self.entries.get((v, w), self.registry.zero())
        return -self.entries.get((w, v), self.registry.zero())


def cell_bracket_table(registry: VarRegistry) -> BracketTable:
    """Products for ordered same-row or same-column pairs, zero otherwise."""
    entries = {}
    n = len(registry)
    for v in range(n):
        i, a = registry.positions[v]
        for w in range(v + 1, n):
            k, g = registry.positions[w]
            if (i == k and a < g) or (i < k and a == g):
                entries[(v, w)] = registry.gen(v) * registry.gen(w)
    return BracketTable(registry, entries)


def matrix_bracket_table(registry: VarRegistry) -> BracketTable:
    """The cell table plus the crossed term for northwest-southeast pairs.

    Needs every crossed position present, so the registry must cover the
    full grid.
    """
    if len(registry) != registry.m * registry.p:
        raise ValueError("matrix bracket table needs the full grid registry")
    entries = {}
    n = len(registry)
    for v in range(n):
        i, a = registry.positions[v]
        for w in range(v + 1, n):
            k, g = registry.positions[w]
            if (i == k and a < g) or (i < k and a == g):
                entries[(v, w)] = registry.gen(v) * registry.gen(w)
            elif i < k and a < g:
                entries[(v, w)] = 2 * registry.var(i, g) * registry.var(k, a)
    return BracketTable(registry, entries)


def bracket(f: LaurentPoly, g: LaurentPoly, table: BracketTable) -> LaurentPoly:
    """The biderivation extension of the table to whole polynomials."""
    registry = table.registry
    if f.registry != registry or g.registry != registry:
        raise RegistryMismatchError("operands do not match the table's registry")
    if table.skew is None:
        return _bracket_of_gradients(_gradient(f), _gradient(g), table)
    terms = _monomial_bracket(f.terms, _weighted_terms(g.terms, table.skew))
    return LaurentPoly._raw(registry, terms)


def _weighted_terms(terms: dict, skew: tuple[tuple, ...]) -> list[tuple]:
    """Each term (beta, c) of a term map as (beta, c, Lambda beta)."""
    return [
        (e, c, tuple(sum(map(mul, row, e)) for row in skew)) for e, c in terms.items()
    ]


def _monomial_bracket(f_terms: dict, g_weighted: list[tuple]) -> dict:
    """The term map of {f, g} on a log-canonical table: one pass over the
    term pairs, each pair weighted by alpha^T (Lambda beta)."""
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
    if _has_fraction(out):
        _demote(out)
    return out


def _gradient(f: LaurentPoly) -> dict[int, LaurentPoly]:
    """The nonzero first partials of f, keyed by variable index."""
    return {v: f.partial(v) for v in f.variables()}


def _bracket_of_gradients(
    df: dict[int, LaurentPoly], dg: dict[int, LaurentPoly], table: BracketTable
) -> LaurentPoly:
    """{f, g} from the gradients of f and g, the route for tables without
    a skew: each partial is computed once per operand rather than once per
    variable pair."""
    registry = table.registry
    zero = registry.zero()
    result = zero
    pairs = set()
    for v in df:
        for w in dg:
            if v != w:
                pairs.add((v, w) if v < w else (w, v))
    for v, w in sorted(pairs):
        coeff = table.pair(v, w)
        if not coeff:
            continue
        term = df.get(v, zero) * dg.get(w, zero) - df.get(w, zero) * dg.get(v, zero)
        if term:
            result = result + coeff * term
    return result


def multidegree(f: LaurentPoly) -> tuple[int, ...] | None:
    """The common row+column multidegree of all terms, or None if mixed.

    Each variable at (i, a) contributes the sum of unit vectors e_i and
    e_(m+a); the zero polynomial reports the zero degree.
    """
    registry = f.registry
    m = registry.m
    size = m + registry.p
    deg: tuple[int, ...] | None = None
    for e in f.terms:
        d = [0] * size
        for k, x in enumerate(e):
            if x:
                i, a = registry.positions[k]
                d[i - 1] += x
                d[m + a - 1] += x
        if deg is None:
            deg = tuple(d)
        elif deg != tuple(d):
            return None
    return deg if deg is not None else (0,) * size


@dataclass(frozen=True)
class PairCheck:
    """One bracket comparison inside a step verification."""

    first: tuple[int, int]
    second: tuple[int, int]
    ok: bool
    difference: LaurentPoly | None = None


@dataclass(frozen=True)
class StepBracketReport:
    diagram: CauchonDiagram
    step: Step
    checks: tuple[PairCheck, ...]

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    @property
    def failures(self) -> tuple[PairCheck, ...]:
        return tuple(c for c in self.checks if not c.ok)

    def to_json_obj(self) -> dict:
        return {
            "diagram": self.diagram.to_json_obj(),
            "step": list(self.step),
            "ok": self.ok,
            "pairs": [
                {
                    "first": list(c.first),
                    "second": list(c.second),
                    "ok": c.ok,
                    **({"difference": str(c.difference)} if not c.ok else {}),
                }
                for c in self.checks
            ],
        }


def expected_step_bracket(
    Y, r: Step, pos1: tuple[int, int], pos2: tuple[int, int], registry: VarRegistry
) -> LaurentPoly:
    """The predicted bracket of two step-matrix entries.

    Five cases: ordered same-row or same-column pairs give the product;
    row-increasing column-decreasing pairs give zero; strictly
    northwest-southeast pairs give the crossed term while the second
    position lies strictly before the step, and zero from there on.
    """
    (i, a), (k, g) = pos1, pos2
    if i == k and a < g or i < k and a == g:
        return Y[i - 1][a - 1] * Y[k - 1][g - 1]
    if i < k and a > g:
        return registry.zero()
    if i < k and a < g:
        if (k, g) < r:
            return 2 * Y[i - 1][g - 1] * Y[k - 1][a - 1]
        return registry.zero()
    raise ValueError(f"positions {pos1}, {pos2} are not lexicographically ordered")


@lru_cache(maxsize=32)
def _generic_trace(C: CauchonDiagram):
    registry, M = symbolic_cauchon_matrix(C)
    return registry, cell_bracket_table(registry), restore(M)


def verify_step_brackets(C: CauchonDiagram, r: Step) -> StepBracketReport:
    """Check every ordered pair of entries of the step-r matrix against
    the five-case prediction, using the cell table on the base entries.

    Lambda beta is computed once per entry for all of its pairs, and a
    difference is built only for a pair whose bracket misses."""
    registry, table, trace = _generic_trace(C)
    Y = trace[r]
    checks = []
    grid = [(i, a) for i in range(1, C.m + 1) for a in range(1, C.p + 1)]
    entries = [Y[i - 1][a - 1].terms for i, a in grid]
    weighted = [_weighted_terms(terms, table.skew) for terms in entries]
    for x in range(len(grid)):
        for y in range(x + 1, len(grid)):
            pos1, pos2 = grid[x], grid[y]
            lhs = _monomial_bracket(entries[x], weighted[y])
            rhs = expected_step_bracket(Y, r, pos1, pos2, registry)
            if lhs == rhs.terms:
                checks.append(PairCheck(pos1, pos2, True))
            else:
                diff = LaurentPoly._raw(registry, lhs) - rhs
                checks.append(PairCheck(pos1, pos2, False, diff))
    return StepBracketReport(C, r, tuple(checks))


def verify_all_step_brackets(C: CauchonDiagram) -> list[StepBracketReport]:
    """Step-bracket reports for every label of the diagram's grid."""
    return [verify_step_brackets(C, r) for r in step_sequence(C.m, C.p)]


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
