"""Totally nonnegative matrices, their cells, and the diagram families.

A cell is the set of tnn matrices sharing one exact vanishing family.
`family_of_diagram` computes a diagram's family at one positive point:
put 1 at every white cell and 0 at every black cell, restore in plain
integers, and read off which minors of the result are zero.  That is the
family of the generic (symbolic) matrix, where every white cell holds an
indeterminate: setting every indeterminate to 1 is a ring map, and each
restoration pivot is an untouched diagram entry, so the 0/1 run is the
image of the symbolic run.  Every nonzero pivot of that run is an
untouched 1, so floor division is exact and every restored entry is a
nonnegative integer (it counts paths of the Cauchon graph).  Every
restored generic minor [I|L] sums the weights of the graph's
vertex-disjoint path systems from rows I to columns L
(Lindstrom-Gessel-Viennot, checked by the tests), so it vanishes
identically exactly when it vanishes at the point.
`classify` sends a tnn matrix to its cell by running the inverse
algorithm and reading the zero pattern, then cross-checks the family.  With
`find_perm`, it reads the cell's restricted permutation straight off the
diagram's pipe dream (`combinat.perm_of_diagram`, O(mp), no search) and
makes one self-check: the permutation's own family must equal the
diagram's.  `match_families` pairs every diagram family with the equal
permutation family, computing both sides independently, and so stays
the two-sided cross-check of that construction.  The 0/1 point, the
random positive point and the generic matrix are each one `CauchonDiagram.fill`.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import lru_cache

from ._value import _Value
from .combinat import (
    CauchonDiagram,
    RestrictedPermutation,
    enumerate_diagrams,
    enumerate_restricted_perms,
    perm_of_diagram,
)
from .errors import NotTotallyNonnegativeError, SelfCheckError
from .families import family_of_perm
from .laurent import VarRegistry
from .linalg import Matrix, as_matrix
from .minors import MinorFamily, MinorId, _sign_masks, eval_minor, vanishing_family
from .restoration import _run, delete_derivations, diagram_of_matrix


class TnnVerdict(_Value):
    """Outcome of the total-nonnegativity test: the first negative minor
    and its exact value, both None when every minor is nonnegative."""

    __slots__ = ("witness", "witness_value")

    def __init__(self, witness: MinorId | None, witness_value: Fraction | None) -> None:
        object.__setattr__(self, "witness", witness)
        object.__setattr__(self, "witness_value", witness_value)

    @property
    def is_tnn(self) -> bool:
        return self.witness is None


class CellDescriptor(_Value):
    """A cell named by its diagram, with its family and, when requested,
    the restricted permutation carrying the equal family."""

    __slots__ = ("diagram", "family", "matched_perm")

    def __init__(
        self,
        diagram: CauchonDiagram,
        family: MinorFamily,
        matched_perm: RestrictedPermutation | None,
    ) -> None:
        object.__setattr__(self, "diagram", diagram)
        object.__setattr__(self, "family", family)
        object.__setattr__(self, "matched_perm", matched_perm)

    def to_json_obj(self) -> dict:
        """The cell as one matched (permutation, diagram) pair; "perm" is
        None when no permutation was requested."""
        return {
            "perm": None if self.matched_perm is None else self.matched_perm.to_json_obj(),
            "diagram": self.diagram.to_json_obj(),
            "family": self.family.to_json_obj(),
            "family_size": len(self.family),
        }


def is_tnn(X: Matrix) -> TnnVerdict:
    """Check the sign of every minor exactly; report the first negative
    one in canonical order with its exact value.

    Signs are read from the negative mask of `minors._sign_masks`; only
    the witness is evaluated as a Fraction.
    """
    X = as_matrix(X)
    negatives = _sign_masks(X)[1]
    return _refuted(X, negatives) if negatives else TnnVerdict(None, None)


def _refuted(X: Matrix, negatives: int) -> TnnVerdict:
    """The verdict on X with a nonempty negative mask: its first negative
    minor in canonical order, with the minor's exact value."""
    mid = next(iter(MinorFamily(len(X), len(X[0]), negatives)))
    return TnnVerdict(mid, eval_minor(X, mid))


def symbolic_cauchon_matrix(C: CauchonDiagram) -> tuple[VarRegistry, Matrix]:
    """The generic matrix of the diagram over the grid's variables: the
    cell's indeterminate at every white cell and 0 at every black cell, so
    a black cell's variable never appears in it or in its restoration."""
    registry = VarRegistry.grid(C.m, C.p)
    return registry, C.fill(registry.var, registry.zero())


# 4096 = B(1,12), the most diagrams of any grid under the 12-cell cap of
# `mc` and `match`, so one process can reuse every family of one full-grid
# enumeration.
@lru_cache(maxsize=4096)
def family_of_diagram(C: CauchonDiagram) -> MinorFamily:
    """The minors vanishing identically on the restored generic matrix,
    read off the restored 0/1 matrix (1 on white cells, 0 on black).

    Exact because evaluating every indeterminate at 1 is a ring map that
    keeps every pivot nonzero (a pivot is a diagram entry), and a restored
    generic minor has positive coefficients, so it is zero iff its value
    at 1 is.  The run stays in plain ints: every nonzero pivot is an
    untouched entry 1, so floor division is exact.
    """
    return vanishing_family(_run(C.fill(lambda i, a: 1, 0), +1).final)


def random_cauchon_matrix(C: CauchonDiagram, seed: int) -> Matrix:
    """Random nonnegative matrix with the diagram's zero pattern: white
    cells get positive rationals with numerator and denominator up to
    2**32, black cells are zero.  Fully determined by the seed.

    Each numerator and denominator is drawn as `rng.randint(1, 2**32)`
    draws it on CPython: 33 random bits, drawn again while >= 2**32, plus
    1.  So the matrices, and the generator's state after them, are those
    of `randint`."""
    bits = random.Random(seed).getrandbits

    def draw() -> int:
        x = bits(33)
        while x >> 32:
            x = bits(33)
        return x + 1

    return C.fill(lambda i, a: Fraction(draw(), draw()), Fraction(0))


def classify(Xbar: Matrix, *, find_perm: bool = False) -> CellDescriptor:
    """Locate the cell of a tnn matrix.

    Runs the inverse algorithm, reads the zero pattern of the resulting
    matrix as a diagram, and attaches the diagram's family - which must
    equal the matrix's own vanishing family, or the package is broken.
    With `find_perm`, also attaches the diagram's restricted permutation,
    read off its pipe dream; its family must equal the diagram's, or
    `SelfCheckError` is raised.  One `_sign_masks` call reads both the
    negative minors, which refute total nonnegativity, and the matrix's
    own vanishing family.
    """
    X = as_matrix(Xbar)
    zeros, negatives = _sign_masks(X)
    if negatives:
        verdict = _refuted(X, negatives)
        raise NotTotallyNonnegativeError(verdict.witness, verdict.witness_value)
    trace = delete_derivations(X)
    try:
        diagram = diagram_of_matrix(trace.initial)
    except ValueError as exc:
        raise SelfCheckError(
            f"inverse algorithm produced a non-diagram zero pattern: {exc}"
        ) from None
    family = family_of_diagram(diagram)
    observed = MinorFamily(len(X), len(X[0]), zeros)
    if observed != family:
        raise SelfCheckError(
            "vanishing family disagrees with the diagram family: "
            f"matrix has {sorted_text(observed)}, diagram gives {sorted_text(family)}"
        )
    matched = None
    if find_perm:
        matched = perm_of_diagram(diagram)
        if family_of_perm(matched) != family:
            raise SelfCheckError(
                f"permutation {matched.w} of the diagram's pipe dream does not "
                f"carry the family {sorted_text(family)}"
            )
    return CellDescriptor(diagram, family, matched)


def sorted_text(family: MinorFamily) -> str:
    return "{" + ", ".join(mid.text() for mid in family) + "}"


def match_families(m: int, p: int) -> list[CellDescriptor]:
    """Pair every diagram with the permutation carrying the same family.

    Asserts that the two family collections coincide and that families
    are pairwise distinct on each side; returns one descriptor per
    diagram, in diagram enumeration order.
    """
    by_perm: dict[MinorFamily, RestrictedPermutation] = {}
    for w in enumerate_restricted_perms(m, p):
        fam = family_of_perm(w)
        if fam in by_perm:
            raise SelfCheckError(
                f"permutations {by_perm[fam].w} and {w.w} share one family"
            )
        by_perm[fam] = w
    out = []
    seen: dict[MinorFamily, CauchonDiagram] = {}
    for C in enumerate_diagrams(m, p):
        fam = family_of_diagram(C)
        if fam in seen:
            raise SelfCheckError(
                f"diagrams {seen[fam]} and {C} share one family"
            )
        seen[fam] = C
        w = by_perm.pop(fam, None)
        if w is None:
            raise SelfCheckError(
                f"diagram family {sorted_text(fam)} has no matching permutation"
            )
        out.append(CellDescriptor(C, fam, w))
    if by_perm:
        fam = next(iter(by_perm))
        raise SelfCheckError(
            f"permutation family {sorted_text(fam)} has no matching diagram"
        )
    return out
