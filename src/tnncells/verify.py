"""Cross-verification suites, shared by the CLI and the acceptance tests.

Each suite computes one batch of independent cross-checks and returns a
:class:`SuiteReport`; nothing here raises on a failed check, so callers
can render the full picture.  All randomness flows from one seed per
suite run.
"""

from __future__ import annotations

import random
from itertools import permutations as iter_permutations
from typing import Iterable

from ._value import _Value
from .cells import (
    family_of_diagram,
    match_families,
    random_cauchon_matrix,
)
from .combinat import (
    bruhat_leq,
    count_diagrams,
    enumerate_diagrams,
    enumerate_restricted_perms,
    random_diagram,
)
from .errors import SelfCheckError
from .families import (
    _undominated,
    bruhat_cell_vanishes,
    enumerate_partial_permutations,
    family_of_perm,
)
from .laurent import LaurentPoly, VarRegistry
from .linalg import mat_mul
from .minors import COLS, ROWS, MinorFamily, _sign_masks, all_minor_ids
from .poisson import (
    bracket,
    cell_bracket_table,
    verify_all_step_brackets,
    verify_jacobi,
)
from .restoration import (
    delete_derivations,
    is_cauchon_matrix,
    restore,
    trace_h_invariance_counterexample,
)


class SuiteReport(_Value):
    __slots__ = ("suite", "ok", "summary", "details")
    # mutable, so unhashable
    __setattr__ = object.__setattr__
    __delattr__ = object.__delattr__
    __hash__ = None

    def __init__(self, suite: str, ok: bool, summary: str, details: dict | None = None) -> None:
        self.suite = suite
        self.ok = ok
        self.summary = summary
        self.details = {} if details is None else details

    def to_json_obj(self) -> dict:
        return {
            "suite": self.suite,
            "ok": self.ok,
            "summary": self.summary,
            "details": self.details,
        }


# -- counting ---------------------------------------------------------------


def _count_perms_by_filter(m: int, p: int) -> int:
    n = m + p
    total = 0
    for w in iter_permutations(range(1, n + 1)):
        if all(-p <= w[j] - (j + 1) <= m for j in range(n)):
            total += 1
    return total


def _count_perms_by_permanent(m: int, p: int) -> int:
    """Inclusion-exclusion (Ryser) permanent of the allowed-position matrix."""
    n = m + p
    allowed = [
        [1 if max(1, j - p) <= v <= min(n, j + m) else 0 for v in range(1, n + 1)]
        for j in range(1, n + 1)
    ]
    total = 0
    for mask in range(1, 1 << n):
        prod = 1
        for j in range(n):
            row = allowed[j]
            s = 0
            for v in range(n):
                if mask >> v & 1:
                    s += row[v]
            prod *= s
            if not prod:
                break
        if prod:
            bits = bin(mask).count("1")
            total += prod if (n - bits) % 2 == 0 else -prod
    return total


def counting_suite(
    sizes: Iterable[tuple[int, int]] = ((1, 1), (2, 2), (2, 3), (3, 3))
) -> SuiteReport:
    """Diagram count = permutation count, by three independent computations."""
    rows = []
    ok = True
    for m, p in sizes:
        diagrams = count_diagrams(m, p)
        perms = sum(1 for _ in enumerate_restricted_perms(m, p))
        filtered = _count_perms_by_filter(m, p)
        permanent = _count_perms_by_permanent(m, p)
        agree = diagrams == perms == filtered == permanent
        ok = ok and agree
        rows.append(
            {
                "m": m,
                "p": p,
                "diagrams": diagrams,
                "perms": perms,
                "perm_filter": filtered,
                "permanent": permanent,
                "ok": agree,
            }
        )
    return SuiteReport(
        "counting",
        ok,
        "; ".join(f"({r['m']},{r['p']}): {r['diagrams']}" for r in rows)
        + (" - all oracles agree" if ok else " - ORACLE MISMATCH"),
        {"sizes": rows},
    )


# -- the family bijection -----------------------------------------------------


def match_suite(m: int, p: int) -> SuiteReport:
    try:
        pairs = match_families(m, p)
    except SelfCheckError as exc:
        return SuiteReport("match", False, f"family collections disagree: {exc}")
    return SuiteReport(
        "match",
        True,
        f"{len(pairs)} matched (permutation, diagram) pairs at ({m},{p})",
        {"pairs": [d.to_json_obj() for d in pairs]},
    )


# -- Bruhat monotonicity ------------------------------------------------------


def bruhat_monotone_suite(
    m: int, p: int, sample: int | None = None, seed: int = 0
) -> SuiteReport:
    """family containment <=> Bruhat comparability, exhaustive or sampled."""
    perms = list(enumerate_restricted_perms(m, p))
    fams = {w: family_of_perm(w) for w in perms}
    if sample is None:
        pairs = [(w, z) for w in perms for z in perms]
        mode = f"all {len(pairs)} pairs"
    else:
        rng = random.Random(seed)
        pairs = [(rng.choice(perms), rng.choice(perms)) for _ in range(sample)]
        mode = f"{sample} sampled pairs (seed {seed})"
    bad = []
    for w, z in pairs:
        contained = not fams[w].mask & ~fams[z].mask
        below = bruhat_leq(w, z)
        if contained != below:
            bad.append({"w": list(w.w), "z": list(z.w), "contained": contained, "bruhat": below})
    return SuiteReport(
        "bruhat-monotone",
        not bad,
        f"({m},{p}): {mode}; {len(bad)} violations",
        {"violations": bad[:10]},
    )


# -- tnn generation and the inverse algorithm ---------------------------------


def _corpus(m: int, p: int, n: int, seed: int):
    """The shared random corpus: (diagram, matrix) pairs, seed-determined."""
    rng = random.Random(seed)
    out = []
    for _ in range(n):
        C = random_diagram(m, p, rng)
        out.append((C, random_cauchon_matrix(C, rng.getrandbits(63))))
    return out

def tnn_roundtrip_suite(m: int, p: int, n: int = 100, seed: int = 0) -> SuiteReport:
    """Restored random diagram matrices are tnn with the diagram's family."""
    corpus = _corpus(m, p, n, seed)

    def check(item):
        C, X = item
        observed, negatives = _sign_masks(restore(X).final)
        if negatives:
            mid = next(iter(MinorFamily(m, p, negatives)))
            return f"negative minor {mid} on the restored matrix of {C}"
        expected = family_of_diagram(C).mask
        if observed != expected:
            return (
                f"vanishing family of the restored matrix of {C} has "
                f"{observed.bit_count()} minors, the diagram family {expected.bit_count()}"
            )
        return None

    failures = [msg for msg in map(check, corpus) if msg]
    return SuiteReport(
        "tnn-roundtrip",
        not failures,
        f"({m},{p}): {n} random diagram matrices restored (seed {seed}); "
        f"{len(failures)} failures",
        {"failures": failures[:10]},
    )


def deletion_suite(m: int, p: int, n: int = 100, seed: int = 0) -> SuiteReport:
    """Inverse-direction checks on the same corpus as tnn-roundtrip."""
    corpus = _corpus(m, p, n, seed)

    def check(item):
        C, X = item
        tr = restore(X)
        td = delete_derivations(tr.final)
        # td == tr also settles the forward direction: restore is pure and
        # td.initial == tr.initial, so restore(td.initial) == tr == td.
        if td != tr:
            return f"inverse trace of the restored matrix of {C} differs"
        # A step that writes nothing returns X itself: check each matrix
        # object once.
        seen = set()
        for label, mat in td.items():
            if id(mat) in seen:
                continue
            seen.add(id(mat))
            for row in mat:
                for x in row:
                    if x < 0:
                        return f"negative entry at label {label} for {C}"
            if not is_cauchon_matrix(mat):
                return f"non-Cauchon zero pattern at label {label} for {C}"
        bad = trace_h_invariance_counterexample(td)
        if bad is not None:
            label, mid = bad
            return f"vanishing of {mid} fails to propagate at {label} for {C}"
        return None

    failures = [msg for msg in map(check, corpus) if msg]
    return SuiteReport(
        "deletion",
        not failures,
        f"({m},{p}): {n} corpus matrices checked through the inverse algorithm "
        f"(seed {seed}); {len(failures)} failures",
        {"failures": failures[:10]},
    )


# -- Poisson ------------------------------------------------------------------


def random_laurent(registry: VarRegistry, rng: random.Random) -> LaurentPoly:
    """1 to 3 terms, exponents in [-2, 2], integer coefficients in [-9, 9]."""
    terms = {}
    for _ in range(rng.randint(1, 3)):
        e = tuple(rng.randint(-2, 2) for _ in range(len(registry)))
        terms[e] = terms.get(e, 0) + rng.randint(-9, 9)
    return LaurentPoly(registry, terms)


def leibniz_holds(f: LaurentPoly, g: LaurentPoly, h: LaurentPoly, table) -> bool:
    lhs = bracket(f * g, h, table)
    rhs = f * bracket(g, h, table) + bracket(f, h, table) * g
    return not (lhs - rhs)


def poisson_suite(m: int, p: int, triples: int = 200, seed: int = 0) -> SuiteReport:
    """Step-bracket predictions for every diagram and step, plus Jacobi and
    Leibniz on random triples over the full-grid cell table."""
    diagrams = list(enumerate_diagrams(m, p))

    step_failures = [
        (C, rep.step, fail)
        for C in diagrams
        for rep in verify_all_step_brackets(C)
        for fail in rep.failures
    ]

    registry = VarRegistry.grid(m, p)
    table = cell_bracket_table(registry)
    rng = random.Random(seed)
    jacobi_ok = verify_jacobi(
        table, [random_laurent(registry, rng) for _ in range(3 * triples)]
    )
    leibniz_bad = 0
    for _ in range(triples):
        f, g, h = (random_laurent(registry, rng) for _ in range(3))
        if not leibniz_holds(f, g, h, table):
            leibniz_bad += 1

    ok = not step_failures and jacobi_ok and not leibniz_bad
    return SuiteReport(
        "poisson",
        ok,
        f"({m},{p}): {len(diagrams)} diagrams x all steps checked; "
        f"{len(step_failures)} bracket failures; Jacobi "
        f"{'ok' if jacobi_ok else 'FAILED'} and Leibniz "
        f"{'ok' if not leibniz_bad else 'FAILED'} on {triples} random triples "
        f"(seed {seed})",
        {
            "bracket_failures": [
                {"diagram": C.to_json_obj(), "step": list(step), "pair": [list(f.first), list(f.second)]}
                for C, step, f in step_failures[:10]
            ],
            "jacobi_ok": jacobi_ok,
            "leibniz_failures": leibniz_bad,
        },
    )


# -- triangular-sweep vanishing -----------------------------------------------


def _random_triangular(n: int, rng: random.Random, upper: bool):
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            inside = j >= i if upper else j <= i
            if not inside:
                row.append(0)
            elif i == j:
                row.append(rng.randint(1, 20))
            else:
                row.append(rng.choice([-1, 1]) * rng.randint(0, 20))
        rows.append(tuple(row))
    return tuple(rows)


def bruhat_cell_suite(
    m: int, p: int, samples: int = 20, seed: int = 0
) -> SuiteReport:
    """The vanishing predicate agrees with `family_of_perm`'s dominance
    masks on every partial permutation, minor and sign; sampled triangular
    sweeps never contradict it."""
    ids = all_minor_ids(m, p)
    pps = list(enumerate_partial_permutations(m, p))
    mismatches = []
    contradictions = []
    rng = random.Random(seed)
    for pp in pps:
        W = pp.to_matrix()
        # both pools ascend, as `_undominated` requires: an assignment is
        # sorted by its domain, and the transpose's domain is the rows
        pools = (
            ("plus", COLS, dict(pp.assignment)),
            ("minus", ROWS, dict(pp.transpose().assignment)),
        )
        for sign, axis, pool in pools:
            predicted = _undominated(m, p, axis, pool)
            where = {"pp": list(pp.assignment), "sign": sign}
            for i, mid in enumerate(ids):
                if bruhat_cell_vanishes(pp, mid, sign) != bool(predicted >> i & 1):
                    mismatches.append({**where, "minor": mid.text()})
            upper = sign == "plus"
            for _ in range(samples):
                a = _random_triangular(m, rng, upper)
                b = _random_triangular(p, rng, upper)
                zeros = _sign_masks(mat_mul(mat_mul(a, W), b))[0]
                contradictions.extend(
                    {**where, "minor": mid.text()}
                    for mid in MinorFamily(m, p, predicted & ~zeros)
                )
    ok = not mismatches and not contradictions
    return SuiteReport(
        "bruhat-cell",
        ok,
        f"({m},{p}): {len(pps)} partial permutations x {len(ids)} minors; "
        f"{len(mismatches)} formulation mismatches, {len(contradictions)} "
        f"sampling contradictions ({samples} sweeps per sign, seed {seed})",
        {"mismatches": mismatches[:10], "contradictions": contradictions[:10]},
    )
