"""The four workloads: how each builds its inputs, the steps it times, how
many operations it attempts, and how its outputs are checked.

Every workload drives only the public library API, the same calls that
``tnncells verify ...`` and ``tnncells classify`` make.  The full sizes are
the CLI caps: 12 cells for the symbolic bijection, 16 for corpora, 9 for
Poisson brackets.  ``small`` shrinks each to a 2-row grid so that every
check runs in seconds.
"""

from __future__ import annotations

import hashlib
import json
import random

from tnncells import (
    CauchonDiagram,
    LaurentPoly,
    VarRegistry,
    bracket,
    cell_bracket_table,
    classify,
    delete_derivations,
    enumerate_diagrams,
    enumerate_restricted_perms,
    family_of_diagram,
    match_families,
    random_cauchon_matrix,
    random_diagram,
    restore,
    step_sequence,
    symbolic_cauchon_matrix,
)
from tnncells.errors import SelfCheckError
from tnncells.verify import deletion_suite, match_suite, poisson_suite, tnn_roundtrip_suite

import oracles


def _digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def _black(diagram_json) -> set[tuple[int, int]]:
    return {tuple(c) for c in diagram_json["black"]}


class Bijection:
    """``match_suite`` at (3,4): symbolic restoration and symbolic all-minors
    for every diagram, and ``family_of_perm`` for every permutation."""

    name = "bijection"

    def __init__(self, seed: int, small: bool, plan=None):
        self.seed = seed
        self.m, self.p = (2, 3) if small else (3, 4)
        self.samples = 6 if small else 12
        self.attempted = oracles.poly_bernoulli(self.m, self.p)

    def build(self) -> None:
        pass

    def steps(self):
        return [self._match]

    def _match(self) -> None:
        self.report = match_suite(self.m, self.p)

    def digest(self) -> str:
        return _digest(self.report.to_json_obj())

    def check(self) -> int:
        """Failed cells: missing pairs, rule breaks, repeated families, and
        sampled cells whose restored positive filling is not in the cell."""
        m, p = self.m, self.p
        pairs = self.report.details.get("pairs", []) if self.report.ok else []
        bad = set()
        seen: dict[str, dict] = {"diagram": {}, "perm": {}, "family": {}}
        for k, pair in enumerate(pairs):
            keys = {
                "diagram": frozenset(_black(pair["diagram"])),
                "perm": tuple(pair["perm"]["w"]),
                "family": frozenset(
                    (tuple(f["rows"]), tuple(f["cols"])) for f in pair["family"]
                ),
            }
            if not oracles.is_left_or_above(m, p, keys["diagram"]):
                bad.add(k)
            if not oracles.is_restricted(m, p, keys["perm"]):
                bad.add(k)
            for kind, key in keys.items():
                if key in seen[kind]:
                    bad.update((k, seen[kind][key]))
                seen[kind][key] = k
        rng = random.Random(f"bijection-check-{self.seed}")
        for k in rng.sample(range(len(pairs)), min(self.samples, len(pairs))):
            black = _black(pairs[k]["diagram"])
            filling = oracles.positive_filling(m, p, black, rng)
            cell = oracles.tnn_cell(restore(filling).final)
            family = frozenset(
                (tuple(f["rows"]), tuple(f["cols"])) for f in pairs[k]["family"]
            )
            if cell != family:
                bad.add(k)
        return len(bad) + self.attempted - len(pairs)


class Corpus:
    """``tnn_roundtrip_suite`` and ``deletion_suite`` at (4,4) on one seeded
    corpus: numeric restoration in both directions and integer all-minors
    tables."""

    name = "corpus"

    def __init__(self, seed: int, small: bool, plan=None):
        self.seed = seed
        self.m, self.p = (2, 3) if small else (4, 4)
        self.n = 10 if small else 100
        self.attempted = 2 * self.n

    def build(self) -> None:
        pass

    def steps(self):
        self.reports = []
        return [
            lambda: self.reports.append(tnn_roundtrip_suite(self.m, self.p, self.n, self.seed)),
            lambda: self.reports.append(deletion_suite(self.m, self.p, self.n, self.seed)),
        ]

    def digest(self) -> str:
        return _digest([r.to_json_obj() for r in self.reports])

    def corpus(self):
        """The suites' corpus, regenerated the way they document it: one
        ``random.Random(seed)`` draws each diagram, then its filling seed."""
        rng = random.Random(self.seed)
        out = []
        for _ in range(self.n):
            C = random_diagram(self.m, self.p, rng)
            out.append((C, random_cauchon_matrix(C, rng.getrandbits(63))))
        return out

    def check(self) -> int:
        """Failed matrices: a restored matrix with a negative minor or a
        vanishing set other than its diagram's family; a deletion that does
        not return the start matrix.  A suite that reports failures fails
        all of its matrices."""
        roundtrip_bad = deletion_bad = 0
        for C, X in self.corpus():
            trace = restore(X)
            cell = oracles.tnn_cell(trace.final)
            if not oracles.is_left_or_above(self.m, self.p, C.black_cells()) or (
                cell != oracles.family_key(family_of_diagram(C))
            ):
                roundtrip_bad += 1
            if delete_derivations(trace.final).initial != X:
                deletion_bad += 1
        roundtrip, deletion = self.reports
        return (roundtrip_bad if roundtrip.ok else self.n) + (
            deletion_bad if deletion.ok else self.n
        )


class Poisson:
    """``poisson_suite`` at (3,3): step brackets for every diagram and label,
    then Jacobi and Leibniz on seeded random triples."""

    name = "poisson"

    def __init__(self, seed: int, small: bool, plan=None):
        self.seed = seed
        self.m, self.p = (2, 3) if small else (3, 3)
        self.triples = 20 if small else 200
        self.step_ops = oracles.poly_bernoulli(self.m, self.p) * self.m * self.p
        self.attempted = self.step_ops + 2 * self.triples
        self.samples = 2 if small else 4

    def build(self) -> None:
        pass

    def steps(self):
        return [self._suite]

    def _suite(self) -> None:
        self.report = poisson_suite(self.m, self.p, self.triples, self.seed)

    def digest(self) -> str:
        return _digest(self.report.to_json_obj())

    def _random_poly(self, registry: VarRegistry, rng: random.Random) -> LaurentPoly:
        n = len(registry)
        terms = {
            tuple(rng.randint(-2, 2) for _ in range(n)): rng.randint(-9, 9)
            for _ in range(rng.randint(1, 3))
        }
        return LaurentPoly(registry, terms)

    def check(self) -> int:
        """Sympy recomputes the bracket of sampled random pairs and of sampled
        step-matrix entry pairs, and checks Jacobi on every generator triple
        of the program's cell table.  A step-bracket failure fails every
        step label; a Jacobi failure fails every Jacobi triple; Leibniz
        failures count one per triple, as the suite reports them."""
        m, p = self.m, self.p
        sb = oracles.SympyBrackets(m, p)
        own = sb.cell_table()
        rng = random.Random(f"poisson-check-{self.seed}")

        registry = VarRegistry.grid(m, p)
        table = cell_bracket_table(registry)
        program = sb.table_of(table)
        generic_ok = set(program) == set(own) and all(
            sb.equal(program[k], own[k]) for k in own
        )
        generic_ok = generic_ok and not sb.jacobi_fails(program)
        for _ in range(self.samples):
            f, g, h = (self._random_poly(registry, rng) for _ in range(3))
            for a, b in ((f, g), (g, h), (h, f)):
                generic_ok = generic_ok and sb.equal(
                    sb.expr(bracket(a, b, table)), sb.bracket(sb.expr(a), sb.expr(b), own)
                )

        steps_ok = not self.report.details.get("bracket_failures")
        diagrams = list(enumerate_diagrams(m, p))
        for _ in range(self.samples):
            C = rng.choice(diagrams)
            reg, M = symbolic_cauchon_matrix(C)
            Y = restore(M)[rng.choice(step_sequence(m, p))]
            ctable = cell_bracket_table(reg)
            grid = [(i, a) for i in range(1, m + 1) for a in range(1, p + 1)]
            for _ in range(6):
                (i, a), (k, g) = rng.sample(grid, 2)
                x, y = Y[i - 1][a - 1], Y[k - 1][g - 1]
                steps_ok = steps_ok and sb.equal(
                    sb.expr(bracket(x, y, ctable)), sb.bracket(sb.expr(x), sb.expr(y), own)
                )

        details = self.report.details
        failed = 0 if steps_ok else self.step_ops
        failed += 0 if generic_ok and details.get("jacobi_ok") else self.triples
        return failed + min(self.triples, details.get("leibniz_failures", self.triples))


def classify_plan(seed: int, small: bool) -> list[tuple[int, int]]:
    """The classify requests as (diagram mask, filling seed) pairs.

    The find-perm lookup scans the restricted permutations in enumeration
    order until one carries the family, so a request costs about the
    position of its cell's permutation in that order.  The diagrams are
    drawn one from each of ``requests`` equal strata of that order, which
    keeps every seed's total lookup work alike without removing any of it.
    """
    m, p, requests = (2, 3, 4) if small else (3, 4, 10)
    order = {w: k for k, w in enumerate(enumerate_restricted_perms(m, p))}
    cells = sorted(match_families(m, p), key=lambda d: order[d.matched_perm])
    rng = random.Random(f"classify-{seed}")
    plan = []
    for s in range(requests):
        stratum = cells[s * len(cells) // requests : (s + 1) * len(cells) // requests]
        plan.append((rng.choice(stratum).diagram.mask, rng.getrandbits(63)))
    return plan


class Classify:
    """One ``classify(X, find_perm=True)`` request at a time on seeded tnn
    matrices at (3,4), each restored from a diagram the benchmark drew."""

    name = "classify"

    def __init__(self, seed: int, small: bool, plan):
        self.m, self.p = (2, 3) if small else (3, 4)
        self.plan = plan
        self.attempted = len(plan)

    def build(self) -> None:
        self.requests = []
        for mask, fill_seed in self.plan:
            C = CauchonDiagram(self.m, self.p, mask)
            self.requests.append((C, restore(random_cauchon_matrix(C, fill_seed)).final))

    def steps(self):
        self.replies = []
        return [lambda X=X: self._request(X) for _, X in self.requests]

    def _request(self, X) -> None:
        try:
            self.replies.append(classify(X, find_perm=True))
        except (ValueError, ArithmeticError, SelfCheckError):
            self.replies.append(None)

    def digest(self) -> str:
        return _digest(
            [
                None
                if r is None
                else [r.diagram.mask, sorted(oracles.family_key(r.family)), r.matched_perm.w]
                for r in self.replies
            ]
        )

    def check(self) -> int:
        """Failed requests: an error, a reply naming another diagram than the
        one drawn, a family other than the matrix's vanishing set, or a
        matched permutation outside the restricted set."""
        failed = 0
        for (C, X), reply in zip(self.requests, self.replies):
            ok = (
                reply is not None
                and reply.diagram == C
                and oracles.is_left_or_above(self.m, self.p, reply.diagram.black_cells())
                and oracles.family_key(reply.family) == oracles.tnn_cell(X)
                and reply.matched_perm is not None
                and oracles.is_restricted(self.m, self.p, reply.matched_perm.w)
            )
            failed += not ok
        return failed


WORKLOADS = {w.name: w for w in (Bijection, Corpus, Poisson, Classify)}
