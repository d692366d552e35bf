"""Command-line surface.

Every subcommand prints a stable machine-readable report (JSON by
default) and exits 0 on success, 1 when a verification or assertion
fails, and 2 on usage errors: bad sizes, flags or input, a grid or a
count over its cap without ``--force``, or a symbolic pivot that does not
divide.  Input helpers raise :class:`UsageError`; only :func:`main`
prints it and exits 2.
The ``verify`` suites are the one table ``_SUITES``.  All randomness is
seed-driven, so equal invocations produce byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Callable, NamedTuple

from . import verify as verify_mod
from .cells import classify, family_of_diagram, is_tnn, match_families
from .combinat import (
    MAX_GRID_CELLS,
    CauchonDiagram,
    RestrictedPermutation,
    _count_restricted_perms,
    count_diagrams,
    enumerate_diagrams,
    enumerate_restricted_perms,
)
from .errors import (
    InexactDivisionError,
    NotTotallyNonnegativeError,
    SelfCheckError,
    SizeCapError,
)
from .families import family_of_perm
from .linalg import is_symbolic
from .restoration import delete_derivations, restore
from .serialize import format_matrix_csv, format_trace, parse_matrix_csv

# mc and match keep the symbolic cap although both family routes are numeric:
# `mc --force` on the all-white (6,6) diagram takes 0.2 s.  Raising it for
# them waits on the permutation side, which match enumerates in full.
SYMBOLIC_CELL_CAP = 12    # full-grid symbolic restore and delete; mc, match
CORPUS_CELL_CAP = 16      # numeric corpora + per-diagram positive-point families
POISSON_CELL_CAP = 9      # symbolic brackets over every diagram
SWEEP_CELL_CAP = 12       # every permutation pair, or partial permutation x minor
PERMUTATION_SPAN_CAP = 8  # M+P, for suites that walk permutations of M+P letters
ENUMERATION_CELL_CAP = 16  # diagrams and perms each list up to 2^(MP), at (1,MP)


class UsageError(Exception):
    """Bad command-line input; :func:`main` prints the message and exits 2."""


def _emit(obj, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(obj, indent=2))
        return
    # table: one readable line per item / key
    if isinstance(obj, list):
        for row in obj:
            print(json.dumps(row, separators=(",", ":")))
    else:
        for k, v in obj.items():
            print(f"{k}: {json.dumps(v, separators=(',', ':'))}")


def _check_cells(m: int, p: int, cap: int | None = None, force: bool = False) -> None:
    if m < 1 or p < 1:
        raise UsageError(f"grid sizes must be positive, got ({m},{p})")
    if m * p > MAX_GRID_CELLS:
        raise UsageError(f"({m},{p}) exceeds the {MAX_GRID_CELLS}-cell bitmask limit")
    if cap is not None and m * p > cap and not force:
        raise UsageError(f"({m},{p}) exceeds the {cap}-cell cap; pass --force to run anyway")


def _read_text(spec: str) -> str:
    if spec == "-":
        return sys.stdin.read()
    return Path(spec).read_text(encoding="utf-8")


def _load_diagram(spec: str) -> CauchonDiagram:
    try:
        text = spec if spec.lstrip().startswith("{") else _read_text(spec)
        return CauchonDiagram.from_json_obj(json.loads(text))
    except (OSError, ValueError, RecursionError) as exc:  # json.loads recurses on nesting
        raise UsageError(f"bad --diagram: {exc}") from exc


def _load_matrix(args, rational: bool = False):
    try:
        X = parse_matrix_csv(_read_text(args.matrix))
    except (OSError, ValueError) as exc:
        raise UsageError(f"bad --matrix: {exc}") from exc
    if rational and is_symbolic(X):
        raise UsageError(f"{args.command} requires a rational matrix")
    return X


# -- subcommand handlers -------------------------------------------------------


def _cmd_enumerate(args) -> int:
    """``diagrams`` and ``perms``: the parser sets ``args.enumerate``, and
    ``args.counter`` for ``--count``.  The slowest grids under the cap, on
    a shared 2-core box: ``diagrams 16 1`` and ``1 16`` (2.5-3 s, most of
    it writing 27 MiB of JSON), ``perms 1 16`` and ``16 1`` (1.3 s)."""
    _check_cells(args.m, args.p, ENUMERATION_CELL_CAP, args.force)
    if args.count:
        _emit({"m": args.m, "p": args.p, "count": args.counter(args.m, args.p)}, args.format)
        return 0
    objs = [x.to_json_obj() for x in args.enumerate(args.m, args.p)]
    _emit({"m": args.m, "p": args.p, "count": len(objs), args.command: objs}, args.format)
    return 0


def _cmd_mw(args) -> int:
    _check_cells(args.m, args.p)
    try:
        w = tuple(int(x) for x in args.w.replace(" ", "").split(","))
        perm = RestrictedPermutation(args.m, args.p, w)
    except ValueError as exc:
        raise UsageError(f"bad --w: {exc}") from exc
    _emit(family_of_perm(perm).to_json_obj(), args.format)
    return 0


def _cmd_mc(args) -> int:
    C = _load_diagram(args.diagram)
    _check_cells(C.m, C.p, SYMBOLIC_CELL_CAP, args.force)
    _emit(family_of_diagram(C).to_json_obj(), args.format)
    return 0


def _cmd_match(args) -> int:
    _check_cells(args.m, args.p, SYMBOLIC_CELL_CAP, args.force)
    try:
        pairs = match_families(args.m, args.p)
    except SelfCheckError as exc:
        print(f"match failed: {exc}", file=sys.stderr)
        return 1
    _emit([d.to_json_obj() for d in pairs], args.format)
    return 0


def _cmd_classify(args) -> int:
    X = _load_matrix(args, rational=True)
    _check_cells(len(X), len(X[0]), CORPUS_CELL_CAP, args.force)
    try:
        desc = classify(X, find_perm=args.find_perm)
    except NotTotallyNonnegativeError as exc:
        _emit(
            {
                "error": "not totally nonnegative",
                "witness": exc.witness.text(),
                "value": str(exc.value),
            },
            args.format,
        )
        return 1
    except SelfCheckError as exc:
        print(f"classification self-check failed: {exc}", file=sys.stderr)
        return 1
    report = {
        "diagram": desc.diagram.to_json_obj(),
        "family": desc.family.to_json_obj(),
        "assertions_passed": [
            "all-minors-nonnegative",
            "deleted-zero-pattern-is-cauchon",
            "vanishing-family-matches-diagram-family",
        ],
    }
    if args.find_perm:
        report["matched_perm"] = desc.matched_perm.to_json_obj()
    _emit(report, args.format)
    return 0


def _cmd_trace(args) -> int:
    """``restore`` runs the trace forward, ``delete`` backward."""
    X = _load_matrix(args)
    cap = SYMBOLIC_CELL_CAP if is_symbolic(X) else None
    _check_cells(len(X), len(X[0]), cap, args.force)
    forward = args.command == "restore"
    try:
        trace = restore(X) if forward else delete_derivations(X)
    except InexactDivisionError as exc:  # a symbolic pivot that does not divide
        raise UsageError(f"{args.command}: {exc}") from exc
    if args.trace:
        sys.stdout.write(format_trace(trace))
    else:
        sys.stdout.write(
            format_matrix_csv(trace.final if forward else trace.initial)
        )
    return 0


def _cmd_tnn_check(args) -> int:
    X = _load_matrix(args, rational=True)
    _check_cells(len(X), len(X[0]))
    verdict = is_tnn(X)
    _emit(
        {
            "is_tnn": verdict.is_tnn,
            "witness": verdict.witness.text() if verdict.witness else None,
            "value": str(verdict.witness_value) if verdict.witness is not None else None,
        },
        args.format,
    )
    return 0


class _Suite(NamedTuple):
    run: Callable[[argparse.Namespace], verify_mod.SuiteReport]  # reads verify_mod when run
    cap: int | None = None   # default cell cap, which --cap overrides
    span: int | None = None  # cap on M+P
    sized: bool = True       # False: runs its default sizes when M P are omitted
    optional: bool = False   # `verify all` runs it last, and skips it over its cap


# Every suite caps its sizes; --force lifts every cap.  The slowest sizes
# they accept, in CLI wall time on a 2-core box: bruhat-cell (4,3) and
# (3,4) 0.3 s, poisson (1,9) and (9,1) with 512 diagrams each 0.2 s,
# counting (4,4) 0.15 s, bruhat-monotone (6,2) 0.1 s.  The counts are
# capped too, so no count can hang a run; at the slowest sizes: poisson
# (1,9) --n 10000 2.8 s, deletion (4,4) --n 10000 3.2 s, tnn-roundtrip
# (4,4) --n 10000 1.6 s, bruhat-cell (4,3) --samples 500 4.0 s,
# bruhat-monotone (2,6) --sample 100000 0.5 s.
_COUNT_CAPS = {"n": 10_000, "samples": 500, "sample": 100_000}
_SUITES = {
    "counting": _Suite(  # its filter oracle walks all (M+P)! permutations
        lambda a: verify_mod.counting_suite()
        if a.m is None else verify_mod.counting_suite(((a.m, a.p),)),
        span=PERMUTATION_SPAN_CAP,
        sized=False,
    ),
    "match": _Suite(lambda a: verify_mod.match_suite(a.m, a.p), SYMBOLIC_CELL_CAP),
    # an omitted --sample is exhaustive up to (2,3)-scale, else 500 pairs
    "bruhat-monotone": _Suite(lambda a: verify_mod.bruhat_monotone_suite(
        a.m, a.p, (None if a.m + a.p <= 5 else 500) if a.sample is None else a.sample, a.seed
    ), SWEEP_CELL_CAP, PERMUTATION_SPAN_CAP),
    "tnn-roundtrip": _Suite(
        lambda a: verify_mod.tnn_roundtrip_suite(a.m, a.p, a.n, a.seed), CORPUS_CELL_CAP
    ),
    "deletion": _Suite(lambda a: verify_mod.deletion_suite(a.m, a.p, a.n, a.seed), CORPUS_CELL_CAP),
    "poisson": _Suite(
        lambda a: verify_mod.poisson_suite(a.m, a.p, a.n, a.seed), POISSON_CELL_CAP, optional=True
    ),
    "bruhat-cell": _Suite(
        lambda a: verify_mod.bruhat_cell_suite(a.m, a.p, a.samples, a.seed), SWEEP_CELL_CAP
    ),
}


def _cmd_verify(args) -> int:
    if (args.m is None) != (args.p is None):
        raise UsageError("verify needs both sizes or neither")
    for flag, cap in _COUNT_CAPS.items():
        value = getattr(args, flag)
        if value is None:
            continue
        if value < 0:
            raise UsageError(f"--{flag} must be nonnegative, got {value}")
        if value > cap and not args.force:
            raise UsageError(
                f"--{flag} {value} exceeds the cap of {cap}; pass --force to run anyway"
            )
    if args.cap is not None and args.cap < 1:
        raise UsageError(f"--cap must be positive, got {args.cap}")
    if args.suite == "all":
        names = sorted(_SUITES, key=lambda name: _SUITES[name].optional)
    else:
        names = [args.suite]
    if args.m is None and any(_SUITES[name].sized for name in names):
        raise UsageError(f"suite {args.suite} needs explicit sizes: verify {args.suite} M P")
    runs = []
    for name in names:
        suite = _SUITES[name]
        cap = suite.cap if suite.cap is None or args.cap is None else args.cap
        if args.m is not None:
            if suite.optional and args.suite == "all" and args.m * args.p > cap:
                continue
            _check_cells(args.m, args.p, cap, args.force)
            if suite.span is not None and args.m + args.p > suite.span and not args.force:
                raise UsageError(
                    f"({args.m},{args.p}) exceeds the {suite.span}-letter permutation cap "
                    "on M+P; pass --force to run anyway"
                )
        runs.append(suite.run)
    reports = [run(args) for run in runs]
    obj = reports[0].to_json_obj() if len(reports) == 1 else [r.to_json_obj() for r in reports]
    _emit(obj, args.format)
    return 0 if all(r.ok for r in reports) else 1


# -- parser --------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tnncells",
        description=(
            "Exact invariants of totally nonnegative matrix cells: Cauchon "
            "diagrams, restricted permutations, minor families, restoration "
            "and deleting-derivations traces, and Poisson-bracket checks."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, handler, help_: str):
        sp = sub.add_parser(name, help=help_)
        sp.set_defaults(handler=handler)
        sp.add_argument("--format", choices=("json", "table"), default="json")
        return sp

    for name, enumerate_, counter, help_ in (
        ("diagrams", enumerate_diagrams, count_diagrams, "enumerate or count Cauchon diagrams"),
        (
            "perms",
            enumerate_restricted_perms,
            _count_restricted_perms,
            "enumerate or count restricted permutations",
        ),
    ):
        sp = add(name, _cmd_enumerate, help_)
        sp.set_defaults(enumerate=enumerate_, counter=counter)
        sp.add_argument("m", type=int)
        sp.add_argument("p", type=int)
        sp.add_argument("--count", action="store_true")
        sp.add_argument("--force", action="store_true")

    sp = add("mw", _cmd_mw, "minor family of a restricted permutation")
    sp.add_argument("m", type=int)
    sp.add_argument("p", type=int)
    sp.add_argument("--w", required=True, metavar="W", help="one-line notation, e.g. 3,1,4,2,7,6,5")

    sp = add("mc", _cmd_mc, "minor family of a Cauchon diagram (restoration at a positive point)")
    sp.add_argument("--diagram", required=True, metavar="JSON|PATH|-")
    sp.add_argument("--force", action="store_true")

    sp = add("match", _cmd_match, "match permutation families against diagram families")
    sp.add_argument("m", type=int)
    sp.add_argument("p", type=int)
    sp.add_argument("--force", action="store_true")

    sp = add("classify", _cmd_classify, "identify the cell of a tnn matrix")
    sp.add_argument("--matrix", required=True, metavar="PATH|-")
    sp.add_argument("--find-perm", action="store_true")
    sp.add_argument("--force", action="store_true")

    for name, help_ in (
        ("restore", "run the restoration trace on a matrix"),
        ("delete", "run the deleting-derivations trace on a matrix"),
    ):
        sp = add(name, _cmd_trace, help_)
        sp.add_argument("--matrix", required=True, metavar="PATH|-")
        sp.add_argument("--trace", action="store_true", help="print every labeled step")
        sp.add_argument("--force", action="store_true")

    sp = add("tnn-check", _cmd_tnn_check, "test total nonnegativity, reporting a witness")
    sp.add_argument("--matrix", required=True, metavar="PATH|-")

    sp = add("verify", _cmd_verify, "run a cross-verification suite")
    sp.add_argument("suite", choices=(*_SUITES, "all"))
    sp.add_argument("m", type=int, nargs="?")
    sp.add_argument("p", type=int, nargs="?")
    sp.add_argument("--n", type=int, default=100, help="corpus size / random triples")
    sp.add_argument(
        "--sample", type=int, default=None,
        help="pairs to sample (bruhat-monotone; default: all pairs if M+P <= 5, else 500)",
    )
    sp.add_argument("--samples", type=int, default=20, help="sweeps per case (bruhat-cell)")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--cap", type=int, default=None, help="cell-count cap for every capped suite")
    sp.add_argument("--force", action="store_true")

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except (UsageError, SizeCapError) as exc:
        print(exc, file=sys.stderr)
        return 2
    except BrokenPipeError:
        return 0


if __name__ == "__main__":
    sys.exit(main())
