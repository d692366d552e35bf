"""Command-line surface.

Every subcommand prints a stable machine-readable report (JSON by
default) and exits 0 on success, 1 when a verification or assertion
fails, and 2 on usage errors.  All randomness is seed-driven, so equal
invocations produce byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import verify as verify_mod
from .cells import classify, family_of_diagram, is_tnn, match_families
from .combinat import (
    MAX_GRID_CELLS,
    CauchonDiagram,
    RestrictedPermutation,
    count_diagrams,
    enumerate_diagrams,
    enumerate_restricted_perms,
)
from .errors import (
    NotTotallyNonnegativeError,
    SelfCheckError,
    SizeCapError,
)
from .families import family_of_perm
from .laurent import VarRegistry
from .linalg import is_symbolic
from .restoration import delete_derivations, restore
from .serialize import format_matrix_csv, format_trace, parse_matrix_csv

SYMBOLIC_CELL_CAP = 12    # full-grid symbolic restoration
CORPUS_CELL_CAP = 16      # numeric corpora + per-diagram symbolic families
POISSON_CELL_CAP = 9      # symbolic brackets over every diagram


def _emit(obj, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(obj, indent=2))
        return
    # table: one readable line per item / key
    if isinstance(obj, list):
        for row in obj:
            print(json.dumps(row, separators=(",", ":")))
    elif isinstance(obj, dict):
        for k, v in obj.items():
            print(f"{k}: {json.dumps(v, separators=(',', ':'))}")
    else:
        print(obj)


def _fail(message: str, code: int) -> int:
    print(message, file=sys.stderr)
    return code


def _check_cells(m: int, p: int, cap: int | None, force: bool) -> str | None:
    if m < 1 or p < 1:
        return f"grid sizes must be positive, got ({m},{p})"
    if m * p > MAX_GRID_CELLS:
        return f"({m},{p}) exceeds the {MAX_GRID_CELLS}-cell bitmask limit"
    if cap is not None and m * p > cap and not force:
        return (
            f"({m},{p}) exceeds the {cap}-cell symbolic cap; "
            "pass --force to run anyway"
        )
    return None


def _read_text(spec: str) -> str:
    if spec == "-":
        return sys.stdin.read()
    return Path(spec).read_text(encoding="utf-8")


def _load_diagram(spec: str) -> CauchonDiagram:
    text = spec if spec.lstrip().startswith("{") else _read_text(spec)
    return CauchonDiagram.from_json_obj(json.loads(text))


def _load_matrix(spec: str, registry: VarRegistry | None = None):
    return parse_matrix_csv(_read_text(spec), registry)


def _parse_w(text: str, m: int, p: int) -> RestrictedPermutation:
    w = tuple(int(x) for x in text.replace(" ", "").split(","))
    return RestrictedPermutation(m, p, w)


# -- subcommand handlers -------------------------------------------------------


def _cmd_diagrams(args) -> int:
    err = _check_cells(args.m, args.p, None, False)
    if err:
        return _fail(err, 2)
    if args.count:
        _emit({"m": args.m, "p": args.p, "count": count_diagrams(args.m, args.p)}, args.format)
        return 0
    diagrams = [C.to_json_obj() for C in enumerate_diagrams(args.m, args.p)]
    _emit({"m": args.m, "p": args.p, "count": len(diagrams), "diagrams": diagrams}, args.format)
    return 0


def _cmd_perms(args) -> int:
    err = _check_cells(args.m, args.p, None, False)
    if err:
        return _fail(err, 2)
    if args.count:
        n = sum(1 for _ in enumerate_restricted_perms(args.m, args.p))
        _emit({"m": args.m, "p": args.p, "count": n}, args.format)
        return 0
    perms = [w.to_json_obj() for w in enumerate_restricted_perms(args.m, args.p)]
    _emit({"m": args.m, "p": args.p, "count": len(perms), "perms": perms}, args.format)
    return 0


def _cmd_mw(args) -> int:
    err = _check_cells(args.m, args.p, None, False)
    if err:
        return _fail(err, 2)
    try:
        w = _parse_w(args.w, args.m, args.p)
    except ValueError as exc:
        return _fail(f"bad --w: {exc}", 2)
    _emit(family_of_perm(w).to_json_obj(), args.format)
    return 0


def _cmd_mc(args) -> int:
    try:
        C = _load_diagram(args.diagram)
    except (OSError, ValueError, KeyError) as exc:
        return _fail(f"bad --diagram: {exc}", 2)
    err = _check_cells(C.m, C.p, SYMBOLIC_CELL_CAP, args.force)
    if err:
        return _fail(err, 2)
    _emit(family_of_diagram(C).to_json_obj(), args.format)
    return 0


def _cmd_match(args) -> int:
    err = _check_cells(args.m, args.p, SYMBOLIC_CELL_CAP, args.force)
    if err:
        return _fail(err, 2)
    try:
        pairs = match_families(args.m, args.p)
    except SelfCheckError as exc:
        return _fail(f"match failed: {exc}", 1)
    _emit([d.to_json_obj() for d in pairs], args.format)
    return 0


def _cmd_classify(args) -> int:
    try:
        X = _load_matrix(args.matrix)
    except (OSError, ValueError) as exc:
        return _fail(f"bad --matrix: {exc}", 2)
    if is_symbolic(X):
        return _fail("classify requires a rational matrix", 2)
    m, p = len(X), len(X[0])
    err = _check_cells(m, p, CORPUS_CELL_CAP, args.force)
    if err:
        return _fail(err, 2)
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
        return _fail(f"classification self-check failed: {exc}", 1)
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
        report["matched_perm"] = (
            desc.matched_perm.to_json_obj() if desc.matched_perm else None
        )
    _emit(report, args.format)
    return 0


def _run_trace(args, forward: bool) -> int:
    try:
        X = _load_matrix(args.matrix)
    except (OSError, ValueError) as exc:
        return _fail(f"bad --matrix: {exc}", 2)
    m, p = len(X), len(X[0])
    cap = SYMBOLIC_CELL_CAP if is_symbolic(X) else None
    err = _check_cells(m, p, cap, args.force)
    if err:
        return _fail(err, 2)
    trace = restore(X) if forward else delete_derivations(X)
    if args.trace:
        sys.stdout.write(format_trace(trace))
    else:
        sys.stdout.write(
            format_matrix_csv(trace.final if forward else trace.initial)
        )
    return 0


def _cmd_restore(args) -> int:
    return _run_trace(args, forward=True)


def _cmd_delete(args) -> int:
    return _run_trace(args, forward=False)


def _cmd_tnn_check(args) -> int:
    try:
        X = _load_matrix(args.matrix)
    except (OSError, ValueError) as exc:
        return _fail(f"bad --matrix: {exc}", 2)
    if is_symbolic(X):
        return _fail("tnn-check requires a rational matrix", 2)
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


_SUITES = (
    "counting",
    "match",
    "bruhat-monotone",
    "tnn-roundtrip",
    "deletion",
    "poisson",
    "bruhat-cell",
    "all",
)


def _cap(args, default: int) -> int:
    return default if args.cap is None else args.cap


def _run_one_suite(name: str, args) -> verify_mod.SuiteReport | str:
    """Returns the report, or an error string for a usage problem."""
    m, p = args.m, args.p
    if name == "counting":
        if m is None:
            return verify_mod.counting_suite()
        return _check_cells(m, p, None, False) or verify_mod.counting_suite(((m, p),))
    if m is None:
        return f"suite {name} needs explicit sizes: verify {name} M P"
    if name == "match":
        err = _check_cells(m, p, _cap(args, SYMBOLIC_CELL_CAP), args.force)
        return err or verify_mod.match_suite(m, p)
    if name == "bruhat-monotone":
        err = _check_cells(m, p, None, False)
        if err:
            return err
        sample = args.sample
        if sample < 0:  # auto: exhaustive up to (2,3)-scale, else 500 pairs
            sample = None if m + p <= 5 else 500
        return verify_mod.bruhat_monotone_suite(m, p, sample, args.seed)
    if name == "tnn-roundtrip":
        err = _check_cells(m, p, _cap(args, CORPUS_CELL_CAP), args.force)
        return err or verify_mod.tnn_roundtrip_suite(m, p, args.n, args.seed)
    if name == "deletion":
        err = _check_cells(m, p, _cap(args, CORPUS_CELL_CAP), args.force)
        return err or verify_mod.deletion_suite(m, p, args.n, args.seed)
    if name == "poisson":
        err = _check_cells(m, p, _cap(args, POISSON_CELL_CAP), args.force)
        return err or verify_mod.poisson_suite(m, p, args.n, args.seed)
    if name == "bruhat-cell":
        err = _check_cells(m, p, None, False)
        return err or verify_mod.bruhat_cell_suite(m, p, args.samples, args.seed)
    raise AssertionError(name)


def _cmd_verify(args) -> int:
    if (args.m is None) != (args.p is None):
        return _fail("verify needs both sizes or neither", 2)
    if args.n < 0:
        return _fail(f"--n must be nonnegative, got {args.n}", 2)
    if args.samples < 0:
        return _fail(f"--samples must be nonnegative, got {args.samples}", 2)
    if args.cap is not None and args.cap < 1:
        return _fail(f"--cap must be positive, got {args.cap}", 2)
    names: list[str]
    if args.suite == "all":
        names = ["counting", "match", "bruhat-monotone", "tnn-roundtrip", "deletion", "bruhat-cell"]
        if args.m is not None and args.m * args.p <= _cap(args, POISSON_CELL_CAP):
            names.append("poisson")
    else:
        names = [args.suite]
    reports = []
    for name in names:
        out = _run_one_suite(name, args)
        if isinstance(out, str):
            return _fail(out, 2)
        reports.append(out)
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

    sp = add("diagrams", _cmd_diagrams, "enumerate or count Cauchon diagrams")
    sp.add_argument("m", type=int)
    sp.add_argument("p", type=int)
    sp.add_argument("--count", action="store_true")

    sp = add("perms", _cmd_perms, "enumerate or count restricted permutations")
    sp.add_argument("m", type=int)
    sp.add_argument("p", type=int)
    sp.add_argument("--count", action="store_true")

    sp = add("mw", _cmd_mw, "minor family of a restricted permutation")
    sp.add_argument("m", type=int)
    sp.add_argument("p", type=int)
    sp.add_argument("--w", required=True, metavar="W", help="one-line notation, e.g. 3,1,4,2,7,6,5")

    sp = add("mc", _cmd_mc, "minor family of a Cauchon diagram (symbolic restoration)")
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

    for name, handler, help_ in (
        ("restore", _cmd_restore, "run the restoration trace on a matrix"),
        ("delete", _cmd_delete, "run the deleting-derivations trace on a matrix"),
    ):
        sp = add(name, handler, help_)
        sp.add_argument("--matrix", required=True, metavar="PATH|-")
        sp.add_argument("--trace", action="store_true", help="print every labeled step")
        sp.add_argument("--force", action="store_true")

    sp = add("tnn-check", _cmd_tnn_check, "test total nonnegativity, reporting a witness")
    sp.add_argument("--matrix", required=True, metavar="PATH|-")

    sp = add("verify", _cmd_verify, "run a cross-verification suite")
    sp.add_argument("suite", choices=_SUITES)
    sp.add_argument("m", type=int, nargs="?")
    sp.add_argument("p", type=int, nargs="?")
    sp.add_argument("--n", type=int, default=100, help="corpus size / random triples")
    sp.add_argument("--sample", type=int, default=-1, help="pair sample (-1 = auto)")
    sp.add_argument("--samples", type=int, default=20, help="sweeps per case (bruhat-cell)")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--cap", type=int, default=None, help="symbolic cell-count cap override")
    sp.add_argument("--force", action="store_true")

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except SizeCapError as exc:
        return _fail(str(exc), 2)
    except BrokenPipeError:
        return 0


if __name__ == "__main__":
    sys.exit(main())
