"""Source hygiene: every name a module imports is used in that module,
every module-level function or class the package does not export is used
somewhere in the package outside its own definition, every name the
package exports is used by some module of the package, every public
method is referenced by some module of the package, no module-level
function or method is wrapped in a cache that grows for the life of the
process, every defaulted parameter is passed by some call in the
package, only `linalg` and `minors` reach the integer all-minors table,
only `laurent` names the helpers that keep the Laurent coefficient form,
only `combinat`, `minors` and `verify` name a `mask` attribute,
every function and method the benchmark's tracer binds by name,
and every package name its micro rows import, still exists, every
exception kept for the tracer names a binding it has, and the README's
Library example runs.

Stdlib only (`ast`), so it runs wherever the suite does.  For imports,
`__init__.py` is exempt (its imports are the package's re-exports), and so
are `from __future__` imports.  For unexported definitions and exports,
references from the tests do not count: a helper that only a test calls
belongs in the test.  `__init__.py`'s `__all__` must be exactly the names
it imports, listed once each.

A method is referenced by an attribute of its name outside its own
definition.  The receiver narrows the class when it can: `self` and `cls`
name the enclosing class, and a class of the package named directly names
that class; any other receiver may be any class with that method.

A defaulted parameter that no call sets is a knob that changes nothing.
Calls are matched by the function's name, bare or as an attribute, outside
the function's own definition; a class's `__init__` is also called by the
class's name and by `cls(...)` inside the class's classmethods.  A
parameter is passed by its keyword, by position (a method's call is taken
as bound, so `self` or `cls` is not counted), or by any `*` or `**`
argument that could reach it.
"""

import ast
import importlib
import inspect
from collections import defaultdict
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "tnncells"
SOURCES = sorted(PACKAGE.glob("*.py"))
MODULES = [p for p in SOURCES if p.name != "__init__.py"]
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)
DEFINITIONS = (*FUNCTIONS, ast.ClassDef)

# Exports no other module uses yet, each kept for a stated reason.
EXPORT_EXCEPTIONS = {
    "closure_rank_conditions_hold": "the rank conditions of the orbit closures; "
    "ROADMAP item 3 makes them a verify suite",
    "w_max": "the top of the Bruhat interval of restricted permutations; ROADMAP item 5",
    "matrix_bracket_table": "the standard Poisson structure on matrices, named in the README",
    "all_minors_table": "the benchmark's tracer binds it by name (`FUNCTIONS` in "
    "perfbench/tracing.py); it goes when that binding does, ROADMAP item 1",
    "step_sequence": "the validated list of a grid's step labels; perfbench/workloads.py "
    "calls it in the `poisson` check, and the package reads the cached `_labels`",
}

# Public methods no module references, each kept for a stated reason.
METHOD_EXCEPTIONS = {
    "LaurentPoly.partial": "the benchmark's tracer binds it by name (`METHODS` in "
    "perfbench/tracing.py); it moves into the tests when that binding goes, ROADMAP item 1",
    "CauchonDiagram.black_cells": "perfbench/workloads.py calls it in the `corpus` and "
    "`classify` checks",
}

# Defaulted parameters no call in the package passes, each kept for a
# stated reason.
KNOB_EXCEPTIONS = {
    "main.argv": "the tests pass it; the console script calls `main()`, which "
    "reads `sys.argv`",
}


# The integer all-minors kernel and the denominator-cleared rows it runs
# on: only these modules name them.  Every other module asks
# `minors._sign_masks` for signs and zeros or `linalg.all_minors` for values.
TABLE_NAMES = {"_all_minors", "_scaled_int_rows"}
TABLE_MODULES = {"linalg.py", "minors.py"}

# The coefficient form of a Laurent term map (an integral value stored as
# an int) is kept by these helpers: only `laurent` names them, and every
# other module does Laurent arithmetic through `LaurentPoly`.
COEFFICIENT_NAMES = {"_canonical", "_quotient", "_term_map_mul"}
COEFFICIENT_MODULES = {"laurent.py"}

# The attribute `mask`: a diagram's row-major cell mask, whose layout only
# `combinat` knows (every other module reaches the cells through
# `CauchonDiagram.fill` and `black_cells`), and a minor family's mask, read
# by `minors`, which defines it, and by `verify`, which compares families
# as sets.  These modules, and no others, name it.
MASK_MODULES = {"combinat.py", "minors.py", "verify.py"}


def _walk_outside(tree: ast.AST, skip: ast.AST | None):
    """`ast.walk` over `tree`, leaving out the subtree rooted at `skip`."""
    todo = [tree]
    while todo:
        node = todo.pop()
        if node is not skip:
            yield node
            todo.extend(ast.iter_child_nodes(node))


def imported_names(tree: ast.Module) -> dict[str, int]:
    """Bound name -> line of every import outside `from __future__`."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                out[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                out[alias.asname or alias.name] = node.lineno
    return out


def referenced_names(tree: ast.Module, skip: ast.AST | None = None) -> set[str]:
    """Every bare name the module loads outside `skip`, including inside
    quoted annotations."""
    names = set()
    for node in _walk_outside(tree, skip):
        if isinstance(node, ast.Name):
            names.add(node.id)
        annotations = []
        if isinstance(node, ast.arg):
            annotations.append(node.annotation)
        elif isinstance(node, FUNCTIONS):
            annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
        for ann in annotations:
            for sub in ast.walk(ann) if ann is not None else ():
                if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                    names |= referenced_names(ast.parse(sub.value, mode="eval"))
    return names


def mentioned_names(tree: ast.Module, skip: ast.AST | None = None) -> set[str]:
    """Names the module uses outside `skip`: loaded names, attribute names
    and imported names."""
    names = referenced_names(tree, skip)
    for node in _walk_outside(tree, skip):
        if isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
    return names


def dead_definitions(trees: dict[str, ast.Module], exports: list[str]) -> dict[str, list[str]]:
    """Module -> its module-level functions and classes, outside `exports`
    and dunder names, that no module mentions outside the definition
    itself.  A leading underscore does not matter: a helper whose last
    caller went is dead whatever its name."""
    everywhere = {name: mentioned_names(tree) for name, tree in trees.items()}
    dead = {}
    for name, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, DEFINITIONS):
                continue
            if node.name in exports or node.name.endswith("__"):
                continue
            used = node.name in mentioned_names(tree, skip=node) or any(
                node.name in names for other, names in everywhere.items() if other != name
            )
            if not used:
                dead.setdefault(name, []).append(node.name)
    return dead


def exported_names(tree: ast.Module) -> list[str]:
    """The literal `__all__` list of a module, in its written order."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return list(ast.literal_eval(node.value))
    return []


def unused_exports(trees: dict[str, ast.Module], exports: list[str]) -> list[str]:
    """Exported names that no module mentions outside the name's own
    top-level definition.  `trees` leaves out the re-exporting `__init__`."""

    def used_in(name: str, tree: ast.Module) -> bool:
        own = next((n for n in tree.body if isinstance(n, DEFINITIONS) and n.name == name), None)
        return name in mentioned_names(tree, skip=own)

    return [name for name in exports if not any(used_in(name, t) for t in trees.values())]


def attribute_references(trees: dict[str, ast.Module]) -> list[tuple]:
    """(owner, name, method) of every attribute in the modules.  The
    owner is the class the receiver names (see the module docstring), or
    None; the method is the method definition it sits in, or None."""
    classes = {n.name for t in trees.values() for n in t.body if isinstance(n, ast.ClassDef)}
    refs = []

    def visit(node: ast.AST, cls: str | None, method: ast.AST | None) -> None:
        if isinstance(node, ast.Attribute):
            base = node.value.id if isinstance(node.value, ast.Name) else None
            owner = cls if base in ("self", "cls") else base if base in classes else None
            refs.append((owner, node.attr, method))
        for child in ast.iter_child_nodes(node):
            if isinstance(node, ast.ClassDef):
                visit(child, node.name, child if isinstance(child, FUNCTIONS) else None)
            else:
                visit(child, cls, method)

    for tree in trees.values():
        visit(tree, None, None)
    return refs


def unreferenced_methods(trees: dict[str, ast.Module]) -> list[str]:
    """`Class.method` for every public method of a module-level class that
    no attribute outside its own definition can reach."""
    refs = attribute_references(trees)
    out = []
    for tree in trees.values():
        for cls in tree.body:
            if not isinstance(cls, ast.ClassDef):
                continue
            for node in cls.body:
                if not isinstance(node, FUNCTIONS) or node.name.startswith("_"):
                    continue
                if not any(
                    name == node.name and owner in (None, cls.name) and method is not node
                    for owner, name, method in refs
                ):
                    out.append(f"{cls.name}.{node.name}")
    return out


def _is_unbounded_cache(decorator: ast.expr) -> bool:
    """`cache`, or `lru_cache` with `maxsize=None`, under any import form."""
    call = decorator if isinstance(decorator, ast.Call) else None
    target = call.func if call else decorator
    name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", None)
    if name == "cache":
        return call is None
    if name != "lru_cache" or call is None:
        return False
    maxsize = call.args[0] if call.args else None
    for kw in call.keywords:
        if kw.arg == "maxsize":
            maxsize = kw.value
    return isinstance(maxsize, ast.Constant) and maxsize.value is None


def unbounded_caches(tree: ast.Module) -> list[str]:
    """Module-level functions and methods of module-level classes whose
    decorators include an unbounded cache.  A cache built inside a function
    body lives only as long as that call and is not flagged."""
    functions = []
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            functions += [(f"{node.name}.", sub) for sub in node.body]
        else:
            functions.append(("", node))
    return [
        prefix + node.name
        for prefix, node in functions
        if isinstance(node, FUNCTIONS)
        and any(_is_unbounded_cache(d) for d in node.decorator_list)
    ]


def defaulted_parameters(node: ast.AST) -> list[tuple[str, int | None]]:
    """(name, position among the passable positionals, or None if
    keyword-only) of every parameter of the function that has a default."""
    args = node.args
    positional = args.posonlyargs + args.args
    first = len(positional) - len(args.defaults)
    out = [(a.arg, n) for n, a in enumerate(positional) if n >= first]
    out += [(a.arg, None) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
    return out


def passes(call: ast.Call, name: str, position: int | None) -> bool:
    """Does the call set the parameter, by keyword or by position?"""
    if any(kw.arg in (name, None) for kw in call.keywords):
        return True
    if position is None:
        return False
    for n, arg in enumerate(call.args):
        if isinstance(arg, ast.Starred) or n == position:
            return True
    return False


def calls_by_callee(trees: dict[str, ast.Module]) -> dict[str, list[tuple]]:
    """Callee name -> (call, the function definitions enclosing it) for
    every call in the modules whose callee is a bare name or an attribute."""
    index = defaultdict(list)
    todo = [(tree, ()) for tree in trees.values()]
    while todo:
        node, enclosing = todo.pop()
        if isinstance(node, ast.Call):
            name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
            if name is not None:
                index[name].append((node, enclosing))
        if isinstance(node, FUNCTIONS):
            enclosing = (*enclosing, node)
        todo.extend((child, enclosing) for child in ast.iter_child_nodes(node))
    return index


def unpassed_defaults(trees: dict[str, ast.Module]) -> list[str]:
    """`function.param` or `Class.method.param` for every defaulted
    parameter of a module-level function or method that no call in the
    modules passes (see the module docstring)."""
    index = calls_by_callee(trees)
    functions = []
    for tree in trees.values():
        for node in tree.body:
            if isinstance(node, ast.ClassDef):
                methods = [sub for sub in node.body if isinstance(sub, FUNCTIONS)]
                decorators = {
                    sub: [getattr(d, "id", None) for d in sub.decorator_list] for sub in methods
                }
                classmethods = {sub for sub in methods if "classmethod" in decorators[sub]}
                # `C(...)`, and `cls(...)` inside C's classmethods, call C.__init__
                constructions = index[node.name] + [
                    (call, enclosing)
                    for call, enclosing in index["cls"]
                    if classmethods.intersection(enclosing)
                ]
                for sub in methods:
                    bound = 0 if "staticmethod" in decorators[sub] else 1
                    extra = constructions if sub.name == "__init__" else []
                    functions.append((f"{node.name}.", sub, bound, extra))
            elif isinstance(node, FUNCTIONS):
                functions.append(("", node, 0, ()))
    out = []
    for prefix, fn, bound, constructions in functions:
        calls = [
            call
            for call, enclosing in [*index[fn.name], *constructions]
            if fn not in enclosing
        ]
        for name, position in defaulted_parameters(fn):
            if position is not None:
                position -= bound
            if not any(passes(call, name, position) for call in calls):
                out.append(f"{prefix}{fn.name}.{name}")
    return out


def private_readers(
    trees: dict[str, ast.Module], names: set[str], owners: set[str]
) -> dict[str, list[str]]:
    """Module -> the `names` it mentions, for every module outside `owners`."""
    out = {}
    for name, tree in trees.items():
        found = sorted(names & mentioned_names(tree))
        if found and name not in owners:
            out[name] = found
    return out


def test_modules_found():
    assert {p.name for p in MODULES} >= {"cells.py", "combinat.py", "families.py"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = referenced_names(tree)
    unused = {
        name: line for name, line in imported_names(tree).items() if name not in used
    }
    assert not unused, f"{path.name}: unused imports {unused}"


def test_detector_flags_an_unused_import():
    tree = ast.parse("from typing import Sequence\nimport os.path\nx: 'Iterable' = os\n")
    assert set(imported_names(tree)) == {"Sequence", "os"}
    assert "Sequence" not in referenced_names(tree)
    assert {"os", "Iterable"} <= referenced_names(tree)


def test_no_dead_private_definitions():
    # private to the package: every definition `__all__` does not export
    trees = {p.name: ast.parse(p.read_text(), filename=str(p)) for p in SOURCES}
    assert dead_definitions(trees, exported_names(_init_tree())) == {}


def test_detector_flags_a_dead_private_helper():
    trees = {
        "a.py": ast.parse(
            "def _dead():\n    return _dead()\n\n"
            "def _imported():\n    pass\n\n"
            "class _Annotated:\n    pass\n\n"
            "def _called():\n    pass\n\n"
            "def public():\n    return _called()\n\n"
            "def unexported_helper():\n    pass\n\n"
            "def __getattr__(name):\n    pass\n"
        ),
        "b.py": ast.parse("from .a import _imported\nx: '_Annotated | None' = None\n"),
    }
    assert dead_definitions(trees, ["public"]) == {"a.py": ["_dead", "unexported_helper"]}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unbounded_caches(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    assert unbounded_caches(tree) == [], f"{path.name}: unbounded caches"


def test_detector_flags_an_unbounded_cache():
    tree = ast.parse(
        "import functools\n"
        "from functools import cache, lru_cache\n\n"
        "@cache\ndef a(x): pass\n\n"
        "@functools.cache\ndef b(x): pass\n\n"
        "@lru_cache(maxsize=None)\ndef c(x): pass\n\n"
        "@functools.lru_cache(None)\ndef d(x): pass\n\n"
        "@lru_cache(maxsize=32)\ndef bounded(x): pass\n\n"
        "@lru_cache\ndef default_bound(x): pass\n\n"
        "@functools.lru_cache()\ndef default_call(x): pass\n\n"
        "class K:\n"
        "    @cache\n    def e(self): pass\n\n"
        "    @property\n    def plain(self): pass\n\n"
        "def per_call(ctx):\n"
        "    @cache\n    def inner(x): pass\n"
        "    return cache(ctx.cond)\n"
    )
    assert unbounded_caches(tree) == ["a", "b", "c", "d", "K.e"]


def _init_tree() -> ast.Module:
    path = PACKAGE / "__init__.py"
    return ast.parse(path.read_text(), filename=str(path))


def test_all_is_exactly_the_init_imports():
    tree = _init_tree()
    exports = exported_names(tree)
    assert len(exports) == len(set(exports)), "duplicate names in __all__"
    assert set(exports) == set(imported_names(tree))


def test_every_export_is_used_in_the_package():
    trees = {p.name: ast.parse(p.read_text(), filename=str(p)) for p in MODULES}
    exports = exported_names(_init_tree())
    unused = unused_exports(trees, exports)
    extra = set(unused) - set(EXPORT_EXCEPTIONS)
    assert not extra, f"exported but used by no module: {sorted(extra)}"
    stale = set(EXPORT_EXCEPTIONS) - set(unused)
    assert not stale, f"exceptions no longer needed: {sorted(stale)}"


def test_detector_flags_an_unused_export():
    trees = {
        "a.py": ast.parse(
            "def planted():\n    return planted()\n\n"
            "def called():\n    pass\n\n"
            "class Annotated:\n    pass\n\n"
            "def imported():\n    pass\n\n"
            "def public():\n    return called()\n"
        ),
        "b.py": ast.parse(
            "from .a import imported\nx: 'Annotated | None' = None\nimported()\n"
        ),
    }
    exports = ["planted", "called", "Annotated", "imported", "public"]
    assert unused_exports(trees, exports) == ["planted", "public"]
    init = ast.parse("from .a import planted\n__all__ = ['planted', 'planted']\n")
    assert exported_names(init) == ["planted", "planted"]


def test_every_public_method_is_referenced_in_the_package():
    trees = {p.name: ast.parse(p.read_text(), filename=str(p)) for p in SOURCES}
    unused = unreferenced_methods(trees)
    extra = set(unused) - set(METHOD_EXCEPTIONS)
    assert not extra, f"public methods no module references: {sorted(extra)}"
    stale = set(METHOD_EXCEPTIONS) - set(unused)
    assert not stale, f"exceptions no longer needed: {sorted(stale)}"


def test_detector_flags_an_unreferenced_method():
    trees = {
        "a.py": ast.parse(
            "class A:\n"
            "    def recursive(self):\n        return self.recursive()\n\n"
            "    def by_self(self):\n        pass\n\n"
            "    def by_class(self):\n        pass\n\n"
            "    def by_instance(self):\n        pass\n\n"
            "    def shadowed(self):\n        pass\n\n"
            "    def _private(self):\n        pass\n\n"
            "    def __repr__(self):\n        return self.by_self()\n\n"
            "class B:\n"
            "    def shadowed(self):\n        return self.shadowed\n"
        ),
        "b.py": ast.parse("from .a import A\nA.by_class\nthing.by_instance()\nB.shadowed\n"),
    }
    assert unreferenced_methods(trees) == ["A.recursive", "A.shadowed"]


def test_every_defaulted_parameter_is_passed_in_the_package():
    trees = {p.name: ast.parse(p.read_text(), filename=str(p)) for p in SOURCES}
    unpassed = unpassed_defaults(trees)
    extra = set(unpassed) - set(KNOB_EXCEPTIONS)
    assert not extra, f"defaulted parameters no call in the package passes: {sorted(extra)}"
    stale = set(KNOB_EXCEPTIONS) - set(unpassed)
    assert not stale, f"exceptions no longer needed: {sorted(stale)}"


def test_detector_flags_a_knob():
    trees = {
        "a.py": ast.parse(
            "def f(x, knob=False, used=1, *, kw=None, kw_used=0):\n"
            "    return f(x, True, kw=1)\n\n"
            "def g(x, y=2, z=3):\n    pass\n\n"
            "def h(x, y=2):\n    pass\n\n"
            "class K:\n"
            "    def m(self, a=1, b=2):\n        pass\n\n"
            "    @staticmethod\n    def s(a=1):\n        pass\n\n"
            "    @classmethod\n    def c(cls, a=1):\n        pass\n"
        ),
        "b.py": ast.parse(
            "from .a import K, f, g, h\n"
            "f(1, used=2, kw_used=3)\n"
            "g(*rest)\n"
            "h(1, **options)\n"
            "K().m(5)\n"
            "K.s()\n"
            "K.c(1)\n"
        ),
    }
    assert unpassed_defaults(trees) == ["f.knob", "f.kw", "K.m.b", "K.s.a"]


def test_detector_flags_a_constructor_knob():
    trees = {
        "a.py": ast.parse(
            "class P:\n"
            "    def __init__(self, a, b=1, c=2, d=3, *, e=4):\n        pass\n\n"
            "    @classmethod\n    def make(cls, x):\n        return cls(x, c=x)\n\n"
            "    def other(self):\n        return cls(1, 2, 3, 4, e=5)\n\n"
            "class Q:\n"
            "    def __init__(self, a=1):\n        pass\n\n"
            "    @staticmethod\n    def build():\n        return cls(2)\n"
        ),
        "b.py": ast.parse("from .a import P\nP(1, 2)\n"),
    }
    assert unpassed_defaults(trees) == ["P.__init__.d", "P.__init__.e", "Q.__init__.a"]


def test_the_minors_table_stays_behind_two_modules():
    trees = {p.name: ast.parse(p.read_text(), filename=str(p)) for p in SOURCES}
    assert private_readers(trees, TABLE_NAMES, TABLE_MODULES) == {}


def test_detector_flags_a_table_reader():
    trees = {
        "linalg.py": ast.parse("def _scaled_int_rows(M): pass\ndef _all_minors(r): pass\n"),
        "minors.py": ast.parse("from . import linalg\nlinalg._all_minors(linalg._scaled_int_rows(M))\n"),
        "cells.py": ast.parse("from .linalg import _all_minors\n"),
        "verify.py": ast.parse("from . import linalg\nrows = linalg._scaled_int_rows(M)\n"),
        "restoration.py": ast.parse("from .minors import _sign_masks\n_sign_masks(M)\n"),
    }
    assert private_readers(trees, TABLE_NAMES, TABLE_MODULES) == {
        "cells.py": ["_all_minors"],
        "verify.py": ["_scaled_int_rows"],
    }


def test_the_coefficient_form_stays_behind_laurent():
    trees = {p.name: ast.parse(p.read_text(), filename=str(p)) for p in SOURCES}
    assert private_readers(trees, COEFFICIENT_NAMES, COEFFICIENT_MODULES) == {}


def test_detector_flags_a_coefficient_helper_outside_laurent():
    trees = {
        "laurent.py": ast.parse("def _canonical(c): pass\n_canonical(1)\n"),
        "poisson.py": ast.parse("from .laurent import LaurentPoly, _term_map_mul\n"),
        "restoration.py": ast.parse("from . import laurent\nq = laurent._quotient(x, y)\n"),
        "cells.py": ast.parse("from .laurent import VarRegistry\nVarRegistry.grid(2, 2)\n"),
    }
    assert private_readers(trees, COEFFICIENT_NAMES, COEFFICIENT_MODULES) == {
        "poisson.py": ["_term_map_mul"],
        "restoration.py": ["_quotient"],
    }


def attribute_readers(trees: dict[str, ast.Module], attr: str) -> set[str]:
    """The modules that name an attribute `attr`."""
    return {
        name
        for name, tree in trees.items()
        if any(isinstance(node, ast.Attribute) and node.attr == attr for node in ast.walk(tree))
    }


def test_only_the_mask_owners_name_a_mask():
    trees = {p.name: ast.parse(p.read_text(), filename=str(p)) for p in SOURCES}
    assert attribute_readers(trees, "mask") == MASK_MODULES


def test_detector_flags_a_mask_reader():
    trees = {
        "combinat.py": ast.parse("class D:\n    def f(self):\n        return self.mask & 1\n"),
        "cells.py": ast.parse("white = ~C.mask\n"),
        "restoration.py": ast.parse("M = C.fill(lambda i, a: 1, 0)\nmask = 0\n"),
        "minors.py": ast.parse("object.__setattr__(self, 'mask', mask)\n"),
    }
    assert attribute_readers(trees, "mask") == {"combinat.py", "cells.py"}


TRACING = PACKAGE.parent.parent / "perfbench" / "tracing.py"
ROUND = PACKAGE.parent.parent / "perfbench" / "round.py"


def traced_bindings(tree: ast.Module, table: str) -> list[tuple[str, str]]:
    """The first two fields of every entry of the tracer's literal list
    `table`: (module, function), or (method, metric) in `METHODS`.  A third
    field may be any expression."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == table for t in node.targets
        ):
            return [(entry.elts[0].value, entry.elts[1].value) for entry in node.value.elts]
    raise LookupError(f"no list {table}")


def package_imports(tree: ast.Module) -> list[str]:
    """Every name a `from tnncells import ...` in the module imports."""
    return [
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "tnncells"
        for alias in node.names
    ]


@pytest.mark.parametrize("table", ["FUNCTIONS", "GENERATORS", "METHODS", "round.py"])
def test_traced_names_resolve(table):
    # the benchmark's tracer binds these by name, and its micro rows
    # (perfbench/round.py) import them from the package; parsed, not
    # imported, so the check needs nothing from the benchmark's own imports
    if table == "round.py":
        names = package_imports(ast.parse(ROUND.read_text(), filename=str(ROUND)))
        assert names
        package = importlib.import_module("tnncells")
        for name in names:
            assert callable(getattr(package, name, None)), f"tnncells.{name} is gone"
        return
    bindings = traced_bindings(ast.parse(TRACING.read_text(), filename=str(TRACING)), table)
    assert bindings
    if table == "METHODS":
        laurent_poly = importlib.import_module("tnncells.laurent").LaurentPoly
        for name, _ in bindings:
            assert callable(getattr(laurent_poly, name, None)), f"LaurentPoly.{name} is gone"
        return
    for module, name in bindings:
        fn = getattr(importlib.import_module(f"tnncells.{module}"), name, None)
        assert callable(fn), f"tnncells.{module}.{name} is gone"
        if table == "GENERATORS":
            assert inspect.isgeneratorfunction(fn), f"tnncells.{module}.{name} is not a generator"


def test_detector_reads_traced_bindings():
    tree = ast.parse("F = [('linalg', 'all_minors', _lane('x')), ('cells', 'is_tnn', 'y')]\n")
    assert traced_bindings(tree, "F") == [("linalg", "all_minors"), ("cells", "is_tnn")]
    tree = ast.parse("M = [('__mul__', 'laurent.mul'), ('partial', 'laurent.partial')]\n")
    assert traced_bindings(tree, "M") == [
        ("__mul__", "laurent.mul"),
        ("partial", "laurent.partial"),
    ]
    tree = ast.parse("def f():\n    from tnncells import a, b as c\n    from os import d\n")
    assert package_imports(tree) == ["a", "b"]


def unbound_citations(reasons: dict[str, str], tree: ast.Module) -> list[str]:
    """Exception keys whose reason cites perfbench/tracing.py without
    naming, in backquotes, a table of `tree` that binds the excepted name:
    an export by its function name in `FUNCTIONS` or `GENERATORS`, a
    `Class.method` by its method name in `METHODS`."""
    out = []
    for key, reason in reasons.items():
        if "perfbench/tracing.py" not in reason:
            continue
        names = [
            binding[0] if table == "METHODS" else binding[1]
            for table in ("FUNCTIONS", "GENERATORS", "METHODS")
            if f"`{table}`" in reason
            for binding in traced_bindings(tree, table)
        ]
        if key.rsplit(".", 1)[-1] not in names:
            out.append(key)
    return out


def test_exception_reasons_cite_live_bindings():
    # an exception kept because the benchmark's tracer binds it must be
    # bound there, or the reason claims a role no harness gives it
    tree = ast.parse(TRACING.read_text(), filename=str(TRACING))
    assert unbound_citations({**EXPORT_EXCEPTIONS, **METHOD_EXCEPTIONS}, tree) == []


def test_detector_flags_an_unbound_citation():
    tree = ast.parse("FUNCTIONS = [('minors', 'a', 'x')]\nMETHODS = [('partial', 'p')]\n")
    reasons = {
        "a": "binds it (`FUNCTIONS` in perfbench/tracing.py)",
        "b": "binds it (`FUNCTIONS` in perfbench/tracing.py)",
        "K.partial": "binds it (`METHODS` in perfbench/tracing.py)",
        "K.mul": "binds it (`METHODS` in perfbench/tracing.py)",
        "c": "perfbench/tracing.py binds it",
        "d": "ROADMAP item 3",
    }
    assert unbound_citations(reasons, tree) == ["b", "K.mul", "c"]


README = PACKAGE.parent.parent / "README.md"


def test_readme_library_example_runs():
    # the first python block under "## Library", run as a reader would run it
    section = README.read_text().split("\n## Library\n", 1)[1]
    code = section.split("```python\n", 1)[1].split("\n```", 1)[0]
    exec(compile(code, f"{README.name} (Library)", "exec"), {})
