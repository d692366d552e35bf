"""Source hygiene: every name a module imports is used in that module,
every module-level private function or class is used somewhere in the
package outside its own definition, every name the package exports is
used by some module of the package, every public method is referenced by
some module of the package, no module-level function or
method is wrapped in a cache that grows for the life of the process, and
every function the benchmark's tracer binds by name still exists.

Stdlib only (`ast`), so it runs wherever the suite does.  For imports,
`__init__.py` is exempt (its imports are the package's re-exports), and so
are `from __future__` imports.  For private definitions and exports,
references from the tests do not count: a helper that only a test calls
belongs in the test.  `__init__.py`'s `__all__` must be exactly the names
it imports, listed once each.

A method is referenced by an attribute of its name outside its own
definition.  The receiver narrows the class when it can: `self` and `cls`
name the enclosing class, and a class of the package named directly names
that class; any other receiver may be any class with that method.
"""

import ast
import importlib
import inspect
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
    "restore_step": "one step of the restoration algorithm, the per-layer unit of aim 1",
    "delete_step": "one step of deleting derivations, the per-layer unit of aim 1",
}

# Public methods no module references, each kept for a stated reason.
METHOD_EXCEPTIONS = {
    "LaurentPoly.partial": "the per-pair reference bracket of the tests; ROADMAP item 6",
    "LaurentPoly.evaluate": "Laurent evaluation only the tests use; ROADMAP item 6",
    "LaurentPoly.constant_value": "only the tests read a constant's value; ROADMAP item 6",
    "LaurentPoly.is_monomial": "only the tests and the sympy oracle ask; ROADMAP item 6",
    "VarRegistry.contains": "registry membership only the tests query; ROADMAP item 6",
    "VarRegistry.gens": "every generator at once, the tests' way to name them; ROADMAP item 6",
    "RestrictedPermutation.inverse": "the inverse permutation, checked by the tests only; "
    "ROADMAP item 6",
    "RestrictedPermutation.from_json_obj": "the reader of `to_json_obj`, which only a "
    "test calls; ROADMAP item 6",
    "MinorFamily.from_json_obj": "the reader of `to_json_obj`, which only a test calls; "
    "ROADMAP item 6",
    "MinorFamily.members": "the family as a frozenset, for the tests and API users; "
    "ROADMAP item 6",
    "PartialPermutation.rank": "the size of a partial permutation, read by the tests only; "
    "ROADMAP item 6",
}


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


def dead_private_definitions(trees: dict[str, ast.Module]) -> dict[str, list[str]]:
    """Module -> its module-level private functions and classes that no
    module mentions outside the definition itself."""
    everywhere = {name: mentioned_names(tree) for name, tree in trees.items()}
    dead = {}
    for name, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, DEFINITIONS):
                continue
            if not node.name.startswith("_") or node.name.endswith("__"):
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
    trees = {p.name: ast.parse(p.read_text(), filename=str(p)) for p in SOURCES}
    assert dead_private_definitions(trees) == {}


def test_detector_flags_a_dead_private_helper():
    trees = {
        "a.py": ast.parse(
            "def _dead():\n    return _dead()\n\n"
            "def _imported():\n    pass\n\n"
            "class _Annotated:\n    pass\n\n"
            "def _called():\n    pass\n\n"
            "def public():\n    return _called()\n\n"
            "def __getattr__(name):\n    pass\n"
        ),
        "b.py": ast.parse("from .a import _imported\nx: '_Annotated | None' = None\n"),
    }
    assert dead_private_definitions(trees) == {"a.py": ["_dead"]}


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


TRACING = PACKAGE.parent.parent / "perfbench" / "tracing.py"


def traced_bindings(tree: ast.Module, table: str) -> list[tuple[str, str]]:
    """(module, function) of every entry of the tracer's literal list
    `table`; its third field may be any expression."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == table for t in node.targets
        ):
            return [(entry.elts[0].value, entry.elts[1].value) for entry in node.value.elts]
    raise LookupError(f"no list {table}")


@pytest.mark.parametrize("table", ["FUNCTIONS", "GENERATORS"])
def test_traced_names_resolve(table):
    # the benchmark's tracer binds these by name; parsed, not imported, so
    # the check needs nothing from the benchmark's own imports
    bindings = traced_bindings(ast.parse(TRACING.read_text(), filename=str(TRACING)), table)
    assert bindings
    for module, name in bindings:
        fn = getattr(importlib.import_module(f"tnncells.{module}"), name, None)
        assert callable(fn), f"tnncells.{module}.{name} is gone"
        if table == "GENERATORS":
            assert inspect.isgeneratorfunction(fn), f"tnncells.{module}.{name} is not a generator"


def test_detector_reads_traced_bindings():
    tree = ast.parse("F = [('linalg', 'all_minors', _lane('x')), ('cells', 'is_tnn', 'y')]\n")
    assert traced_bindings(tree, "F") == [("linalg", "all_minors"), ("cells", "is_tnn")]
