"""Source hygiene: every name a module imports is used in that module.

Stdlib only (`ast`), so it runs wherever the suite does.  `__init__.py`
is exempt (its imports are the package's re-exports), and so are
`from __future__` imports.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "tnncells"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


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


def referenced_names(tree: ast.Module) -> set[str]:
    """Every bare name the module loads, including inside quoted
    annotations."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        annotations = []
        if isinstance(node, ast.arg):
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
        for ann in annotations:
            for sub in ast.walk(ann) if ann is not None else ():
                if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                    names |= referenced_names(ast.parse(sub.value, mode="eval"))
    return names


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
