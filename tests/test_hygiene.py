"""Source hygiene: every top-level import in the package and in the
test modules is used.

A deletion that leaves an import behind passes every behavioural test,
so this check reads the modules themselves.  The package's __init__.py
is skipped: its imports are the public namespace.
"""

import ast
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
PACKAGE = TESTS.parent / "src" / "domikit"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
MODULES += sorted(TESTS.glob("*.py"))


def imported_names(tree: ast.Module):
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                if alias.name != "annotations":
                    yield alias.asname or alias.name


def test_modules_found():
    assert {p.name for p in MODULES} >= {"cli.py", "domination.py", "systems.py",
                                         "conftest.py", "test_hygiene.py"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_read(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    unused = [name for name in imported_names(tree) if name not in read]
    assert not unused, f"{path.name} imports {unused} without reading them"
