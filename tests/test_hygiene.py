"""Source hygiene: every top-level import in the package and in the
test modules is used, every definition of the package is read, every
option of the package is set by some caller outside the tests, every
exported name and every public member of a public class is read outside
the tests, no exported name hides a submodule, no module but `systems`
reads a system's raw structure function, and importing the
command line or the parser loads neither `dataclasses` nor `inspect`.

A deletion that leaves an import, a definition or an option behind
passes every behavioural test, so these checks read the modules
themselves.  The package's __init__.py is skipped by the import check:
its imports are the public namespace.
"""

import ast
import importlib
import os
import subprocess
import sys
from itertools import takewhile
from pathlib import Path

import pytest

import domikit

TESTS = Path(__file__).resolve().parent
PACKAGE = TESTS.parent / "src" / "domikit"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
MODULES += sorted(TESTS.glob("*.py"))
CALLERS = sorted(PACKAGE.glob("*.py")) + sorted(TESTS.glob("*.py"))
CALLERS += sorted((TESTS.parent / "perfbench").glob("*.py"))


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


def public_functions(tree: ast.Module):
    """Public top-level functions and public methods of public classes,
    each with the number of its leading parameters that a call does not
    pass: 1 for a method's self, else 0."""
    for node in tree.body:
        body, bound = [node], 0
        if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            body, bound = node.body, 1
        for fn in body:
            if isinstance(fn, ast.FunctionDef) and not fn.name.startswith("_"):
                yield fn, bound


def options(fn: ast.FunctionDef, bound: int):
    """(name, position) of each option of a function: a positional
    parameter with a default, at its position among a call's arguments,
    and a keyword-only parameter, at position None."""
    params = fn.args.posonlyargs + fn.args.args
    for i in range(len(params) - len(fn.args.defaults), len(params)):
        yield params[i].arg, i - bound
    for arg in fn.args.kwonlyargs:
        yield arg.arg, None


def test_every_keyword_option_is_set_by_a_caller():
    """An option, a keyword-only parameter or a positional one with a
    default, that no call in the package or the benchmark sets is a
    constant dressed as an option: one that only the tests set is theirs
    to vary, not a caller's.  Calls are matched on the called name; a
    call sets an option by its name, or by its position before any
    *args.  A **kwargs call sets no option by name: it only forwards."""
    passed: dict[str, set] = {}
    for path in (p for p in CALLERS if p.parent != TESTS):
        for call in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(call, ast.Call):
                name = getattr(call.func, "id", getattr(call.func, "attr", None))
                plain = takewhile(lambda a: not isinstance(a, ast.Starred), call.args)
                passed.setdefault(name, set()).update(
                    range(len(list(plain))), (kw.arg for kw in call.keywords if kw.arg))
    unset = [f"{path.name}: {fn.name}({name}=)"
             for path in sorted(PACKAGE.glob("*.py"))
             for fn, bound in public_functions(ast.parse(path.read_text(encoding="utf-8")))
             for name, position in options(fn, bound)
             if not passed.get(fn.name, set()) & {name, position}]
    assert not unset, f"options no caller sets: {unset}"


def reads(paths):
    """What the modules read: names and imported names, and attributes."""
    names, attributes = set(), set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                attributes.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name)
    return names, attributes


def test_every_definition_is_read():
    """A top-level function or class of the package that nothing reads,
    as a name, an attribute or an imported name, in the package, the
    tests or the benchmark, is dead code; so is a method (dunders aside)
    that is never read as an attribute.  A definition's own name is not
    a read of it."""
    names, attributes = reads(CALLERS)
    names |= attributes
    unread = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name not in names:
                unread.append(f"{path.name} {node.name}")
            for method in node.body if isinstance(node, ast.ClassDef) else ():
                if (isinstance(method, ast.FunctionDef) and not method.name.startswith("__")
                        and method.name not in attributes):
                    unread.append(f"{path.name} {node.name}.{method.name}")
    assert not unread, f"definitions nothing reads: {unread}"


def test_every_public_member_is_read_outside_the_tests():
    """A public method, property or annotated class-level field of a
    public class that no module of the package and no benchmark script
    reads as an attribute serves only the tests.  Members match by name
    alone, so a member counts as read when any attribute of its name is:
    the check is a lower bound.  Dunders are exempt."""
    _, attributes = reads(p for p in CALLERS if p.parent != TESTS)
    unread = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if not isinstance(node, ast.ClassDef) or node.name.startswith("_"):
                continue
            for member in node.body:
                if isinstance(member, ast.FunctionDef):
                    name = member.name
                elif isinstance(member, ast.AnnAssign) and isinstance(member.target, ast.Name):
                    name = member.target.id
                else:
                    continue
                if not name.startswith("_") and name not in attributes:
                    unread.append(f"{path.name} {node.name}.{name}")
    assert not unread, f"members read only by the tests: {unread}"


def test_only_systems_reads_the_raw_structure_function():
    """A system's _func is phi before the range check and the level
    threshold.  A route outside `systems` that reads it skips both:
    binary_signed_domination and the recursion once read 2-of-3 as the
    raw sum and gave 0 and 1, not -2 and 2.  Every other module goes
    through evaluate, a level function or a tabulator."""
    readers = [f"{path.name}:{node.lineno}"
               for path in sorted(PACKAGE.glob("*.py")) if path.name != "systems.py"
               for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
               if isinstance(node, ast.Attribute) and node.attr == "_func"]
    assert not readers, f"_func read outside systems.py: {readers}"


def test_int_byte_conversions_name_length_and_byteorder():
    """int.to_bytes needs its length and byteorder, and int.from_bytes its
    byteorder, on Python 3.10, the oldest version the package supports;
    3.11 made them optional, so a call that leaves them out passes here
    and breaks there."""
    required = {"to_bytes": ("length", "byteorder"), "from_bytes": ("bytes", "byteorder")}
    short = []
    for path in sorted(PACKAGE.glob("*.py")):
        for call in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            names = isinstance(call, ast.Call) and required.get(getattr(call.func, "attr", None))
            if names:
                passed = set(names[:len(call.args)]) | {kw.arg for kw in call.keywords}
                if not passed >= set(names):
                    short.append(f"{path.name}:{call.lineno} {call.func.attr}")
    assert not short, f"byte conversions without length or byteorder: {short}"


def test_every_error_class_is_raised():
    """An error class that no raise in the package names is a promise of
    a failure mode the package no longer has."""
    raised = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                raised.add(getattr(exc, "id", getattr(exc, "attr", None)))
    errors = ast.parse((PACKAGE / "errors.py").read_text(encoding="utf-8"))
    classes = [node.name for node in errors.body
               if isinstance(node, ast.ClassDef) and node.name != "DomikitError"]
    assert classes and not set(classes) - raised, f"never raised: {sorted(set(classes) - raised)}"


#: the paper's two objects, the signed domination of a level function and
#: the associated binary system it reduces to, exported for library
#: callers whether or not a route reads them
PAPER_NAMES = {"delta_at", "associated_binary"}


def test_every_export_is_read_by_the_package_or_the_benchmark():
    """A name the package exports that no module of the package and no
    benchmark script reads serves only the tests: it belongs in them."""
    init = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    exported = {alias.asname or alias.name for node in init.body if isinstance(node, ast.ImportFrom)
                for alias in node.names if not alias.name.startswith("_")}
    names, attributes = reads(p for p in CALLERS if p.parent != TESTS and p.name != "__init__.py")
    unread = exported - names - attributes - PAPER_NAMES
    assert exported > PAPER_NAMES
    assert not unread, f"exported, read only by the tests: {sorted(unread)}"


@pytest.mark.parametrize("path", [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"],
                         ids=lambda p: p.stem)
def test_no_public_name_shadows_a_submodule(path):
    """`import domikit.<stem> as m` binds getattr(domikit, stem), so a
    package attribute of a submodule's name hides that submodule."""
    module = importlib.import_module(f"domikit.{path.stem}")
    assert getattr(domikit, path.stem) is module


def loaded_modules(statement: str) -> set[str]:
    """The modules a fresh interpreter holds after `statement`, run with
    this interpreter's executable and the package's source on its path."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [
        str(PACKAGE.parent), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", f"{statement}\nimport sys\nprint(*sys.modules)"],
                          capture_output=True, text=True, check=True, env=env)
    return set(proc.stdout.split())


@pytest.mark.parametrize("statement", ["import domikit.cli",
                                       "from domikit.documents import parse_system"])
def test_importing_the_package_loads_neither_dataclasses_nor_inspect(statement):
    """Every process the command line starts pays for the package's
    imports; `dataclasses` alone brings `inspect`, `ast`, `dis` and
    `tokenize`, none of which the package reads."""
    added = loaded_modules(statement) - loaded_modules("pass")
    assert "domikit.documents" in added
    assert not added & {"dataclasses", "inspect"}, sorted(added)
