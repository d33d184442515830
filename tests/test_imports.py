"""Import hygiene: scipy is loaded only inside the function that uses it.

`import henon_lab` and every subcommand run on numpy alone.  The one
exception imports scipy inside a function body, on first use:
`second_variation.eigh`, the dense reference solve of the tests.  So numpy
is the only runtime dependency in `pyproject.toml`.
"""
import ast
import importlib
import re
from pathlib import Path

import pytest

import henon_lab

PACKAGE = Path(henon_lab.__file__).resolve().parent

ALLOWED = {("second_variation.py", "eigh")}


def _scipy_imports(tree):
    """(enclosing function or None, line) of every import naming scipy."""
    found = []

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.Import):
                modules = [alias.name for alias in child.names]
            elif isinstance(child, ast.ImportFrom):
                modules = [child.module or ""]
            else:
                modules = []
            if any(m == "scipy" or m.startswith("scipy.") for m in modules):
                found.append((function, child.lineno))
            visit(child, function)

    visit(tree, None)
    return found


def test_scipy_imports_only_where_allowed():
    seen = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for function, line in _scipy_imports(ast.parse(path.read_text())):
            where = "at module level" if function is None else f"in {function}"
            assert (path.name, function) in ALLOWED, (
                f"{path.name}:{line} imports scipy {where}")
            seen.add((path.name, function))
    assert seen == ALLOWED


def test_numpy_is_the_only_runtime_dependency():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    project = tomllib.loads(pyproject.read_text())["project"]
    names = [re.match(r"[A-Za-z0-9_.-]+", spec).group()
             for spec in project["dependencies"]]
    assert names == ["numpy"]
    assert any(spec.startswith("scipy")
               for spec in project["optional-dependencies"]["test"])


def test_every_exported_name_resolves_once():
    # A name deleted from a module but left in an `__all__` list is caught
    # here, not by the first `from henon_lab import *` that trips on it.
    modules = [henon_lab] + [
        importlib.import_module(f"henon_lab.{path.stem}")
        for path in sorted(PACKAGE.glob("*.py"))
        if path.stem not in ("__init__", "__main__")]
    checked = 0
    for module in modules:
        exported = getattr(module, "__all__", None)
        if exported is None:  # errors.py exports by plain definition
            continue
        checked += 1
        missing = [name for name in exported if not hasattr(module, name)]
        assert not missing, (module.__name__, missing)
        repeated = sorted({name for name in exported
                           if exported.count(name) > 1})
        assert not repeated, (module.__name__, repeated)
    assert checked >= 10
