"""Import hygiene: scipy is loaded only inside the function that uses it.

`import henon_lab` and every subcommand run on numpy alone.  The one
exception imports scipy inside a function body, on first use:
`second_variation.eigh`, the dense reference solve of the tests.
"""
import ast
from pathlib import Path

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
