"""The import graph follows the layers: `transform` imports nothing from the
package and `hydrogenic` only `specfun`, at module level, so the numerical
transform and R do not lean on the closed forms (`forms`) or the checks
(`verification`) built on them."""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "hmomentum"


def imports(module):
    """(name, nested) of every import in the package's `module`: name is the
    module imported, the package's own by their short names ('forms' for
    `from .forms import x` and `from . import forms`), and nested whether the
    import sits inside a function."""
    found = []

    def visit(node, nested):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Import):
                found.extend((alias.name, nested) for alias in child.names)
            elif isinstance(child, ast.ImportFrom):
                if child.level and child.module is None:
                    found.extend((alias.name, nested) for alias in child.names)
                else:
                    found.append((child.module.removeprefix("hmomentum."), nested))
            visit(child, nested or isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)))

    visit(ast.parse((SRC / f"{module}.py").read_text(encoding="utf-8")), False)
    return found


PACKAGE = {path.stem for path in SRC.glob("*.py")} - {"__init__"}


@pytest.mark.parametrize("module,allowed", [("transform", set()), ("hydrogenic", {"specfun"})])
def test_package_imports(module, allowed):
    assert {name for name, _ in imports(module)} & PACKAGE <= allowed


def test_hydrogenic_imports_at_module_level():
    assert [name for name, nested in imports("hydrogenic") if nested] == []
