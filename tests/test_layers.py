"""The import graph follows the layers: `specfun` and `transform` import nothing
from the package, `hydrogenic` only `specfun`, at module level, and `forms` only
`hydrogenic` and `specfun`, so the kernels, the numerical transform and R do not
lean on the closed forms (`forms`) or the checks (`verification`) built on them.
Every module may take numpy from `_numpy`, which holds no physics."""

import ast
import pathlib
import sys

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


PACKAGE = {path.stem for path in SRC.glob("*.py")} - {"__init__", "_numpy"}


@pytest.mark.parametrize("module,allowed", [("specfun", set()), ("transform", set()),
                                            ("hydrogenic", {"specfun"}),
                                            ("forms", {"hydrogenic", "specfun"})])
def test_package_imports(module, allowed):
    assert {name for name, _ in imports(module)} & PACKAGE <= allowed


def test_hydrogenic_imports_at_module_level():
    assert [name for name, nested in imports("hydrogenic") if nested] == []


def test_numpy_comes_from_one_loader():
    """numpy is imported at its first use, through `_numpy` alone.  It imports
    only the standard library and defines only its loader and the `np` that
    the loader returns, so it is no path between layers; no other module
    imports numpy, at module level or inside a function."""
    assert {name.split(".")[0] for name, _ in imports("_numpy")} <= sys.stdlib_module_names
    tree = ast.parse((SRC / "_numpy.py").read_text(encoding="utf-8"))
    loader, binding = (node for node in tree.body
                       if not isinstance(node, (ast.Expr, ast.Import, ast.ImportFrom)))
    assert isinstance(loader, ast.FunctionDef) and isinstance(binding, ast.Assign)
    assert [target.id for target in binding.targets] == ["np"]
    assert binding.value.func.id == loader.name and not binding.value.args
    assert {module: names for module in PACKAGE | {"__init__"} if (names := [
        name for name, _ in imports(module) if name.split(".")[0] == "numpy"])} == {}


@pytest.mark.parametrize("module", ["verification", "transform"])
def test_no_fractions_or_numpy_polynomial(module):
    """verify checks N_{Nl} in integers and takes its Gauss-Legendre rules from
    `transform`, so neither module imports fractions or numpy.polynomial, at
    module level or inside a function."""
    assert [name for name, _ in imports(module)
            if name == "fractions" or name.startswith("numpy.polynomial")] == []


def functions_named(word):
    """{module: the sorted names of its functions that contain `word`, in any
    case}, for each module of the package that defines one."""
    defined = {module: sorted(node.name for node in ast.walk(ast.parse(
        (SRC / f"{module}.py").read_text(encoding="utf-8")))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and word in node.name.lower()) for module in PACKAGE}
    return {module: names for module, names in defined.items() if names}


def test_one_spherical_bessel():
    """j_l has one routine, `transform._spherical_bessel`, which the Filon
    weights and the Hankel check share: no other module defines a function
    whose name contains 'bessel'."""
    assert functions_named("bessel") == {"transform": ["_spherical_bessel"]}


def test_one_legendre_recurrence():
    """Bonnet's recurrence has one home, `transform._gauss_legendre`, whose integer
    pass gives the nodes, the weights and the Filon table, and which
    `gauss_legendre_panels` lays out: no other function of the package has
    'legendre' in its name."""
    assert functions_named("legendre") == {
        "transform": ["_gauss_legendre", "gauss_legendre_panels"]}


def loops_outside(module, allowed):
    """The functions of the package's `module` (None for module level) that hold
    a `for` or `while` statement, where the functions that `allowed(name)` admits
    are not searched."""
    found = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if not allowed(child.name):
                    visit(child, child.name)
                continue
            if isinstance(child, (ast.For, ast.AsyncFor, ast.While)):
                found.append(owner)
            visit(child, owner)

    visit(ast.parse((SRC / f"{module}.py").read_text(encoding="utf-8")), None)
    return found


@pytest.mark.parametrize("module", ["specfun", "hydrogenic"])
def test_one_recurrence_runner(module):
    """`specfun.ladder` is the one loop that keeps recurrence rungs: it runs each
    family's steps function (`*_steps`), and outside those no code of `specfun`
    or `hydrogenic` holds a `for` or `while` statement (comprehensions are fine)."""
    assert loops_outside(module, lambda name: name == "ladder" or name.endswith("_steps")) == []


def test_checks_live_in_verification():
    """A residual is a check, and the checks live in `verification`: no other
    module defines a function whose name contains 'residual'."""
    assert set(functions_named("residual")) <= {"verification"}


def test_cli_takes_no_long_double():
    """The CSV digits are double-double (`cli._product`), the same bits and speed
    where long double is a double: `cli` names no long double type and no
    extended-type hook.  `transform` keeps long double for the Filon weights."""
    tree = ast.parse((SRC / "cli.py").read_text(encoding="utf-8"))
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    names |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    assert names & {"longdouble", "float128", "_EXTENDED"} == set()


def test_cli_reader_holds_no_grammar():
    """The grammar is `cli.build_parser`'s alone: `cli._read` reads argv from
    the parsers' own tables, and its body names no option string (no string
    literal that starts with '-'), no choice and no type of an action."""
    from hmomentum import cli

    cli.build_parser()
    actions = [action for command in cli._command_parsers.values()
               for action in command._actions]
    choices = {choice for action in actions for choice in action.choices or ()}
    types = {action.type.__name__ for action in actions if action.type is not None}
    assert types == {"float", "int"} and "trig" in choices
    tree = ast.parse((SRC / "cli.py").read_text(encoding="utf-8"))
    reader, = (node for node in tree.body
               if isinstance(node, ast.FunctionDef) and node.name == "_read")
    body = [node for statement in reader.body[1:] for node in ast.walk(statement)]
    literals = {node.value for node in body if isinstance(node, ast.Constant)}
    assert [text for text in literals if str(text).startswith("-")] == []
    assert literals & choices == set()
    assert {node.id for node in body if isinstance(node, ast.Name)} & types == set()
