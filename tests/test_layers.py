"""The import graph follows the layers: `specfun` and `transform` import nothing
from the package, `hydrogenic` only `specfun`, at module level, `forms` only
`hydrogenic` and `specfun`, and the CSV formatter `_csv` only `transform`, so
the kernels, the numerical transform and R do not lean on the closed forms
(`forms`) or the checks (`verification`) built on them.  Every module may take
numpy from `_numpy`, which holds no physics."""

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
                                            ("forms", {"hydrogenic", "specfun"}),
                                            ("_csv", {"transform"})])
def test_package_imports(module, allowed):
    assert {name for name, _ in imports(module)} & PACKAGE <= allowed


def test_hydrogenic_imports_at_module_level():
    assert [name for name, nested in imports("hydrogenic") if nested] == []


@pytest.mark.parametrize("module", ["__init__", "_numpy", "specfun", "hydrogenic", "forms",
                                    "cli"])
def test_cold_path_imports_no_heavy_standard_modules(module):
    """What `import hmomentum.cli` and `eval` run imports none of dataclasses
    (which imports inspect), inspect, typing, json, datetime or traceback, at
    module level or inside a function."""
    assert {name.split(".")[0] for name, _ in imports(module)} & {
        "dataclasses", "inspect", "typing", "json", "datetime", "traceback"} == set()


def test_numpy_comes_from_one_loader():
    """numpy is imported at its first use, through `_numpy` alone.  It imports
    only the standard library and defines only its loader, which takes a
    module's name, and the `np` that the loader returns for "numpy", so it is
    no path between layers; no other module imports numpy, at module level or
    inside a function."""
    assert {name.split(".")[0] for name, _ in imports("_numpy")} <= sys.stdlib_module_names
    tree = ast.parse((SRC / "_numpy.py").read_text(encoding="utf-8"))
    loader, binding = (node for node in tree.body
                       if not isinstance(node, (ast.Expr, ast.Import, ast.ImportFrom)))
    assert isinstance(loader, ast.FunctionDef) and isinstance(binding, ast.Assign)
    assert [arg.arg for arg in loader.args.args] == ["name"]
    assert [target.id for target in binding.targets] == ["np"]
    assert binding.value.func.id == loader.name and not binding.value.keywords
    assert [ast.literal_eval(arg) for arg in binding.value.args] == ["numpy"]
    assert {module: names for module in PACKAGE | {"__init__"} if (names := [
        name for name, _ in imports(module) if name.split(".")[0] == "numpy"])} == {}


# The modules that the package and `cli` bind lazily, and run at their first use.
LAZY_BINDINGS = {"__init__": ["transform", "verification"], "cli": ["_csv", "verification"]}


@pytest.mark.parametrize("module", ["__init__", "cli"])
def test_transform_and_verification_come_from_the_loader(module):
    """The package and `cli` import none of `transform`, `verification` and
    `_csv` (which imports `transform`), at module level or inside a function:
    the package binds `transform` and `verification`, and `cli` binds `_csv`
    and `verification`, only as the lazy modules of `_numpy.lazy`,
    `name = lazy(<the package> + ".name")`, so that importing them runs none."""
    assert {name.removeprefix("hmomentum.") for name, _ in imports(module)} & {
        "transform", "verification", "_csv"} == set()
    tree = ast.parse((SRC / f"{module}.py").read_text(encoding="utf-8"))
    assert any(isinstance(node, ast.ImportFrom) and node.module == "_numpy"
               and "lazy" in [alias.name for alias in node.names] for node in tree.body)
    calls = {target.id: node.value for node in tree.body if isinstance(node, ast.Assign)
             for target in node.targets
             if isinstance(target, ast.Name) and target.id in LAZY_BINDINGS[module]}
    assert sorted(calls) == LAZY_BINDINGS[module]
    for name, call in calls.items():
        assert isinstance(call, ast.Call) and call.func.id == "lazy"
        argument, = call.args
        assert isinstance(argument, ast.BinOp) and argument.right.value == f".{name}"


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


def test_q_comes_from_one_helper():
    """q = p / hbar beta has one home, `forms._q`, on the float and the array
    path alike: no other code of `forms` divides by a `scale.momentum`, so
    that a fault in q reaches `eval` as well as `table` and `verify`."""
    tree = ast.parse((SRC / "forms.py").read_text(encoding="utf-8"))
    owners = [getattr(top, "name", None) for top in tree.body for node in ast.walk(top)
              if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div)
              and ast.unparse(node.right if isinstance(node, ast.BinOp) else node.value)
              .endswith("scale.momentum")]
    assert set(owners) == {"_q"}


def test_cli_takes_no_long_double():
    """The CSV digits are double-double (`_csv._product`), the same bits and speed
    where long double is a double: neither `cli` nor `_csv` names a long double
    type or an extended-type hook.  `transform` keeps long double for the Filon
    weights."""
    for module in ("cli", "_csv"):
        tree = ast.parse((SRC / f"{module}.py").read_text(encoding="utf-8"))
        names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        names |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
        assert names & {"longdouble", "float128", "_EXTENDED"} == set(), module


def cli_function(name):
    """The def of `name` in `cli`, from its source."""
    tree = ast.parse((SRC / "cli.py").read_text(encoding="utf-8"))
    function, = (node for node in tree.body
                 if isinstance(node, ast.FunctionDef) and node.name == name)
    return function


def test_cli_reader_holds_no_grammar():
    """The grammar is the table's alone (`cli.GRAMMAR` and `cli.COMMON_FLAGS`):
    the reader `cli._read` and the parser builder `cli.build_parser` read it,
    and their bodies name no option string (no string literal that starts
    with '-'), no positional, no choice and no type of an argument.  No
    default is a string, which argparse would convert and `_read` would not."""
    from hmomentum import cli

    arguments = [argument for name in cli.GRAMMAR for argument in cli._arguments(name)[0]]
    choices = {choice for *_, keywords in arguments for choice in keywords.get("choices", ())}
    types = {keywords["type"].__name__ for *_, keywords in arguments if "type" in keywords}
    positionals = {option for option, *_ in arguments if not option.startswith("-")}
    assert types == {"float", "int"} and "trig" in choices and positionals == {"form", "N", "l"}
    assert [option for option, _, keywords in arguments
            if isinstance(keywords.get("default"), str)] == []  # argparse would convert one
    for name in ("_read", "build_parser"):
        function = cli_function(name)
        body = [node for statement in function.body[1:] for node in ast.walk(statement)]
        literals = {node.value for node in body if isinstance(node, ast.Constant)}
        assert [text for text in literals if str(text).startswith("-")] == [], name
        assert literals & (choices | positionals | set(cli.GRAMMAR)) == set(), name
        assert {node.id for node in body if isinstance(node, ast.Name)} & types == set(), name


def test_cli_fast_path_takes_nothing_from_argparse():
    """`cli` imports argparse only inside `build_parser`, and neither `_read`
    nor `_parse` but for its `build_parser().parse_args(argv)` fallback names
    argparse, a name of the argparse module or any attribute of argparse's
    parsers and actions, their private tables (`_actions`,
    `_option_string_actions`, `_defaults`, ...) included, so that the fast
    path cannot drift back onto them."""
    import argparse

    assert [nested for name, nested in imports("cli") if name == "argparse"] == [True]
    assert "argparse" in {node.names[0].name for node in ast.walk(cli_function("build_parser"))
                          if isinstance(node, ast.Import)}
    parser = argparse.ArgumentParser()
    action = parser.add_argument("--flag", type=float)
    argparse_names = {"argparse", *vars(argparse), *vars(parser), *vars(action),
                      *dir(argparse.ArgumentParser), *dir(argparse.Action)} - set(dir(object))
    assert {"_actions", "_option_string_actions", "_defaults", "_get_positional_actions",
            "_StoreAction", "choices", "dest"} <= argparse_names
    for name in ("_read", "_parse"):
        nodes = list(ast.walk(cli_function(name)))
        fallbacks = [node for node in nodes
                     if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Call)
                     and getattr(node.value.func, "id", None) == "build_parser"]
        assert [node.attr for node in fallbacks] == (["parse_args"] if name == "_parse" else [])
        names = {node.id for node in nodes if isinstance(node, ast.Name)}
        attributes = {node.attr for node in nodes
                      if isinstance(node, ast.Attribute) and node not in fallbacks}
        assert names & {"argparse", *vars(argparse)} == set(), name
        assert attributes & argparse_names == set(), name
