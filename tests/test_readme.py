"""The Python examples and the `hmomentum` commands of README.md run as written."""

import importlib
import pathlib
import re
import shlex

import pytest

from hmomentum import cli
from hmomentum.verification import SUITES

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


# A long flag, not the tail of a longer word such as a range "a--b".
FLAG = re.compile(r"(?<![\w-])--[a-z][\w-]*")


def code_blocks(language):
    return re.findall(rf"^```{language}\n(.*?)^```$", README.read_text(encoding="utf-8"),
                      re.MULTILINE | re.DOTALL)


def test_python_blocks_run():
    blocks = code_blocks("python")
    assert blocks
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})


def test_cli_commands_run(tmp_path, monkeypatch, capsys):
    """Every `hmomentum ...` line of the sh blocks exits 0, so the README
    names no flag the CLI does not have."""
    commands = [shlex.split(line)[1:] for block in code_blocks("sh")
                for line in block.splitlines() if line.startswith("hmomentum ")]
    assert len(commands) >= 5
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        assert cli.main(argv) == cli.EXIT_OK, argv
        capsys.readouterr()


def cli_options(capsys):
    """Every option of the four subcommands, as their --help lists them,
    but -h/--help."""
    options = set()
    for command in ("eval", "table", "plot", "verify"):
        with pytest.raises(SystemExit):
            cli.main([command, "--help"])
        options |= set(FLAG.findall(capsys.readouterr().out))
    return options - {"--help"}


def readme_flags():
    """Every --flag the README names, in prose or code, but pip's."""
    return set(FLAG.findall(README.read_text(encoding="utf-8"))) - {"--no-build-isolation"}


def test_readme_names_only_cli_options(capsys):
    assert readme_flags() <= cli_options(capsys)


def test_readme_names_every_cli_option(capsys):
    assert cli_options(capsys) <= readme_flags()


def test_readme_names_every_suite():
    """Each `verify --suite` key is documented, so a suite's documentation
    cannot drop out unnoticed."""
    text = README.read_text(encoding="utf-8")
    assert [key for key in SUITES if f"`{key}`" not in text] == []


# A backticked `module.name` of the package, such as `hydrogenic._radial_stack`.
MODULE_NAME = re.compile(r"`(specfun|hydrogenic|forms|transform|verification|cli)\.(\w+)")


def test_readme_names_only_live_code():
    """Every `module.name` the README cites exists, so a rename or a removal
    cannot leave it pointing at dead code."""
    names = set(MODULE_NAME.findall(README.read_text(encoding="utf-8")))
    assert len(names) >= 10
    missing = [f"{module}.{name}" for module, name in sorted(names)
               if not hasattr(importlib.import_module(f"hmomentum.{module}"), name)]
    assert missing == []
