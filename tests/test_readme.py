"""The Python examples and the `hmomentum` commands of README.md run as written."""

import pathlib
import re
import shlex

from hmomentum import cli

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


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
