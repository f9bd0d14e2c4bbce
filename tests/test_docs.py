"""The README's command block runs: each ``torelli3 ...`` line, in process
through ``cli.main``, exits 0 with ``ok: true``."""

import json
import shlex
from pathlib import Path

import pytest

from torelli3 import cli

README = Path(__file__).resolve().parents[1] / "README.md"


def readme_commands():
    """The argument lists of the ``torelli3`` lines of the README's shell
    blocks, comments dropped."""
    commands, shell = [], False
    for line in README.read_text(encoding="utf-8").splitlines():
        if line.startswith("```"):
            shell = line == "```sh"
        elif shell and line.startswith("torelli3 "):
            commands.append(shlex.split(line, comments=True)[1:])
    return commands


COMMANDS = readme_commands()


def test_the_readme_lists_every_subcommand():
    subcommands = {"types", "cells", "ladder", "check", "kernel", "smodule", "lantern", "report"}
    assert {args[0] for args in COMMANDS} == subcommands
    targets = {args[1] for args in COMMANDS if args[0] == "check"}
    assert targets == {"d31", "d22", "d13", "d13-tilde"}


@pytest.mark.parametrize("args", COMMANDS, ids=" ".join)
def test_readme_command_runs(args, tmp_path, capsys):
    if "--json" in args:
        args = list(args)
        at = args.index("--json") + 1
        args[at] = str(tmp_path / args[at])
    assert cli.main(args) == cli.EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert report["ok"] is True
    assert report["command"] == args[0]
    if "--json" in args:
        written = Path(args[args.index("--json") + 1]).read_text(encoding="utf-8")
        assert json.loads(written) == report
