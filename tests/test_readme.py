"""The README's command examples stay in step with the CLI."""

import re
import shlex
from pathlib import Path

import pytest

from survkit.cli import _BOUNDS, build_parser

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def _readme_commands() -> list[list[str]]:
    """The argv of every ``survkit`` line in the README's ``sh`` blocks, with
    backslash continuations joined."""
    commands = []
    for block in re.findall(r"^```sh\n(.*?)^```", README, re.MULTILINE | re.DOTALL):
        for line in block.replace("\\\n", " ").splitlines():
            argv = shlex.split(line, comments=True)
            if argv and argv[0] == "survkit":
                commands.append(argv[1:])
    return commands


_COMMANDS = _readme_commands()


def test_readme_shows_every_command():
    assert {argv[0] for argv in _COMMANDS} == {
        "gen", "publish", "fit", "verify", "bounds", "sweep"}


@pytest.mark.parametrize("argv", _COMMANDS, ids=[argv[0] for argv in _COMMANDS])
def test_readme_command_parses(argv):
    try:
        build_parser().parse_args(argv)
    except SystemExit as exc:  # a usage error
        pytest.fail(f"survkit {shlex.join(argv)}: exit {exc.code}")


def test_readme_lists_every_bound_name():
    listed = re.search(r"The names are (.*?)[.;]\s", README, re.DOTALL).group(1)
    assert re.findall(r"`([a-z0-9-]+)`", listed) == list(_BOUNDS)
