"""The README's command examples stay in step with the CLI."""

import importlib.util
import re
import shlex
from pathlib import Path

import pytest

from survkit.cli import _BOUNDS, build_parser

_ROOT = Path(__file__).resolve().parents[1]
README = (_ROOT / "README.md").read_text(encoding="utf-8")


def _outputs_script():
    """``scripts/outputs.py``, which runs the README's commands, as a module."""
    spec = importlib.util.spec_from_file_location("_outputs", _ROOT / "scripts" / "outputs.py")
    outputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(outputs)
    return outputs


_COMMANDS = _outputs_script()._readme_commands()


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
