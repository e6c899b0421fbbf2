"""The CLI's input boundary, generated from ``build_parser()``.

Every numeric flag of every subcommand (every flag with a ``type=``) is
given nan, inf, 0 and -1, on the command line and through ``--config``.
Each run either exits 0 with strict JSON on stdout and in every JSON file
it writes, or exits 1 or 2 with a ``survkit[ <command>]: error:`` line on
stderr, no traceback (``main`` returns instead of raising) and no output
file.  Inputs are tiny (d = 3, m = 50, one trial), so the whole grid runs
in a few seconds.
"""

import argparse
import inspect
import json
import re

import pytest

from survkit import bounds as bnd
from survkit.cli import _BOUNDS, EXIT_OK, EXIT_RUNTIME, EXIT_USAGE, build_parser, main

_VALUES = ("nan", "inf", "0", "-1")
_ERROR_LINE = re.compile(r"^survkit( \w+)?: error: ", re.MULTILINE)


def _numeric_flags(command: str) -> list[str]:
    commands = next(a for a in build_parser()._actions
                    if isinstance(a, argparse._SubParsersAction)).choices
    return [a.option_strings[0] for a in commands[command]._actions if a.type is not None]


def _bound_params(name: str) -> list[str]:
    params = inspect.signature(getattr(bnd, _BOUNDS[name])).parameters
    return ["--" + p.replace("_", "-") for p in params]


# Case -> (flag -> value of a run that succeeds, output flag, output name).
# The paths are relative to the inputs made by the ``inputs`` fixture.
_VERIFY = {"--survey": "s_survey.csv", "--validation": "s_validation.json", "--tol": "0.2",
           "--tau": "{tau}", "--radius": "{radius}", "--zeta": "{zeta}"}
_CASES = {
    "gen": ({"--kind": "synthetic1", "--d": "3", "--m": "50"}, "--out", "run"),
    "publish": ({"--input": "s_survey.csv", "--alpha": "1", "--zeta": "{zeta}"},
                "--output", "private.csv"),
    "fit": ({"--input": "s_survey.csv", "--radius": "1"}, "--output", "fit.json"),
    "verify": (_VERIFY, "--output", "verdict.json"),
    "verify --alpha": ({**_VERIFY, "--alpha": "1"}, "--output", "verdict.json"),
    "sweep": ({"--experiment": "model-distance", "--trials": "1", "--d": "3", "--m": "50",
               "--mu-grid": "0", "--tol-grid": "0.2", "--m-grid": "50"}, "--output", "sweep"),
    # The README's bound, whose manifest echoes every flag it does not read,
    # and each bound with the flags it reads.
    **{f"bounds --name {name}": ({"--name": name}, "--output", "bounds.json")
       for name in _BOUNDS},
}


def _flags(case: str) -> list[str]:
    command = case.split()[0]
    flags = _numeric_flags(command)
    if command != "bounds":
        return flags
    name = case.split()[-1]
    return flags if name == "min-samples-laplace" else _bound_params(name)


_GRID = [(case, flag) for case in _CASES for flag in _flags(case)]


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    d = tmp_path_factory.mktemp("inputs")
    assert main(["gen", "--kind", "synthetic1", "--d", "3", "--m", "50", "--seed", "1",
                 "--out", str(d / "s"), "--quiet"]) == EXIT_OK
    return d, json.loads((d / "s_truth.json").read_text())["bounds"]


def _strict(text: str):
    def reject(token):
        raise ValueError(f"non-strict JSON token {token}")
    return json.loads(text, parse_constant=reject)


def _argv(case, flag, value, via, inputs, out, conf) -> list[str]:
    d, bounds = inputs
    base, out_flag, out_name = _CASES[case]
    argv = [case.split()[0]]
    for k, v in base.items():
        if k != flag:
            v = v.format(**bounds)
            argv += [k, str(d / v) if v.startswith("s_") else v]
    argv += [out_flag, str(out / out_name)]
    if via == "argv":
        return argv + [f"{flag}={value}"]
    conf.write_text(json.dumps({flag[2:]: float(value) if value in ("nan", "inf")
                                else int(value)}))
    return argv + ["--config", str(conf)]


@pytest.mark.parametrize("case, flag", _GRID)
def test_numeric_flag_boundary(case, flag, inputs, tmp_path, capsys):
    conf = tmp_path / "conf.json"
    for via in ("argv", "config"):
        for value in _VALUES:
            out = tmp_path / f"out-{via}-{value}"
            out.mkdir()
            argv = _argv(case, flag, value, via, inputs, out, conf)
            code = main(argv)
            stdout, stderr = capsys.readouterr()
            where = f"{' '.join(argv)} -> exit {code}\n{stderr}"
            written = sorted(p for p in out.rglob("*") if p.is_file())
            if code == EXIT_OK:
                _strict(stdout)
                for path in written:
                    if path.suffix == ".json":
                        # A sweep that exits 0 ran every grid point.
                        assert _strict(path.read_text()).get("errors", {}) == {}, where
            else:
                assert code in (EXIT_USAGE, EXIT_RUNTIME), where
                assert _ERROR_LINE.search(stderr), where
                assert not written, where
