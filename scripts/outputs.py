"""Write a fixed set of survkit outputs into OUTDIR, for a byte-for-byte diff.

Every command runs in process through ``survkit.cli.main``, on whichever
``survkit`` is importable, so one copy of this script drives any checkout:

    PYTHONPATH=src python3 scripts/outputs.py out_change
    PYTHONPATH=/path/to/other/checkout/src python3 scripts/outputs.py out_other
    diff -r out_other out_change

OUTDIR gets four folders:

* ``readme/`` - every ``survkit`` line of the README's ``sh`` blocks, in
  order, run inside that folder (seed 7);
* ``acceptance/`` - the command chain of the acceptance test's criterion
  11 (seed 41);
* ``synthetic2/`` - ``gen --kind synthetic2`` under each noise kind, and
  ``fit --sigma-w from-sidecar`` on each bundle;
* ``sweeps_w1/`` and ``sweeps_w2/`` - the three sweeps on small grids at
  one and at two workers.

The binary twins beside the dataset CSVs are kept, so the diff also checks
each twin's digest record, which the writer takes from the bytes as it
writes them, and its arrays.  Nothing written holds a wall time, so two
runs of one checkout give no diff.
"""

import argparse
import json
import os
import re
import shlex
import sys
from pathlib import Path

import survkit
from survkit.cli import main

_README = Path(__file__).resolve().parents[1] / "README.md"


def _run(argv: list[str]) -> None:
    code = main([*argv, "--quiet"])
    if code not in (0, 3):  # 3 is a REJECT verdict, an output like any other
        raise SystemExit(f"survkit {shlex.join(argv)}: exit {code}")


def _readme_commands() -> list[list[str]]:
    """The argv of every ``survkit`` line in the README's ``sh`` blocks."""
    text = _README.read_text(encoding="utf-8")
    commands = []
    for block in re.findall(r"^```sh\n(.*?)^```", text, re.MULTILINE | re.DOTALL):
        for line in block.replace("\\\n", " ").splitlines():
            argv = shlex.split(line, comments=True)
            if argv and argv[0] == "survkit":
                commands.append(argv[1:])
    return commands


def _readme(root: Path) -> None:
    root.mkdir()
    os.chdir(root)  # the README's paths are relative to where it runs
    try:
        for argv in _readme_commands():
            _run(argv)
    finally:
        os.chdir("..")


def _acceptance(root: Path) -> None:
    root.mkdir()
    prefix = str(root / "g")
    _run(["gen", "--kind", "synthetic1", "--d", "4", "--m", "400", "--mu", "0.0",
          "--seed", "41", "--out", prefix])
    _run(["gen", "--kind", "synthetic2", "--d", "3", "--m", "200", "--noise", "laplace",
          "--seed", "41", "--out", str(root / "h")])
    b = json.loads((root / "g_truth.json").read_text(encoding="utf-8"))["bounds"]
    _run(["publish", "--input", f"{prefix}_survey.csv", "--output", str(root / "pub.csv"),
          "--alpha", "2.0", "--zeta", str(b["zeta"]), "--seed", "41"])
    _run(["fit", "--input", str(root / "pub.csv"), "--sigma-w", "from-sidecar",
          "--radius", str(b["radius"]), "--output", str(root / "fit.json")])
    _run(["verify", "--survey", f"{prefix}_survey.csv",
          "--validation", f"{prefix}_validation.json", "--tol", "0.2",
          "--tau", str(b["tau"]), "--radius", str(b["radius"]), "--zeta", str(b["zeta"]),
          "--seed", "41", "--output", str(root / "verdict.json")])
    _run(["bounds", "--name", "min-samples-laplace", "--zeta", "1", "--alpha", "1",
          "--d", "3", "--lambda-min", "1", "--output", str(root / "bound.json")])
    _run(["sweep", "--experiment", "error-vs-samples", "--trials", "2", "--d", "4",
          "--m-grid", "300,600", "--alpha-grid", "2.0", "--seed", "41",
          "--output", str(root / "sw")])


def _synthetic2(root: Path) -> None:
    root.mkdir()
    for noise in ("gaussian", "laplace"):
        prefix = root / noise
        _run(["gen", "--kind", "synthetic2", "--d", "10", "--m", "2000", "--noise", noise,
              "--seed", "7", "--out", str(prefix)])
        truth = json.loads(Path(f"{prefix}_truth.json").read_text(encoding="utf-8"))
        _run(["fit", "--input", f"{prefix}_noisy.csv", "--sigma-w", "from-sidecar",
              "--radius", str(truth["bounds"]["radius"]), "--output", f"{prefix}_fit.json"])


_SWEEPS = (
    ["--experiment", "model-distance", "--m", "500", "--mu-grid", "0,1", "--tol-grid", "0.2"],
    ["--experiment", "error-vs-samples", "--m-grid", "300,1000", "--alpha-grid", "1,2"],
    ["--experiment", "noise-comparison", "--m-grid", "300,1000"],
)


def _sweeps(root: Path, workers: int) -> None:
    for argv in _SWEEPS:
        _run(["sweep", *argv, "--trials", "3", "--d", "5", "--seed", "11",
              "--workers", str(workers), "--output", str(root)])


def write_outputs(out: Path) -> None:
    """Write the outputs into the new directory ``out``.  The commands run
    inside it on relative paths, so the manifests, which echo every flag,
    do not name ``out``."""
    out.mkdir(parents=True)
    here = os.getcwd()
    os.chdir(out)
    try:
        _readme(Path("readme"))
        _acceptance(Path("acceptance"))
        _synthetic2(Path("synthetic2"))
        for workers in (1, 2):
            _sweeps(Path(f"sweeps_w{workers}"), workers)
    finally:
        os.chdir(here)


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("outdir", type=Path, help="a directory that does not exist yet")
    out = parser.parse_args().outdir
    print(f"survkit from {os.path.dirname(survkit.__file__)}", file=sys.stderr)
    write_outputs(out)
