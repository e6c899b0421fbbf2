"""Every output that ``scripts/outputs.py`` writes keeps the digest recorded
in ``tests/outputs.sha256``.

A change that claims byte-identical outputs leaves that file alone; one that
moves outputs on purpose re-records it with ``scripts/outputs.py --digests``
and says in CHANGES.md why each line moved.  The bytes depend on the numpy
and scipy versions and on the machine (family-2 Laplace noise goes through
numpy's SIMD ``log1p``), which the file's header records: under any other
environment this test fails and says so, so that a machine difference is
not taken for a regression.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np

_ROOT = Path(__file__).resolve().parents[1]
_SCRIPT = _ROOT / "scripts" / "outputs.py"
_RECORDED = _ROOT / "tests" / "outputs.sha256"


def _parse(text: str) -> tuple[list[str], dict[str, str]]:
    """The header lines and the path -> SHA-256 table of a digest file."""
    lines = text.splitlines()
    digests = dict(line.split("  ", 1)[::-1] for line in lines if not line.startswith("#"))
    return [line for line in lines if line.startswith("#")], digests


def _cpu_features() -> list[str]:
    from numpy._core._multiarray_umath import __cpu_features__
    return sorted(name for name, enabled in __cpu_features__.items() if enabled)


def test_every_output_keeps_its_recorded_digest(tmp_path):
    run = subprocess.run([sys.executable, str(_SCRIPT), "--digests", str(tmp_path / "out")],
                         capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": str(_ROOT / "src")})
    assert run.returncode == 0, run.stderr
    header, got = _parse(run.stdout)
    recorded_header, recorded = _parse(_RECORDED.read_text(encoding="utf-8"))
    problems = []
    if header != recorded_header:
        problems.append(f"{_RECORDED.name} was recorded under {recorded_header[1:]}, "
                        f"this run is {header[1:]}: re-record it and say so in CHANGES.md")
    problems += [f"moved: {p}" for p in sorted(p for p in got.keys() & recorded.keys()
                                               if got[p] != recorded[p])]
    problems += [f"appeared: {p}" for p in sorted(got.keys() - recorded.keys())]
    problems += [f"went missing: {p}" for p in sorted(recorded.keys() - got.keys())]
    assert not problems, "\n".join(
        [*problems, f"numpy {np.__version__} CPU features enabled here: {_cpu_features()}"])
