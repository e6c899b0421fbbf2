"""The cli-pipeline workload: the README command chain, one fresh
interpreter per command, as an analyst runs it.

One pass runs gen, publish, fit, verify (public), verify (private) and
bounds in order, each through ``launcher.py``; each command starts after the
previous one returns. Every command's exit code and outputs are checked
after it returns, outside its timing.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np

import clock
import spans

STEPS = ("gen", "publish", "fit", "verify", "verify_private", "bounds")
_COMMAND_TIMEOUT_S = 60


class CommandFailed(Exception):
    """A command's exit code or outputs failed the check."""


def _read_json(path):
    return json.loads(Path(path).read_text(encoding="utf-8"))


def _check_csv(path, m: int, d: int) -> None:
    path = Path(path)
    with path.open(encoding="utf-8") as fh:
        header = fh.readline().strip()
    want = ",".join([f"x{i + 1}" for i in range(d)] + ["y"])
    if header != want:
        raise CommandFailed(f"{path.name}: header {header!r}")
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    if data.shape != (m, d + 1) or not np.all(np.isfinite(data)):
        raise CommandFailed(f"{path.name}: shape {data.shape} or non-finite cells")


def _finite(*values) -> bool:
    return all(isinstance(v, (int, float)) and math.isfinite(v) for v in values)


class CliPipeline:
    name = "cli-pipeline"
    threads = 1

    def __init__(self, root: Path, workdir: Path, seed: int, toy: bool):
        self.root = root
        self.workdir = workdir
        self.seed = seed
        self.m = 2_000 if toy else 30_000
        self.d = 10
        self.alpha = 2.0
        self.prefix = workdir / "demo"
        self.bounds: dict = {}

    def params(self) -> dict:
        return {
            "m": self.m, "d": self.d, "kind": "synthetic1", "mu": 0.0,
            "publish": {"alpha": self.alpha, "accounting": "per-coord", "zeta": "from truth"},
            "fit": {"sigma_w": "from-sidecar", "mode": "constrained", "radius": "from truth"},
            "verify": {"kappa": 0.0, "tol": 0.2, "delta": 0.1,
                       "tau/radius/zeta": "from truth", "private_alpha": self.alpha},
            "bounds": "min-samples-laplace --zeta 1 --alpha 1 --c-eps 1 --d 10 --lambda-min 1",
            "steps": list(STEPS),
        }

    def setup_argv(self) -> list[str]:
        return [sys.executable, "-c", "import survkit.cli"]

    def prepare(self) -> None:
        self.workdir.mkdir(parents=True, exist_ok=True)

    def cycle(self, trace: bool) -> list[dict]:
        passes = [self.run_pass(traced=False)]
        if trace:
            passes.append(self.run_pass(traced=True))
        return passes

    # -- one pass ----------------------------------------------------------

    def _args(self, step: str) -> list[str]:
        p, s, b = str(self.prefix), str(self.seed), self.bounds
        verify = [
            "verify", "--survey", f"{p}_survey.csv", "--validation", f"{p}_validation.json",
            "--kappa", "0.0", "--tol", "0.2", "--delta", "0.1", "--tau", repr(b.get("tau")),
            "--radius", repr(b.get("radius")), "--zeta", repr(b.get("zeta")), "--seed", s,
        ]
        return {
            "gen": ["gen", "--kind", "synthetic1", "--d", str(self.d), "--m", str(self.m),
                    "--mu", "0.0", "--seed", s, "--out", p],
            "publish": ["publish", "--input", f"{p}_survey.csv", "--output", f"{p}_private.csv",
                        "--alpha", repr(self.alpha), "--zeta", repr(b.get("zeta")),
                        "--accounting", "per-coord", "--seed", s],
            "fit": ["fit", "--input", f"{p}_private.csv", "--sigma-w", "from-sidecar",
                    "--mode", "constrained", "--radius", repr(b.get("radius")),
                    "--output", f"{p}_fit.json"],
            "verify": verify + ["--output", f"{p}_verdict.json"],
            "verify_private": verify + ["--alpha", repr(self.alpha),
                                        "--output", f"{p}_verdict_private.json"],
            "bounds": ["bounds", "--name", "min-samples-laplace", "--zeta", "1", "--alpha", "1",
                       "--c-eps", "1", "--d", "10", "--lambda-min", "1",
                       "--output", f"{p}_bounds.json"],
        }[step]

    def _check(self, step: str, code: int, stdout: str) -> None:
        p = str(self.prefix)
        want = (0, 3) if step.startswith("verify") else (0,)
        if code not in want:
            raise CommandFailed(f"exit code {code}")
        echo = json.loads(stdout.strip().splitlines()[-1])
        if step == "gen":
            _check_csv(f"{p}_survey.csv", self.m, self.d)
            _read_json(f"{p}_validation.json")["generator"]["theta"]
            self.bounds = _read_json(f"{p}_truth.json")["bounds"]
        elif step == "publish":
            _check_csv(f"{p}_private.csv", self.m, self.d)
            side = _read_json(f"{p}_private.meta.json")
            want_var = 8.0 * self.bounds["zeta"] ** 2 / self.alpha**2
            if not math.isclose(side["sigma_w_diagonal"], want_var, rel_tol=1e-12):
                raise CommandFailed(f"sidecar variance {side['sigma_w_diagonal']}")
        elif step == "fit":
            fit = _read_json(f"{p}_fit.json")
            theta = fit["theta_hat"]
            if len(theta) != self.d or not _finite(*theta, fit["final_objective"]):
                raise CommandFailed("fit: theta_hat not a finite d-vector")
            if sum(abs(v) for v in theta) > self.bounds["radius"] * (1 + 1e-9):
                raise CommandFailed("fit: theta_hat outside the l1 ball")
        elif step.startswith("verify"):
            name = "verdict_private" if step == "verify_private" else "verdict"
            verdict = _read_json(f"{p}_{name}.json")
            decision = {0: "ACCEPT", 3: "REJECT"}[code]
            if verdict["decision"] != decision or echo["decision"] != decision:
                raise CommandFailed(f"decision {verdict['decision']} with exit code {code}")
            if not _finite(verdict["margin"]) or (verdict["margin"] > 0) != (code == 3):
                raise CommandFailed(f"margin {verdict['margin']} with exit code {code}")
        else:
            value = _read_json(f"{p}_bounds.json")["value"]
            if not (_finite(value) and value > 0):
                raise CommandFailed(f"bound value {value}")

    def run_pass(self, traced: bool) -> dict:
        steps, failures, warnings, span_files = clock.Steps(clock.command_probe), [], 0, []
        for step in STEPS:
            argv = [sys.executable, str(self.root / "bench" / "launcher.py")]
            if traced:
                span_files.append(self.workdir / f"spans-{step}.json")
                argv += ["--spans", str(span_files[-1])]
            argv += self._args(step)
            try:
                with steps.time(step):
                    proc = subprocess.run(
                        argv, cwd=self.root, capture_output=True, text=True,
                        timeout=_COMMAND_TIMEOUT_S,
                    )
            except subprocess.TimeoutExpired:
                failures.append(f"{step}: timed out")
                continue
            warnings += proc.stderr.count(spans.WARNING_TAG)
            try:
                self._check(step, proc.returncode, proc.stdout)
            except (CommandFailed, OSError, ValueError, KeyError, IndexError) as exc:
                failures.append(f"{step}: {type(exc).__name__}: {exc}; {proc.stderr[-300:]}")
        merged = self._merge(span_files) if traced else None
        return spans.pass_record(steps, len(STEPS), failures, warnings, merged)

    @staticmethod
    def _merge(span_files: list[Path]) -> list[dict]:
        """The spans of all commands of a pass, with ids unique across them."""
        merged = []
        for k, path in enumerate(span_files):
            if not path.exists():
                continue
            offset = (k + 1) * 10**9
            for s in _read_json(path):
                s["id"] += offset
                if s["parent"] is not None:
                    s["parent"] += offset
                merged.append(s)
        return merged
