"""The in-process workloads: sweeps and solver-hard.

Both run inside the benchmark's own interpreter: no CLI start-up and no CSV
parsing. The solver is called as ``survkit.solver.solve`` and the sweeps as
``survkit.sweeps.run_sweep``, the names the traced run wraps. Run as a
script, this module performs one workload's set-up only (import plus input
construction) and exits; the benchmark times that in a fresh interpreter to
measure ``setup_s``:

    python3 bench/inproc.py {sweeps|solver-hard} SEED [--toy]
"""

from __future__ import annotations

import csv
import json
import math
import statistics
import sys
import threading
import types
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import survkit.solver as solver
import survkit.sweeps as sw
from survkit.core import RngSpec
from survkit.datagen import gen_synthetic2
from survkit.mechanisms import NoiseKind
from survkit.solver import CorrectedMoments, SolverConfig, corrected_moments

import clock
import spans

_INITIAL_WARNING_FILTERS = list(warnings.filters)


class StderrCounter:
    """Stands in for sys.stderr during a pass and counts the RuntimeWarnings
    the program writes there, from any thread."""

    def __init__(self):
        self.warnings = 0
        self._lock = threading.Lock()

    def write(self, text: str) -> int:
        with self._lock:
            self.warnings += text.count(spans.WARNING_TAG)
        return len(text)

    def flush(self) -> None:
        pass


class _Pass:
    """Times one pass and each of its steps and, when traced, records its
    spans."""

    def __init__(self, traced: bool):
        self.traced = traced
        self.rec = spans.Recorder() if traced else None
        self.steps = clock.Steps(clock.loop_probe)

    def __enter__(self):
        # Start every pass from the warning state of a fresh process: a
        # sweep at workers > 1 can leave its temporary filters installed,
        # and Python prints a given warning only once per registry.
        warnings.filters[:] = _INITIAL_WARNING_FILTERS
        for mod in list(sys.modules.values()):
            if isinstance(mod, types.ModuleType):
                vars(mod).pop("__warningregistry__", None)
        self._undo = spans.install(self.rec) if self.traced else []
        self._stderr, sys.stderr = sys.stderr, StderrCounter()
        return self

    def __exit__(self, *exc):
        self.warnings = sys.stderr.warnings
        sys.stderr = self._stderr
        spans.uninstall(self._undo)
        return False

    def result(self, attempted: int, failures: list[str], workers: int = 1, **extra) -> dict:
        span_list = self.rec.spans if self.traced else None
        return spans.pass_record(self.steps, attempted, failures, self.warnings,
                                 span_list, workers, **extra)


# ---------------------------------------------------------------------------
# sweeps


def _gaussian_worse(rows: list[dict], m: int) -> bool:
    """Whether the Gaussian error exceeds the Laplace error at m by more than
    two standard errors of their paired difference. A plain mean comparison
    fails on valid seeds from sampling noise alone: at m = 1e5 the two means
    differ by well under 1 % (seed 601: Gaussian above by 0.7 %, 0.5 standard
    errors)."""
    diffs = [float(r["error_gaussian"]) - float(r["error_laplace"])
             for r in rows if int(r["m"]) == m]
    return statistics.mean(diffs) > 2 * statistics.stdev(diffs) / math.sqrt(len(diffs))


class Sweeps:
    name = "sweeps"

    def __init__(self, root: Path, workdir: Path, seed: int, toy: bool):
        self.workdir = workdir
        self.seed = seed
        self.workers = self.threads = 2
        # The slope and Gaussian-vs-Laplace tolerances are statistical claims
        # at the acceptance-gate sizes; toy sizes are too small to meet them.
        self.statistical_gates = not toy
        if toy:
            self.experiments = {
                "model-distance": dict(trials=3, d=10, m=2_000, mu_grid=(0.0, 2.0),
                                       tol_grid=(0.2,)),
                "error-vs-samples": dict(trials=4, d=10, m_grid=(1_000, 4_000, 16_000),
                                         alpha_grid=(2.0,)),
                "noise-comparison": dict(trials=4, d=10, m_grid=(1_000, 10_000)),
            }
        else:
            # The acceptance gate's grids at 10 trials instead of 20: shorter
            # steps and more passes per run keep the figures steady.
            self.experiments = {
                "model-distance": dict(trials=10, d=10, m=10_000),
                "error-vs-samples": dict(trials=10, d=10,
                                         m_grid=(1_000, 3_000, 10_000, 30_000, 100_000),
                                         alpha_grid=(2.0,)),
                "noise-comparison": dict(trials=10, d=10, m_grid=(1_000, 10_000, 100_000)),
            }

    def params(self) -> dict:
        return {"workers": self.workers, "traced_also_at_workers": 1,
                "statistical_gates": self.statistical_gates,
                "experiments": self.experiments}

    def setup_argv(self) -> list[str]:
        return [sys.executable, str(Path(__file__)), self.name, str(self.seed)]

    def prepare(self) -> None:
        self.workdir.mkdir(parents=True, exist_ok=True)

    def cycle(self, trace: bool) -> list[dict]:
        passes = [self.run_pass(traced=False, workers=self.workers)]
        if trace:
            passes.append(self.run_pass(traced=True, workers=self.workers))
            passes.append(self.run_pass(traced=True, workers=1))
        return passes

    def _check(self, spec, result) -> int:
        """Apply the acceptance-gate tolerances; return the trial rows written."""
        experiment, summary = spec.experiment, result.summary
        if summary["errors"]:
            raise ValueError(f"grid points failed: {summary['errors']}")
        grid = summary["grid"]
        if self.statistical_gates and experiment == "error-vs-samples":
            slope = grid["alpha=2"]["loglog_slope"]
            if not -0.65 <= slope <= -0.35:
                raise ValueError(f"log-log slope {slope:.3f} outside [-0.65, -0.35]")
        with result.trials_csv.open(newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        if self.statistical_gates and experiment == "noise-comparison":
            worse = [m for m in spec.m_grid if _gaussian_worse(rows, m)]
            if worse:
                raise ValueError(f"Gaussian error significantly above Laplace at m={worse}")
        if not rows or len(rows) % spec.trials:
            raise ValueError(f"{len(rows)} trial rows for {spec.trials} trials per point")
        json.loads(result.summary_json.read_text(encoding="utf-8"))
        return len(rows)

    def run_pass(self, traced: bool, workers: int) -> dict:
        failures, trials = [], 0
        with _Pass(traced) as p:
            for experiment, kwargs in self.experiments.items():
                spec = sw.SweepSpec(
                    experiment=experiment, seed=self.seed, workers=workers,
                    output_dir=self.workdir / experiment, **kwargs,
                )
                try:
                    with p.steps.time(experiment):
                        result = sw.run_sweep(spec)
                    trials += self._check(spec, result)
                except Exception as exc:  # recorded as a failed operation
                    failures.append(f"{experiment}: {type(exc).__name__}: {exc}")
        return p.result(len(self.experiments), failures, workers, trials=trials,
                        serial=workers == 1)


# ---------------------------------------------------------------------------
# solver-hard


@dataclass
class Instance:
    name: str
    moments: CorrectedMoments
    config: SolverConfig
    exact: np.ndarray | None  # known optimum (PSD, constraint inactive)


def _basis(gen: np.random.Generator, d: int, first=None) -> np.ndarray:
    """A seeded orthonormal basis, optionally spanning ``first`` first."""
    a = gen.normal(size=(d, d))
    if first is not None:
        a[:, 0] = first
    q, _ = np.linalg.qr(a)
    return q


def _quadratic(q: np.ndarray, eig, gen: np.random.Generator, norm: float):
    """Gamma = Q diag(eig) Q^T and an optimum whose components along the
    eigenvectors have equal size and seeded signs. The solver's path, and so
    the work per pass, is then the same for every seed; the seed only turns
    the problem."""
    d = len(eig)
    theta = q @ (gen.choice([-1.0, 1.0], size=d) * (norm / math.sqrt(d)))
    return (q * np.asarray(eig)) @ q.T, theta


def build_instances(seed: int, toy: bool) -> list[Instance]:
    """The solver-hard set. PSD instances get a known optimum theta and
    gamma_vec = Gamma theta with radius 2 ||theta||_1, so the l1 constraint
    is inactive and theta is the exact solution."""
    gen = np.random.default_rng(seed)
    out: list[Instance] = []

    def inactive(name, gamma, theta):
        moments = CorrectedMoments(gamma, gamma @ theta, 1)
        config = SolverConfig(mode="constrained", radius=2.0 * float(np.sum(np.abs(theta))))
        out.append(Instance(name, moments, config, theta))

    def spectrum(d, cond):
        return np.logspace(0.0, -math.log10(cond), d)

    # diag(1, k): the iteration count grows like 1/k.
    for k in (1e-2,) if toy else (1e-2, 1e-3, 1e-4):
        inactive(f"diag-{k:g}", *_quadratic(np.eye(2), (1.0, k), gen, 0.5 * math.sqrt(2)))
    rho, d = 0.98, 5 if toy else 20
    eig = [1 + (d - 1) * rho] + [1 - rho] * (d - 1)
    inactive("equicorrelated", *_quadratic(_basis(gen, d, np.ones(d)), eig, gen, 0.1))
    n = 3 if toy else 30
    for i in range(n):
        d = 2 + round(48 * i / (n - 1))
        cond = 10.0 ** (2.0 + 2.0 * ((7 * i) % n) / (n - 1))
        inactive(f"psd-{i}", *_quadratic(_basis(gen, d), spectrum(d, cond), gen, 0.1))
    d = 100 if toy else 1000
    inactive(f"psd-d{d}", *_quadratic(_basis(gen, d), spectrum(d, 10.0), gen, 0.1))
    # Family-2 data at tiny m: the corrected Gram matrix is indefinite.
    for i in range(1 if toy else 4):
        kind = (NoiseKind.GAUSSIAN, NoiseKind.LAPLACE)[i % 2]
        clean, noisy, _ = gen_synthetic2(10, 15, kind, RngSpec(seed, 100 + i))
        config = SolverConfig(mode="constrained", radius=clean.bounds.radius)
        out.append(Instance(f"family2-{kind.value}-{i}", corrected_moments(noisy), config, None))
    gamma, theta = _quadratic(_basis(gen, 20), spectrum(20, 100.0), gen, 0.1)
    out.append(Instance(
        "lagrangian",
        CorrectedMoments(gamma, gamma @ theta, 1),
        SolverConfig(mode="lagrangian", lambda_n=0.01),
        None,
    ))
    return out


def _objective(inst: Instance, theta: np.ndarray) -> float:
    m, lam = inst.moments, inst.config.lambda_n or 0.0
    return float(0.5 * theta @ m.gamma_mat @ theta - m.gamma_vec @ theta
                 + lam * np.sum(np.abs(theta)))


def check_solution(inst: Instance, result) -> float | None:
    """Raise if the result is non-finite, infeasible or worse than theta = 0;
    return the l-infinity gap to the known optimum, if there is one."""
    theta = np.asarray(result.theta_hat, dtype=np.float64)
    if theta.shape != inst.moments.gamma_vec.shape or not np.all(np.isfinite(theta)):
        raise ValueError("theta_hat is not a finite vector of the right length")
    radius = inst.config.radius
    if radius is not None and np.sum(np.abs(theta)) > radius * (1 + 1e-9):
        raise ValueError(f"||theta||_1 = {np.sum(np.abs(theta)):.6g} exceeds radius {radius:.6g}")
    f_theta, f_zero = _objective(inst, theta), _objective(inst, np.zeros_like(theta))
    if not f_theta <= f_zero + 1e-12 * max(1.0, abs(f_zero)):
        raise ValueError(f"objective {f_theta:.6g} above f(0) = {f_zero:.6g}")
    if inst.exact is None:
        return None
    return float(np.max(np.abs(theta - inst.exact)))


class SolverHard:
    name = "solver-hard"
    threads = 1

    def __init__(self, root: Path, workdir: Path, seed: int, toy: bool):
        self.seed = seed
        self.toy = toy
        self.instances: list[Instance] = []

    def params(self) -> dict:
        return {
            "instances": [
                {"name": i.name, "d": i.moments.dim, "mode": i.config.mode,
                 "exact_known": i.exact is not None}
                for i in self.instances
            ],
            "solver_config": "SolverConfig defaults (max_iter 10000, tol 1e-9)",
        }

    def setup_argv(self) -> list[str]:
        argv = [sys.executable, str(Path(__file__)), self.name, str(self.seed)]
        return argv + ["--toy"] if self.toy else argv

    def prepare(self) -> None:
        self.instances = build_instances(self.seed, self.toy)

    def cycle(self, trace: bool) -> list[dict]:
        passes = [self.run_pass(traced=False)]
        if trace:
            passes.append(self.run_pass(traced=True))
        return passes

    def run_pass(self, traced: bool) -> dict:
        failures, gaps = [], []
        with _Pass(traced) as p:
            for inst in self.instances:
                try:
                    with p.steps.time(inst.name):
                        result = solver.solve(inst.moments, inst.config)
                    gap = check_solution(inst, result)
                except Exception as exc:  # recorded as a failed operation
                    failures.append(f"{inst.name}: {type(exc).__name__}: {exc}")
                    continue
                if gap is not None:
                    gaps.append(gap)
        return p.result(len(self.instances), failures,
                        solve_error_max=max(gaps) if gaps else math.nan)


WORKLOADS = {Sweeps.name: Sweeps, SolverHard.name: SolverHard}


if __name__ == "__main__":
    name, seed = sys.argv[1], int(sys.argv[2])
    WORKLOADS[name](Path.cwd(), Path.cwd(), seed, "--toy" in sys.argv[3:]).prepare()
