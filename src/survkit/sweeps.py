"""Seeded experiment grids reproducing the benchmark protocols at desk scale.

Three experiments are provided:

* ``model-distance`` - sweep the coefficient shift mu and the test
  tolerance; record accept/reject outcomes of the credibility test
  (family-1 data).
* ``error-vs-samples`` - sweep the sample count and privacy budget alpha;
  record the normalized coefficient error of the corrected solver on
  privatized data, plus the fitted log-log slope of mean error versus m.
* ``noise-comparison`` - sweep the sample count; fit on family-2 data under
  Gaussian and Laplace covariate noise of equal variance (paired draws) and
  record both errors.

A grid point takes one value from each spec grid its experiment crosses,
such as (mu, tol).  All randomness flows from the single sweep seed through
the canonical stream encoding (experiment-index, grid-index, trial-index).
The trial, not the grid point, is what the bounded worker pool schedules;
rows are gathered back per grid point, so output ordering is canonical
regardless of completion order or worker count.  A trial row holds the
point's values, set by the run, and the trial's measurements.  Emits one
tidy trials CSV and one summary JSON per run; both cover only the grid
points whose every trial completed.
"""

from __future__ import annotations

import itertools
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import _write_json
from .core import _RNG_TAGS, ModelBounds, RngSpec, model_distance
from .datagen import (
    _check_generator_args, _sparse_survey, _with_covariate_noise, _write_csv, gen_synthetic1,
)
# Not called here; bench/spans.py wraps them at this binding site (see test_bench_bindings).
from .datagen import clip_to_bounds, gen_synthetic2  # noqa: F401
from .mechanisms import NoiseKind, PrivacyParams, make_noise_spec, privatize
from .solver import SolverConfig, corrected_moments, solve
from .tester import TestConfig, verify_survey

_GRID_CAP = 10**6
_TRIAL_CAP = 10**6
_DISTANCE_PROBES = 2048


@dataclass(frozen=True)
class SweepSpec:
    experiment: str
    trials: int
    seed: int
    output_dir: Path
    d: int = 10
    m: int = 10_000
    mu_grid: tuple[float, ...] = (0.0, 0.5, 1.0, 1.5, 2.0)
    tol_grid: tuple[float, ...] = (0.1, 0.2)
    m_grid: tuple[int, ...] = (1_000, 3_000, 10_000, 30_000, 100_000)
    alpha_grid: tuple[float, ...] = (2.0,)
    beta: float = 0.0
    delta: float = 0.1
    kappa: float = 0.0
    workers: int = 1

    def __post_init__(self):
        if self.experiment not in EXPERIMENTS:
            raise ValueError(f"unknown experiment {self.experiment!r}")
        if not 1 <= self.trials <= _TRIAL_CAP:
            raise ValueError(f"trials must be in [1, {_TRIAL_CAP}]")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        for name in ("mu_grid", "tol_grid", "m_grid", "alpha_grid"):
            grid = getattr(self, name)
            if not grid:
                raise ValueError(f"{name} must be non-empty")
            if len(set(grid)) < len(grid):
                raise ValueError(f"{name} repeats a value: {grid}")
        points = math.prod(map(len, _grids(self)))
        if points > _GRID_CAP:
            raise ValueError(f"{self.experiment} has {points} grid points, more than {_GRID_CAP}")
        # The summaries key a float grid's values by their :g form, so two
        # values that print alike would share one summary entry.
        for name in ("mu_grid", "tol_grid", "alpha_grid"):
            keys = {}
            for v in getattr(self, name):
                other = keys.setdefault(f"{v:g}", v)
                if other is not v:
                    raise ValueError(
                        f"{name} values {other!r} and {v!r} share the summary key {v:g}"
                    )
        # The trials' own checks reject a bad value before any trial runs;
        # TestConfig does not check its bounds, so any bounds do.
        RngSpec(self.seed)
        for m in (self.m, *self.m_grid):
            _check_generator_args(self.d, m)
        for mu in self.mu_grid:
            _check_generator_args(self.d, self.m, mu)
        for alpha in self.alpha_grid:
            PrivacyParams(alpha=alpha, beta=self.beta)
        for tol in self.tol_grid:
            TestConfig(kappa=self.kappa, tol=tol, delta=self.delta, bounds=ModelBounds(1, 1, 1))


@dataclass
class SweepResult:
    trials_csv: Path
    summary_json: Path
    summary: dict


def _trial_rng(spec: SweepSpec, grid_index: int, trial: int) -> RngSpec:
    if grid_index >= _GRID_CAP or trial >= _TRIAL_CAP:
        raise ValueError("grid or trial index exceeds the canonical stream capacity")
    exp = _EXPERIMENT_INDEX[spec.experiment]
    stream = (exp * _GRID_CAP + grid_index) * _TRIAL_CAP + trial
    return RngSpec(spec.seed, stream)


def _grids(spec: SweepSpec) -> list[tuple]:
    return [getattr(spec, f"{name}_grid") for name in EXPERIMENTS[spec.experiment][0]]


def _points(spec: SweepSpec) -> list[tuple]:
    return list(itertools.product(*_grids(spec)))


def _normalized_error(theta_hat: np.ndarray, theta_star: np.ndarray) -> float:
    return float(np.linalg.norm(theta_hat - theta_star) / np.linalg.norm(theta_star))


def _model_distance_trial(spec: SweepSpec, mu: float, tol: float, rng: RngSpec) -> dict:
    survey, _, theta_star, sampler = gen_synthetic1(spec.d, spec.m, mu, rng)
    cfg = TestConfig(kappa=spec.kappa, tol=tol, delta=spec.delta, bounds=survey.bounds)
    verdict = verify_survey(survey, sampler, cfg, rng)
    probes = rng.derive(_RNG_TAGS["distance"]).normal(size=(_DISTANCE_PROBES, spec.d))
    return {
        "decision": verdict.decision.value,
        "margin": verdict.margin,
        "gamma_s": verdict.gamma_s,
        "gamma_d": verdict.gamma_d,
        "t_used": verdict.t_used,
        "model_distance": model_distance(verdict.theta_hat, theta_star, probes),
    }


def _error_vs_samples_trial(spec: SweepSpec, alpha: float, m: int, rng: RngSpec) -> dict:
    ds, theta_star = _sparse_survey(spec.d, m, rng, covariate="uniform")
    privacy = PrivacyParams(alpha=alpha, beta=spec.beta)
    noise = make_noise_spec(privacy, ds.bounds.zeta, spec.d)
    pds = privatize(ds, noise, privacy, rng)
    config = SolverConfig(radius=ds.bounds.radius)
    result = solve(corrected_moments(pds), config)
    return {
        "beta": spec.beta,
        "error": _normalized_error(result.theta_hat, theta_star),
        "iterations": result.iterations,
        "converged": result.converged,
    }


def _noise_comparison_trial(spec: SweepSpec, m: int, rng: RngSpec) -> dict:
    # gen_synthetic2 once per kind, with the shared data built once.
    clean, theta_star = _sparse_survey(spec.d, m, rng)
    config = SolverConfig(radius=clean.bounds.radius)
    row = {}
    for kind in (NoiseKind.GAUSSIAN, NoiseKind.LAPLACE):
        result = solve(corrected_moments(_with_covariate_noise(clean, kind, rng)), config)
        row[f"error_{kind.value}"] = _normalized_error(result.theta_hat, theta_star)
    return row


def _run_trial(names, trial_fn, spec: SweepSpec, grid_index: int, point: tuple, trial: int) -> dict:
    row = dict(zip(names, point))
    row.update(trial_fn(spec, *point, _trial_rng(spec, grid_index, trial)))
    row["trial"] = trial
    return row


def _summarize_model_distance(spec: SweepSpec, done: dict) -> dict:
    return {
        f"mu={mu:g},tol={tol:g}": {
            "accept_rate": sum(r["decision"] == "ACCEPT" for r in rows) / len(rows),
            "mean_model_distance": float(np.mean([r["model_distance"] for r in rows])),
            "trials": len(rows),
        }
        for (mu, tol), rows in done.items()
    }


def _summarize_error_vs_samples(spec: SweepSpec, done: dict) -> dict:
    slopes = {}
    for alpha in spec.alpha_grid:
        ms = [m for m in spec.m_grid if (alpha, m) in done]
        means = [float(np.mean([r["error"] for r in done[alpha, m]])) for m in ms]
        entry = {"m": ms, "mean_error": means}
        if len(ms) >= 2:
            entry["loglog_slope"] = float(np.polyfit(np.log(ms), np.log(means), 1)[0])
        slopes[f"alpha={alpha:g}"] = entry
    return slopes


def _summarize_noise_comparison(spec: SweepSpec, done: dict) -> dict:
    comp = {}
    for (m,), rows in done.items():
        mg = float(np.mean([r["error_gaussian"] for r in rows]))
        ml = float(np.mean([r["error_laplace"] for r in rows]))
        comp[f"m={m}"] = {
            "mean_error_gaussian": mg,
            "mean_error_laplace": ml,
            "gaussian_not_worse": mg <= ml,
        }
    return comp


# Each experiment's (grid names, trial, summarize).  A grid point takes a value
# from spec.<name>_grid per name, in order; the trial gets them as arguments, the
# run puts them in each row, and summarize gets {point: rows} of completed points.
# The table's order fixes each experiment's stream index, which seeds every trial.
EXPERIMENTS = {
    "model-distance": (("mu", "tol"), _model_distance_trial, _summarize_model_distance),
    "error-vs-samples": (("alpha", "m"), _error_vs_samples_trial, _summarize_error_vs_samples),
    "noise-comparison": (("m",), _noise_comparison_trial, _summarize_noise_comparison),
}
_EXPERIMENT_INDEX = {name: i + 1 for i, name in enumerate(EXPERIMENTS)}


def run_sweep(spec: SweepSpec, **extra) -> SweepResult:
    """Execute the sweep; returns the output paths and the summary dict,
    which holds any ``extra`` JSON-ready fields besides its own.

    Each (grid point, trial) is one task on a pool of ``spec.workers``
    threads.  A failing trial aborts its grid point: the point contributes
    no rows and, because each point's results are gathered in trial order,
    its lowest failing trial's error is recorded under summary["errors"];
    every trial still runs.  Output files are a deterministic function
    of the spec and do not depend on the worker count.  The tester's
    diagnostics (oversized radius, out-of-range validation responses) are
    notes on each trial's verdict, which the rows do not carry; they are
    never emitted as warnings.
    """
    out = Path(spec.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    names, trial_fn, summarize = EXPERIMENTS[spec.experiment]
    points = _points(spec)
    done: dict[tuple, list[dict]] = {}
    errors: dict[str, str] = {}

    with ThreadPoolExecutor(max_workers=spec.workers) as pool:
        futures = [
            [pool.submit(_run_trial, names, trial_fn, spec, i, p, t) for t in range(spec.trials)]
            for i, p in enumerate(points)
        ]
        for point, trials in zip(points, futures):
            try:
                done[point] = [fut.result() for fut in trials]
            except Exception as exc:  # grid point aborted, others continue
                errors[str(point)] = f"{type(exc).__name__}: {exc}"

    trials_csv = out / f"{spec.experiment}_trials.csv"
    rows = [row for point_rows in done.values() for row in point_rows]
    fieldnames = sorted({k for row in rows for k in row})
    # One chunk of str cells, as csv.writer formats them: a Python float's
    # str is its repr.  The returned digest only serves a dataset's twin.
    text = "".join(",".join(str(row[k]) for k in fieldnames) + "\r\n" for row in rows)
    _write_csv(trials_csv, fieldnames, [text.encode("utf-8")])

    summary = {
        "grid": summarize(spec, done),
        "errors": errors,
        "spec": {k: (str(v) if isinstance(v, Path) else v) for k, v in asdict(spec).items()},
        **extra,
    }
    summary_json = out / f"{spec.experiment}_summary.json"
    _write_json(summary_json, summary)
    return SweepResult(trials_csv=trials_csv, summary_json=summary_json, summary=summary)
