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

All randomness flows from the single sweep seed through the canonical
stream encoding (experiment-index, grid-index, trial-index).  The trial,
not the grid point, is what the bounded worker pool schedules, so the
trials of one large grid point spread over all workers; rows are gathered
back per grid point, and output ordering is canonical regardless of
completion order or worker count.  Emits one tidy trials CSV (one row per
trial per grid point) and one summary JSON per run.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .core import _RNG_TAGS, ModelBounds, RngSpec, model_distance
from .datagen import (
    _check_generator_args, _clip, _synthetic2_base, _with_covariate_noise, _write_csv,
    _write_json, gen_synthetic1, sparse_coefficients,
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
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        for name in ("mu_grid", "tol_grid", "m_grid", "alpha_grid"):
            grid = getattr(self, name)
            if not grid:
                raise ValueError(f"{name} must be non-empty")
            if len(set(grid)) < len(grid):
                raise ValueError(f"{name} repeats a value: {grid}")
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


def _normalized_error(theta_hat: np.ndarray, theta_star: np.ndarray) -> float:
    return float(np.linalg.norm(theta_hat - theta_star) / np.linalg.norm(theta_star))


def _model_distance_trial(spec: SweepSpec, mu: float, tol: float, rng: RngSpec) -> dict:
    survey, _, theta_star, sampler = gen_synthetic1(spec.d, spec.m, mu, rng)
    cfg = TestConfig(kappa=spec.kappa, tol=tol, delta=spec.delta, bounds=survey.bounds)
    verdict = verify_survey(survey, sampler, cfg, rng)
    probes = rng.derive(_RNG_TAGS["distance"]).normal(size=(_DISTANCE_PROBES, spec.d))
    dist = model_distance(verdict.theta_hat, theta_star, probes)
    return {
        "mu": mu,
        "tol": tol,
        "decision": verdict.decision.value,
        "margin": verdict.margin,
        "gamma_s": verdict.gamma_s,
        "gamma_d": verdict.gamma_d,
        "t_used": verdict.t_used,
        "model_distance": dist,
    }


def _error_vs_samples_trial(spec: SweepSpec, alpha: float, m: int, rng: RngSpec) -> dict:
    gen = rng.derive(_RNG_TAGS["data"])
    theta_star = sparse_coefficients(spec.d, gen)
    x = gen.uniform(-1.0, 1.0, size=(m, spec.d))
    y = x @ theta_star + gen.normal(size=m)
    tau = 4.0 * math.sqrt(float(theta_star @ theta_star) / 3.0 + 1.0)
    radius = 1.1 * max(1.0, float(np.sum(np.abs(theta_star))))
    ds, _ = _clip(x, y, ModelBounds(1.0, tau, radius))
    privacy = PrivacyParams(alpha=alpha, beta=spec.beta)
    noise = make_noise_spec(privacy, ds.bounds.zeta, spec.d)
    pds = privatize(ds, noise, privacy, rng)
    result = solve(corrected_moments(pds), SolverConfig(mode="constrained", radius=radius))
    return {
        "alpha": alpha,
        "beta": spec.beta,
        "m": m,
        "error": _normalized_error(result.theta_hat, theta_star),
        "iterations": result.iterations,
        "converged": result.converged,
    }


def _noise_comparison_trial(spec: SweepSpec, m: int, rng: RngSpec) -> dict:
    # gen_synthetic2 once per kind, with the shared data built once.
    clean, theta_star = _synthetic2_base(spec.d, m, rng)
    config = SolverConfig(mode="constrained", radius=clean.bounds.radius)
    row: dict = {"m": m}
    for kind in (NoiseKind.GAUSSIAN, NoiseKind.LAPLACE):
        result = solve(corrected_moments(_with_covariate_noise(clean, kind, rng)), config)
        row[f"error_{kind.value}"] = _normalized_error(result.theta_hat, theta_star)
    return row


def _run_trial(trial_fn, spec: SweepSpec, grid_index: int, point: tuple, trial: int) -> dict:
    row = trial_fn(spec, *point, _trial_rng(spec, grid_index, trial))
    row["trial"] = trial
    return row


def _fit_slope(ms: list[float], means: list[float]) -> float:
    coeffs = np.polyfit(np.log(ms), np.log(means), 1)
    return float(coeffs[0])


def _summarize_model_distance(spec: SweepSpec, rows: list[dict]) -> dict:
    rates = {}
    for mu in spec.mu_grid:
        for tol in spec.tol_grid:
            sel = [r for r in rows if r["mu"] == mu and r["tol"] == tol]
            if sel:
                rates[f"mu={mu:g},tol={tol:g}"] = {
                    "accept_rate": sum(r["decision"] == "ACCEPT" for r in sel) / len(sel),
                    "mean_model_distance": float(np.mean([r["model_distance"] for r in sel])),
                    "trials": len(sel),
                }
    return rates


def _summarize_error_vs_samples(spec: SweepSpec, rows: list[dict]) -> dict:
    slopes = {}
    for alpha in spec.alpha_grid:
        ms, means = [], []
        for m in spec.m_grid:
            sel = [r["error"] for r in rows if r["alpha"] == alpha and r["m"] == m]
            if sel:
                ms.append(m)
                means.append(float(np.mean(sel)))
        entry = {"m": ms, "mean_error": means}
        if len(ms) >= 2:
            entry["loglog_slope"] = _fit_slope(ms, means)
        slopes[f"alpha={alpha:g}"] = entry
    return slopes


def _summarize_noise_comparison(spec: SweepSpec, rows: list[dict]) -> dict:
    comp = {}
    for m in spec.m_grid:
        sel = [r for r in rows if r["m"] == m]
        if sel:
            mg = float(np.mean([r["error_gaussian"] for r in sel]))
            ml = float(np.mean([r["error_laplace"] for r in sel]))
            comp[f"m={m}"] = {
                "mean_error_gaussian": mg,
                "mean_error_laplace": ml,
                "gaussian_not_worse": mg <= ml,
            }
    return comp


# Each experiment's (grid, trial, summarize).  A grid point is the tuple of
# trial arguments between the spec and the RngSpec.  The order fixes each
# experiment's stream index (1, 2, 3), which seeds every trial.
EXPERIMENTS = {
    "model-distance": (
        lambda spec: [(mu, tol) for mu in spec.mu_grid for tol in spec.tol_grid],
        _model_distance_trial,
        _summarize_model_distance,
    ),
    "error-vs-samples": (
        lambda spec: [(alpha, m) for alpha in spec.alpha_grid for m in spec.m_grid],
        _error_vs_samples_trial,
        _summarize_error_vs_samples,
    ),
    "noise-comparison": (
        lambda spec: [(m,) for m in spec.m_grid],
        _noise_comparison_trial,
        _summarize_noise_comparison,
    ),
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
    grid, trial_fn, summarize = EXPERIMENTS[spec.experiment]
    points = grid(spec)
    rows: list[dict] = []
    errors: dict[str, str] = {}

    with ThreadPoolExecutor(max_workers=spec.workers) as pool:
        futures = [
            [pool.submit(_run_trial, trial_fn, spec, i, point, t) for t in range(spec.trials)]
            for i, point in enumerate(points)
        ]
        for point, trials in zip(points, futures):
            try:
                point_rows = [fut.result() for fut in trials]
            except Exception as exc:  # grid point aborted, others continue
                errors[str(point)] = f"{type(exc).__name__}: {exc}"
            else:
                rows.extend(point_rows)

    trials_csv = out / f"{spec.experiment}_trials.csv"
    fieldnames = sorted({k for row in rows for k in row})
    # str, as csv.writer formats a cell: a Python float's str is its repr.
    _write_csv(trials_csv, fieldnames, ([str(row[k]) for k in fieldnames] for row in rows))

    summary = {
        "grid": summarize(spec, rows),
        "errors": errors,
        "spec": {k: (str(v) if isinstance(v, Path) else v) for k, v in asdict(spec).items()},
        **extra,
    }
    summary_json = out / f"{spec.experiment}_summary.json"
    _write_json(summary_json, summary)
    return SweepResult(trials_csv=trials_csv, summary_json=summary_json, summary=summary)
