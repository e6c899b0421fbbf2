"""Acceptance gate: one test per release criterion, each printing a
PASS/FAIL line with the measured quantity and its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

from survkit import (
    CorrectedMoments,
    Dataset,
    Decision,
    ModelBounds,
    NoiseKind,
    NoiseSpec,
    RngSpec,
    SolverConfig,
    SweepSpec,
    TestConfig,
    gen_synthetic1,
    privatize,
    project_l1,
    run_sweep,
    solve,
    survey_loss_bound,
    validate_dataset,
    validation_sample_size,
    verify_survey,
)
from survkit.cli import EXIT_OK, EXIT_REJECT, main

from test_bounds import laplace_square_tail
from test_solver import grid_search_1d, project_l1_bisection


def report(num: int, name: str, ok: bool, detail: str):
    print(f"ACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num} ({name}): {detail}"


def test_01_mechanism_calibration():
    m = 1_000_000
    ds = Dataset(np.zeros((m, 1)), np.zeros(m), ModelBounds(1.0, 1.0, 1.0))
    validate_dataset(ds)
    details, ok = [], True
    for alpha in (0.5, 2.0, 8.0):
        t0 = time.perf_counter()
        spec = NoiseSpec(NoiseKind.LAPLACE, 2.0 / alpha)
        target = 8.0 / alpha**2
        assert spec.per_coordinate_variance == pytest.approx(target, rel=1e-12)
        pds = privatize(ds, spec, None, RngSpec(31, int(alpha * 10)))
        var = float(np.var(pds.z))
        dt = time.perf_counter() - t0
        ok &= abs(var - target) <= 0.05 * target and dt < 10.0
        details.append(f"alpha={alpha}: var={var:.4f} target={target:.4f} {dt:.2f}s")
    report(1, "mechanism-calibration", ok, "; ".join(details))


def test_02_projection_oracle_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(32)
    worst = 0.0
    for i in range(1000):
        d = (2, 20, 200)[i % 3]
        v = rng.normal(size=d) * rng.uniform(0.1, 10)
        r = rng.uniform(0.05, 5)
        gap = float(np.max(np.abs(project_l1(v, r) - project_l1_bisection(v, r))))
        worst = max(worst, gap)
    dt = time.perf_counter() - t0
    report(2, "projection-oracle-equivalence", worst <= 1e-10 and dt < 5.0,
           f"worst gap {worst:.2e} over 1000 vectors, {dt:.2f}s")


def test_03_solver_exactness_benign():
    t0 = time.perf_counter()
    rng = np.random.default_rng(33)
    worst = 0.0
    for _ in range(50):
        d = int(rng.integers(2, 51))
        q, _ = np.linalg.qr(rng.normal(size=(d, d)))
        lam = np.exp(rng.uniform(0.0, math.log(100.0), size=d))
        gm = q @ np.diag(lam) @ q.T
        t_star = rng.normal(size=d) * 0.1
        moments = CorrectedMoments(gm, gm @ t_star, 1)
        res = solve(
            moments,
            SolverConfig(mode="constrained", radius=2 * np.abs(t_star).sum() + 1.0,
                         tol=1e-18, max_iter=100_000),
        )
        direct = np.linalg.solve(gm, moments.gamma_vec)
        worst = max(worst, float(np.max(np.abs(res.theta_hat - direct))))
    dt = time.perf_counter() - t0
    report(3, "solver-exactness-benign", worst < 1e-6 and dt < 30.0,
           f"worst linf gap {worst:.2e} over 50 PSD instances, {dt:.2f}s")


def test_04_indefinite_case_sanity():
    t0 = time.perf_counter()
    moments = CorrectedMoments(np.array([[-1.0]]), np.array([0.0]), 1)
    res = solve(moments, SolverConfig(mode="constrained", radius=1.0))
    _, obj_star = grid_search_1d(-1.0, 0.0, 1.0)
    dt = time.perf_counter() - t0
    ok = (
        abs(abs(res.theta_hat[0]) - 1.0) <= 1e-9
        and abs(res.final_objective - obj_star) <= 1e-9
        and abs(res.final_objective - (-0.5)) <= 1e-9
        and dt < 1.0
    )
    report(4, "indefinite-case-sanity", ok,
           f"theta={res.theta_hat[0]:+.6f} objective={res.final_objective:.12f}, {dt:.2f}s")


def test_05_estimation_error_rate(tmp_path):
    t0 = time.perf_counter()
    spec = SweepSpec(
        experiment="error-vs-samples",
        trials=20,
        seed=35,
        output_dir=tmp_path,
        d=10,
        m_grid=(1_000, 3_000, 10_000, 30_000, 100_000),
        alpha_grid=(2.0,),
        beta=0.0,
    )
    res = run_sweep(spec)
    entry = res.summary["grid"]["alpha=2"]
    slope = entry["loglog_slope"]
    dt = time.perf_counter() - t0
    report(5, "estimation-error-rate", -0.65 <= slope <= -0.35 and dt < 180.0,
           f"loglog slope {slope:.3f} in [-0.65, -0.35], means={np.round(entry['mean_error'], 4).tolist()}, {dt:.1f}s")


def test_06_subgaussian_vs_subexponential(tmp_path):
    t0 = time.perf_counter()
    spec = SweepSpec(
        experiment="noise-comparison",
        trials=20,
        seed=36,
        output_dir=tmp_path,
        d=10,
        m_grid=(1_000, 10_000, 100_000),
    )
    res = run_sweep(spec)
    grid = res.summary["grid"]
    rows = [
        (m, grid[f"m={m}"]["mean_error_gaussian"], grid[f"m={m}"]["mean_error_laplace"])
        for m in spec.m_grid
    ]
    ok = all(g <= l for _, g, l in rows)
    dt = time.perf_counter() - t0
    detail = "; ".join(f"m={m}: gauss={g:.4f} <= lap={l:.4f}" for m, g, l in rows)
    report(6, "subgaussian-vs-subexponential", ok and dt < 180.0, f"{detail}, {dt:.1f}s")


def _tester_rate(mu: float, want: Decision, seed0: int) -> float:
    hits = 0
    for trial in range(100):
        rng = RngSpec(seed0, trial)
        survey, _, _, sampler = gen_synthetic1(10, 10_000, mu, rng)
        cfg = TestConfig(kappa=0.0, tol=0.2, delta=0.1, bounds=survey.bounds)
        verdict = verify_survey(survey, sampler, cfg, rng)
        hits += verdict.decision is want
    return hits / 100.0


def test_07_tester_completeness():
    t0 = time.perf_counter()
    rate = _tester_rate(0.0, Decision.ACCEPT, 37)
    dt = time.perf_counter() - t0
    report(7, "tester-completeness", rate >= 0.85 and dt < 120.0,
           f"ACCEPT rate {rate:.2f} >= 0.85 over 100 trials at mu=0, {dt:.1f}s")


def test_08_tester_far_rejection():
    t0 = time.perf_counter()
    rate = _tester_rate(2.0, Decision.REJECT, 38)
    dt = time.perf_counter() - t0
    report(8, "tester-far-rejection", rate >= 0.9 and dt < 120.0,
           f"REJECT rate {rate:.2f} >= 0.9 over 100 trials at mu=2, {dt:.1f}s")


def test_09_budget_formula():
    t = validation_sample_size(1.0, 0.1, 0.1)
    bound_limit = survey_loss_bound(0.4, 10**30, 7, ModelBounds(1, 1, 1), 0.1)
    ok = t == 185 and abs(bound_limit - 0.4) <= 1e-10
    report(9, "budget-formula", ok,
           f"t(1, 0.1, 0.1)={t} (=185); survey bound at m=1e30 -> {bound_limit!r} (limit 0.4)")


def test_10_tail_bound_soundness():
    t0 = time.perf_counter()
    # CLT calibration for Laplace(0,1) squares: Var(X^2)=20, c = 1/(2*20) <= 1
    c = 0.025
    details, ok = [], True
    rng = np.random.default_rng(40)
    for t in (0.2, 0.3, 0.5):
        freq, bound, slack = laplace_square_tail(10_000, t, c, 2000, rng)
        ok &= freq <= bound + slack
        details.append(f"t={t}: freq={freq:.4g} bound={bound:.3g}+slack={slack:.3g}")
    dt = time.perf_counter() - t0
    report(10, "tail-bound-soundness", ok and dt < 60.0, "; ".join(details) + f", {dt:.1f}s")


def test_11_cli_determinism(tmp_path):
    t0 = time.perf_counter()

    def run_all(root: Path) -> dict[str, bytes]:
        root.mkdir(exist_ok=True)
        prefix = root / "g"
        assert main(["gen", "--kind", "synthetic1", "--d", "4", "--m", "400",
                     "--mu", "0.0", "--seed", "41", "--out", str(prefix), "--quiet"]) == EXIT_OK
        assert main(["gen", "--kind", "synthetic2", "--d", "3", "--m", "200",
                     "--noise", "laplace", "--seed", "41", "--out", str(root / "h"),
                     "--quiet"]) == EXIT_OK
        truth = json.loads((root / "g_truth.json").read_text())
        b = truth["bounds"]
        assert main(["publish", "--input", str(root / "g_survey.csv"),
                     "--output", str(root / "pub.csv"), "--alpha", "2.0",
                     "--zeta", str(b["zeta"]), "--seed", "41", "--quiet"]) == EXIT_OK
        assert main(["fit", "--input", str(root / "pub.csv"), "--sigma-w", "from-sidecar",
                     "--radius", str(b["radius"]), "--output", str(root / "fit.json"),
                     "--quiet"]) == EXIT_OK
        code = main(["verify", "--survey", str(root / "g_survey.csv"),
                     "--validation", str(root / "g_validation.json"),
                     "--tol", "0.2", "--tau", str(b["tau"]), "--radius", str(b["radius"]),
                     "--zeta", str(b["zeta"]), "--seed", "41",
                     "--output", str(root / "verdict.json"), "--quiet"])
        assert code in (EXIT_OK, EXIT_REJECT)
        assert main(["bounds", "--name", "min-samples-laplace", "--zeta", "1",
                     "--alpha", "1", "--d", "3", "--lambda-min", "1",
                     "--output", str(root / "bound.json"), "--quiet"]) == EXIT_OK
        assert main(["sweep", "--experiment", "error-vs-samples", "--trials", "2",
                     "--d", "4", "--m-grid", "300,600", "--alpha-grid", "2.0",
                     "--seed", "41", "--output", str(root / "sw"), "--quiet"]) == EXIT_OK
        names = [
            "g_survey.csv", "g_validation.json", "g_truth.json",
            "h_clean.csv", "h_noisy.csv", "h_noisy.meta.json",
            "pub.csv", "pub.meta.json", "fit.json", "verdict.json", "bound.json",
            "sw/error-vs-samples_trials.csv", "sw/error-vs-samples_summary.json",
        ]
        return {n: (root / n).read_bytes() for n in names}

    root = tmp_path / "run"
    first = run_all(root)
    second = run_all(root)
    diffs = [n for n in first if first[n] != second[n]]
    dt = time.perf_counter() - t0
    report(11, "cli-determinism", not diffs and dt < 60.0,
           f"{len(first)} primary outputs byte-identical across reruns"
           + (f"; DIFFS: {diffs}" if diffs else "") + f", {dt:.1f}s")
