import json
import math
import re
import sys
import time
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest

from survkit import (
    NoiseKind, SolverConfig, SweepSpec, corrected_moments, gen_synthetic2, run_sweep, solve,
    verify_survey,
)
from survkit import sweeps as sweeps_mod


def _read(path):
    return path.read_bytes()


class TestModelDistanceSweep:
    def test_close_accepts_far_rejects(self, tmp_path):
        spec = SweepSpec(
            experiment="model-distance",
            trials=5,
            seed=100,
            output_dir=tmp_path,
            d=8,
            m=3000,
            mu_grid=(0.0, 2.0),
            tol_grid=(0.2,),
        )
        res = run_sweep(spec)
        grid = res.summary["grid"]
        assert grid["mu=0,tol=0.2"]["accept_rate"] == 1.0
        assert grid["mu=2,tol=0.2"]["accept_rate"] == 0.0
        assert grid["mu=2,tol=0.2"]["mean_model_distance"] > grid["mu=0,tol=0.2"][
            "mean_model_distance"
        ]
        header = res.trials_csv.read_text().splitlines()[0]
        assert "decision" in header and "trial" in header


class TestErrorVsSamplesSweep:
    def test_error_shrinks_with_m(self, tmp_path):
        spec = SweepSpec(
            experiment="error-vs-samples",
            trials=4,
            seed=7,
            output_dir=tmp_path,
            d=6,
            m_grid=(1000, 10_000),
            alpha_grid=(2.0,),
        )
        res = run_sweep(spec)
        entry = res.summary["grid"]["alpha=2"]
        assert entry["mean_error"][0] > entry["mean_error"][1]
        assert entry["loglog_slope"] < 0


class TestNoiseComparisonSweep:
    def test_both_kinds_recorded(self, tmp_path):
        spec = SweepSpec(
            experiment="noise-comparison",
            trials=3,
            seed=9,
            output_dir=tmp_path,
            d=6,
            m_grid=(2000,),
        )
        res = run_sweep(spec)
        cell = res.summary["grid"]["m=2000"]
        assert cell["mean_error_gaussian"] > 0 and cell["mean_error_laplace"] > 0
        assert "gaussian_not_worse" in cell


class TestSweepMechanics:
    def test_deterministic_outputs(self, tmp_path):
        kw = dict(
            experiment="error-vs-samples", trials=2, seed=5, d=4,
            m_grid=(500, 1000), alpha_grid=(1.0,),
        )
        r1 = run_sweep(SweepSpec(output_dir=tmp_path / "a", **kw))
        r2 = run_sweep(SweepSpec(output_dir=tmp_path / "b", **kw))
        assert _read(r1.trials_csv) == _read(r2.trials_csv)
        s1 = json.loads(r1.summary_json.read_text())
        s2 = json.loads(r2.summary_json.read_text())
        s1["spec"].pop("output_dir")
        s2["spec"].pop("output_dir")
        assert s1 == s2

    def test_worker_pool_matches_serial(self, tmp_path):
        kw = dict(
            experiment="noise-comparison", trials=2, seed=3, d=4, m_grid=(500, 800),
        )
        serial = run_sweep(SweepSpec(output_dir=tmp_path / "s", workers=1, **kw))
        pooled = run_sweep(SweepSpec(output_dir=tmp_path / "p", workers=4, **kw))
        assert _read(serial.trials_csv) == _read(pooled.trials_csv)

    def test_grid_point_failure_recorded_others_continue(self, tmp_path, monkeypatch):
        grid, real, summarize = sweeps_mod.EXPERIMENTS["error-vs-samples"]

        def flaky(spec, alpha, m, rng):
            if m == 700:
                raise RuntimeError("boom")
            return real(spec, alpha, m, rng)

        monkeypatch.setitem(
            sweeps_mod.EXPERIMENTS, "error-vs-samples", (grid, flaky, summarize)
        )
        spec = SweepSpec(
            experiment="error-vs-samples", trials=2, seed=1, output_dir=tmp_path,
            d=4, m_grid=(500, 700, 900), alpha_grid=(1.0,),
        )
        res = run_sweep(spec)
        assert any("700" in k for k in res.summary["errors"])
        ms = {json.loads(json.dumps(r))["m"] for r in _rows(res.trials_csv)}
        assert ms == {"500", "900"}

    def test_lowest_failing_trial_recorded_for_any_worker_count(self, tmp_path, monkeypatch):
        grid, real, summarize = sweeps_mod.EXPERIMENTS["error-vs-samples"]
        kw = dict(experiment="error-vs-samples", trials=5, seed=2, d=4,
                  m_grid=(500, 700, 900), alpha_grid=(1.0,))
        reference = _rows(run_sweep(SweepSpec(output_dir=tmp_path / "ref", **kw)).trials_csv)

        def flaky(spec, alpha, m, rng):
            trial = rng.stream % sweeps_mod._TRIAL_CAP
            if m == 700 and trial == 1:
                time.sleep(0.05)  # with workers > 1, trial 3 fails first
                raise RuntimeError("trial 1")
            if m == 700 and trial == 3:
                raise RuntimeError("trial 3")
            return real(spec, alpha, m, rng)

        monkeypatch.setitem(
            sweeps_mod.EXPERIMENTS, "error-vs-samples", (grid, flaky, summarize)
        )
        # 8 workers and a short switch interval stress the in-order gather
        # with more threads than cores.
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for workers in (1, 2, 3, 8):
                res = run_sweep(
                    SweepSpec(output_dir=tmp_path / str(workers), workers=workers, **kw)
                )
                assert res.summary["errors"] == {"(1.0, 700)": "RuntimeError: trial 1"}
                assert _rows(res.trials_csv) == [r for r in reference if r["m"] != "700"]
        finally:
            sys.setswitchinterval(interval)

    def test_trial_streams_do_not_collide(self):
        spec = SweepSpec(
            experiment="model-distance", trials=3, seed=0, output_dir=".",
        )
        seen = set()
        for g in range(4):
            for t in range(3):
                rng = sweeps_mod._trial_rng(spec, g, t)
                seen.add(rng.stream)
        assert len(seen) == 12
        for g, t in ((sweeps_mod._GRID_CAP, 0), (0, sweeps_mod._TRIAL_CAP)):
            with pytest.raises(ValueError, match="exceeds the canonical stream capacity"):
                sweeps_mod._trial_rng(spec, g, t)

    def test_spec_beyond_stream_capacity_rejected_before_any_trial(self, tmp_path):
        # The spec itself is refused, so no trial reaches _trial_rng's check.
        cap = sweeps_mod._TRIAL_CAP
        kw = dict(experiment="model-distance", seed=0, output_dir=tmp_path)
        with pytest.raises(ValueError, match=rf"^trials must be in \[1, {cap}\]$"):
            SweepSpec(trials=cap + 1, **kw)
        mus = tuple(i / 500 for i in range(1001))
        tols = tuple((i + 1) / 1001 for i in range(1000))
        with pytest.raises(ValueError, match="^model-distance has 1001000 grid points, "
                                             f"more than {sweeps_mod._GRID_CAP}$"):
            SweepSpec(trials=1, mu_grid=mus, tol_grid=tols, **kw)
        # At capacity, and for an experiment that does not cross mu and tol,
        # the same values are accepted.
        SweepSpec(trials=cap, mu_grid=mus[:1000], tol_grid=tols, **kw)
        SweepSpec(**{**kw, "experiment": "noise-comparison"}, trials=1, mu_grid=mus, tol_grid=tols)

    def test_invalid_spec_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            SweepSpec(experiment="nope", trials=1, seed=0, output_dir=tmp_path)
        with pytest.raises(ValueError):
            SweepSpec(experiment="model-distance", trials=0, seed=0, output_dir=tmp_path)
        with pytest.raises(ValueError, match="seed must be an unsigned 64-bit integer"):
            SweepSpec(experiment="model-distance", trials=1, seed=-1, output_dir=tmp_path)
        with pytest.raises(ValueError, match="m_grid must be non-empty"):
            SweepSpec(experiment="model-distance", trials=1, seed=0, output_dir=tmp_path,
                      m_grid=())
        for bad in (dict(kappa=-1.0), dict(delta=0.0), dict(tol_grid=(0.1, 2.0)),
                    dict(alpha_grid=(math.inf,)), dict(beta=1.0)):
            with pytest.raises(ValueError):
                SweepSpec(experiment="noise-comparison", trials=1, seed=0,
                          output_dir=tmp_path, **bad)

    @pytest.mark.parametrize("grid", [dict(mu_grid=(0.0, 0.0)), dict(tol_grid=(0.2, 0.1, 0.2)),
                                      dict(m_grid=(300, 300)), dict(alpha_grid=(2.0, 2.0))])
    def test_repeated_grid_value_rejected(self, tmp_path, grid):
        name = next(iter(grid))
        with pytest.raises(ValueError, match=f"{name} repeats a value"):
            SweepSpec(experiment="model-distance", trials=1, seed=0, output_dir=tmp_path, **grid)

    @pytest.mark.parametrize("name, grid, pair", [
        ("mu_grid", (1.0000001, 1.0000002), "1.0000001 and 1.0000002 share the summary key 1"),
        ("tol_grid", (0.1, 0.2, 0.20000001), "0.2 and 0.20000001 share the summary key 0.2"),
        ("alpha_grid", (2.0, 1e-7, 1.0000001e-7),
         "1e-07 and 1.0000001e-07 share the summary key 1e-07"),
    ])
    def test_grid_values_printing_alike_rejected(self, tmp_path, name, grid, pair):
        # A float grid point is keyed in the summary by its :g form, so two
        # values that print alike would merge into one summary entry.
        with pytest.raises(ValueError, match=f"^{name} values {re.escape(pair)}$"):
            SweepSpec(experiment="model-distance", trials=1, seed=0, output_dir=tmp_path,
                      **{name: grid})


def _rows(csv_path):
    import csv as _csv

    with open(csv_path, newline="") as fh:
        return list(_csv.DictReader(fh))


# Toy versions of the three experiments, each with several grid points.
_TOY = {
    "model-distance": dict(trials=3, d=4, m=400, mu_grid=(0.0, 2.0), tol_grid=(0.1, 0.2)),
    "error-vs-samples": dict(trials=3, d=4, m_grid=(300, 600, 1200), alpha_grid=(1.0, 2.0)),
    "noise-comparison": dict(trials=4, d=4, m_grid=(300, 900)),
}


def _summary_from_csv(spec, csv_path):
    """Each summary grid entry recomputed from the trials CSV alone, its rows
    grouped by the experiment's grid columns."""
    groups = {}
    for r in _rows(csv_path):
        key = tuple(r[name] for name in sweeps_mod.EXPERIMENTS[spec.experiment][0])
        groups.setdefault(key, []).append(r)

    def mean(rows, column):
        return float(np.mean([float(r[column]) for r in rows]))

    if spec.experiment == "model-distance":
        return {f"mu={float(mu):g},tol={float(tol):g}": {
            "accept_rate": sum(r["decision"] == "ACCEPT" for r in rows) / len(rows),
            "mean_model_distance": mean(rows, "model_distance"),
            "trials": len(rows),
        } for (mu, tol), rows in groups.items()}
    if spec.experiment == "noise-comparison":
        return {f"m={m}": {
            "mean_error_gaussian": mean(rows, "error_gaussian"),
            "mean_error_laplace": mean(rows, "error_laplace"),
            "gaussian_not_worse": mean(rows, "error_gaussian") <= mean(rows, "error_laplace"),
        } for (m,), rows in groups.items()}
    slopes = {f"alpha={alpha:g}": {"m": [], "mean_error": []} for alpha in spec.alpha_grid}
    for (alpha, m), rows in groups.items():
        entry = slopes[f"alpha={float(alpha):g}"]
        entry["m"].append(int(m))
        entry["mean_error"].append(mean(rows, "error"))
    for entry in slopes.values():
        if len(entry["m"]) >= 2:
            fit = np.polyfit(np.log(entry["m"]), np.log(entry["mean_error"]), 1)
            entry["loglog_slope"] = float(fit[0])
    return slopes


class TestSummariesMatchTrials:
    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("experiment", sorted(_TOY))
    def test_every_summary_is_what_its_trials_csv_says(self, tmp_path, experiment, workers):
        spec = SweepSpec(experiment=experiment, seed=17, workers=workers, output_dir=tmp_path,
                         **{**_TOY[experiment], "trials": 3})
        res = run_sweep(spec)
        assert res.summary["errors"] == {}
        expected = _summary_from_csv(spec, res.trials_csv)
        assert list(res.summary["grid"].items()) == list(expected.items())
        assert json.loads(res.summary_json.read_text())["grid"] == expected

    def test_aborted_point_is_only_under_errors(self, tmp_path, monkeypatch):
        names, real, summarize = sweeps_mod.EXPERIMENTS["error-vs-samples"]

        def flaky(spec, alpha, m, rng):
            if (alpha, m) == (2.0, 600):
                raise RuntimeError("boom")
            return real(spec, alpha, m, rng)

        monkeypatch.setitem(
            sweeps_mod.EXPERIMENTS, "error-vs-samples", (names, flaky, summarize)
        )
        spec = SweepSpec(experiment="error-vs-samples", seed=17, workers=2,
                         output_dir=tmp_path, **{**_TOY["error-vs-samples"], "trials": 3})
        res = run_sweep(spec)
        assert res.summary["errors"] == {"(2.0, 600)": "RuntimeError: boom"}
        points = {(r["alpha"], r["m"]) for r in _rows(res.trials_csv)}
        assert ("2.0", "600") not in points and len(points) == 5
        grid = res.summary["grid"]
        assert grid["alpha=1"]["m"] == [300, 600, 1200] and grid["alpha=2"]["m"] == [300, 1200]
        assert list(grid.items()) == list(_summary_from_csv(spec, res.trials_csv).items())


class TestWorkerCountInvariance:
    @pytest.mark.parametrize("experiment", sorted(_TOY))
    def test_outputs_identical_for_any_worker_count(self, tmp_path, experiment):
        outputs = []
        for workers in (1, 2, 3):
            res = run_sweep(SweepSpec(experiment=experiment, seed=13, workers=workers,
                                      output_dir=tmp_path / str(workers), **_TOY[experiment]))
            summary = json.loads(res.summary_json.read_text())
            del summary["spec"]["output_dir"], summary["spec"]["workers"]
            outputs.append((res.trials_csv.read_bytes(), summary))
        assert outputs[0] == outputs[1] == outputs[2]

    def test_tester_warnings_filtered_for_any_worker_count(self, tmp_path, monkeypatch):
        # The tester's diagnostics are verdict notes, the same for any worker
        # count, and no RuntimeWarning is raised.
        spec = SweepSpec(experiment="model-distance", trials=4, seed=11, output_dir=tmp_path,
                         d=4, m=400, mu_grid=(0.0, 0.5, 1.0, 1.5, 2.0), tol_grid=(0.2,))
        notes: list[str] = []

        def noting_verify(*args):
            verdict = verify_survey(*args)
            notes.extend(verdict.notes)
            return verdict

        monkeypatch.setattr(sweeps_mod, "verify_survey", noting_verify)
        sweeps_mod._model_distance_trial(spec, 0.0, 0.2, sweeps_mod._trial_rng(spec, 0, 0))
        assert notes and notes[0].startswith("radius 1 exceeds tau/(zeta*sqrt(d+1))")

        recorded = {}
        for workers in (1, 2, 3):
            notes.clear()
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                run_sweep(replace(spec, workers=workers, output_dir=tmp_path / str(workers)))
            assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
            recorded[workers] = sorted(notes)
        assert len(recorded[1]) >= 20  # every trial notes the radius
        assert recorded[1] == recorded[2] == recorded[3]


class TestTrialMemory:
    # Peak traced bytes, in m x d covariate matrices.  The datasets keep the
    # buffers their producers hand over, so a trial peaks at about 2.35
    # (noise-comparison: clean x and one kind's noisy covariates), 2.23
    # (error-vs-samples: x and the noisy covariates) and 1.30 (model-distance:
    # the survey's x); one more m x d copy anywhere exceeds the bound.
    @pytest.mark.parametrize("experiment, matrices", [
        ("noise-comparison", 2.5),
        ("error-vs-samples", 2.5),
        ("model-distance", 1.5),
    ])
    def test_peak_within_bound(self, experiment, matrices):
        m, d = 20_000, 10
        _, trial, _ = sweeps_mod.EXPERIMENTS[experiment]
        # First-call imports are not the trial's memory: a tiny trial runs first.
        for size in (50, m):
            spec = SweepSpec(experiment=experiment, trials=1, seed=3, output_dir=".", d=d,
                             m=size, m_grid=(size,))
            rng = sweeps_mod._trial_rng(spec, 0, 0)
            tracemalloc.start()
            try:
                trial(spec, *sweeps_mod._points(spec)[0], rng)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peak <= matrices * m * d * 8

    # Seeded trial results as the sweeps computed them before every survey was
    # drawn through LinearModelSource, so a drift in the shared data path
    # fails here.
    def test_error_vs_samples_row_is_pinned(self):
        spec = SweepSpec(experiment="error-vs-samples", trials=1, seed=5, output_dir=".", d=6)
        rng = sweeps_mod._trial_rng(spec, 1, 2)
        row = sweeps_mod._error_vs_samples_trial(spec, 2.0, 800, rng)
        assert (repr(row["error"]), row["iterations"]) == ("0.5606313164937236", 5)

    def test_noise_comparison_gaussian_error_is_pinned(self):
        spec = SweepSpec(experiment="noise-comparison", trials=1, seed=5, output_dir=".", d=6)
        row = sweeps_mod._noise_comparison_trial(spec, 800, sweeps_mod._trial_rng(spec, 0, 1))
        assert repr(row["error_gaussian"]) == "0.08390022422302136"

    def test_noise_comparison_pairs_gen_synthetic2_draws(self):
        m, d = 2_000, 5
        spec = SweepSpec(experiment="noise-comparison", trials=1, seed=4, output_dir=".", d=d)
        rng = sweeps_mod._trial_rng(spec, 0, 0)
        row = sweeps_mod._noise_comparison_trial(spec, m, rng)
        for kind in NoiseKind:
            clean, noisy, theta_star = gen_synthetic2(d, m, kind, rng)
            result = solve(corrected_moments(noisy),
                           SolverConfig(mode="constrained", radius=clean.bounds.radius))
            expected = np.linalg.norm(result.theta_hat - theta_star) / np.linalg.norm(theta_star)
            assert row[f"error_{kind.value}"] == float(expected)
