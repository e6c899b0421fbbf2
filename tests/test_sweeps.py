import json

import pytest

from survkit import SweepSpec, run_sweep
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

    def test_invalid_spec_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            SweepSpec(experiment="nope", trials=1, seed=0, output_dir=tmp_path)
        with pytest.raises(ValueError):
            SweepSpec(experiment="model-distance", trials=0, seed=0, output_dir=tmp_path)


def _rows(csv_path):
    import csv as _csv

    with open(csv_path, newline="") as fh:
        return list(_csv.DictReader(fh))
