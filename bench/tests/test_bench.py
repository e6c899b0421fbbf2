"""Toy-size self-test of the benchmark.

    PYTHONPATH=src python -m pytest -q bench/tests

Every workload runs at toy size, traced and untraced, passes its correctness
gate and emits every metric named in BENCHMARK.json with its unit. The gate
and the span arithmetic are checked on hand-made inputs.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
sys.path.insert(0, str(ROOT / "bench"))

import inproc  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_workload_emits_every_metric(workload, trace):
    proc = _run(ROOT, "--workload", workload, "--seed", "3", "--seconds", "1",
                "--trace", str(trace), "--toy")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = BENCH["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert np.isfinite(got["value"])
        if not trace:
            assert got["value"] > 0
    assert "# FAILED" not in proc.stdout


def test_all_runs_each_workload_and_prefixes_its_metrics():
    proc = _run(ROOT, "--workload", "all", "--seed", "3", "--seconds", "1", "--toy")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {
        f"{w['name']}/{m['name']}" for w in BENCH["workloads"] for m in BENCH["end_to_end"]
    }


def test_pass_ratios_use_corrected_times():
    def pass_(traced, corrected, wall, serial=False):
        return {"traced": traced, "serial": serial, "wall_s": wall, "warnings": 0,
                "corrected": {"step": corrected},
                "layers": {name: 0.0 for name in run.PER_LAYER}}

    layers, raw = run._per_layer([
        pass_(False, 1.0, 1.0), pass_(True, 1.1, 2.0), pass_(True, 2.2, 2.0, serial=True),
    ])
    assert layers["trace.overhead_share"] == pytest.approx(0.1)
    assert layers["sweeps.parallel_speedup"] == pytest.approx(2.0)
    assert raw == pytest.approx({"trace.overhead_share": 1.0, "sweeps.parallel_speedup": 1.0})


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run(tmp_path, "--workload", "solver-hard", "--seed", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


class _Sweep:
    """A finished sweep as ``Sweeps._check`` sees it: spec, summary, files."""

    def __init__(self, experiment, grid, tmp_path, rows="a\n1\n1\n"):
        self.experiment, self.trials, self.m_grid = experiment, 1, (1000,)
        self.summary = {"errors": {}, "grid": grid}
        self.trials_csv = tmp_path / "t.csv"
        self.trials_csv.write_text(rows, encoding="utf-8")
        self.summary_json = tmp_path / "s.json"
        self.summary_json.write_text("{}", encoding="utf-8")


def _paired_rows(diffs) -> str:
    lines = ["m,error_gaussian,error_laplace"]
    lines += [f"1000,{0.1 + d},0.1" for d in diffs]
    return "\n".join(lines) + "\n"


def test_sweep_gate_tolerances(tmp_path):
    sweeps = inproc.Sweeps(ROOT, tmp_path, 0, toy=False)
    ok = _Sweep("error-vs-samples", {"alpha=2": {"loglog_slope": -0.5}}, tmp_path)
    assert sweeps._check(ok, ok) == 2
    steep = _Sweep("error-vs-samples", {"alpha=2": {"loglog_slope": -0.7}}, tmp_path)
    with pytest.raises(ValueError, match="slope"):
        sweeps._check(steep, steep)
    # Gaussian above Laplace, but within sampling noise: accepted.
    noisy = _Sweep("noise-comparison", {}, tmp_path, _paired_rows([0.01, -0.008, 0.004]))
    assert sweeps._check(noisy, noisy) == 3
    worse = _Sweep("noise-comparison", {}, tmp_path, _paired_rows([0.01, 0.011, 0.012]))
    with pytest.raises(ValueError, match="Gaussian"):
        sweeps._check(worse, worse)
    failed = _Sweep("model-distance", {}, tmp_path)
    failed.summary["errors"] = {"(0.0, 0.1)": "ValueError: x"}
    with pytest.raises(ValueError, match="grid points"):
        sweeps._check(failed, failed)


def test_solver_gate_and_gap():
    inst = inproc.build_instances(0, toy=True)[0]
    exact = inst.exact

    class Result:
        theta_hat = exact + 1e-3

    assert inproc.check_solution(inst, Result()) == pytest.approx(1e-3)
    Result.theta_hat = exact * 10.0  # outside the l1 ball of radius 2 ||exact||_1
    with pytest.raises(ValueError, match="exceeds radius"):
        inproc.check_solution(inst, Result())
    Result.theta_hat = -exact  # feasible, but worse than theta = 0
    with pytest.raises(ValueError, match="above f"):
        inproc.check_solution(inst, Result())


def test_self_time_subtracts_covered_child_time():
    def span(i, name, start, end, parent=None, thread=1):
        return {"id": i, "name": name, "start": start, "end": end,
                "parent": parent, "thread": thread}

    idx = spans.SpanIndex([
        span(1, "sweeps.run_sweep", 0.0, 10.0),
        span(2, "solver.solve", 1.0, 4.0, parent=1, thread=2),
        span(3, "solver.solve", 3.0, 6.0, parent=1, thread=3),
        span(4, "solver.project_l1", 1.5, 2.0, parent=2, thread=2),
    ])
    assert idx.self_s("sweeps.run_sweep") == pytest.approx(5.0)
    assert idx.self_s("solver.solve") == pytest.approx(5.5)
    assert idx.total_s("solver.solve") == pytest.approx(6.0)
    assert idx.busy_share("sweeps.run_sweep", workers=2) == pytest.approx(0.3)
