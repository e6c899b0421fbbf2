"""Every committed BENCH_<n>.json carries the summary its runs give.

The summary is derived by ``scripts/bench_summary.py``; a file whose
summary was edited, or whose runs changed without it, fails here.
"""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location(
    "bench_summary", ROOT / "scripts" / "bench_summary.py"
)
bench_summary = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_summary)


@pytest.mark.parametrize(
    "path", sorted(ROOT.glob("BENCH_*.json")), ids=lambda p: p.name
)
def test_summary_is_derived_from_runs(path):
    bench = json.loads(path.read_text())
    summary = bench_summary.summarize(bench["runs"])
    assert summary == bench["summary"]
    # json keeps 4 and 4.0 apart; == does not.
    assert json.dumps(summary) == json.dumps(bench["summary"])


def test_pairs_and_spreads():
    def run(side, seed, trace, pass_s):
        metrics = {n: {"value": pass_s, "unit": "s"} for n in bench_summary.END_TO_END}
        result = {"attempted": 3, "failed": 0, "metrics": metrics}
        return {"side": side, "workload": "w", "seed": seed, "trace": trace, "result": result}

    runs = [run("parent", s, 0, 2.0 + s) for s in range(4)]
    runs += [run("change", s, 0, 0.5 + 1.5 * s) for s in range(4)]
    runs += [run(side, 0, 1, 1) for side in bench_summary.SIDES]
    summary = bench_summary.summarize(runs)
    row = summary["w trace0"]
    assert row["pairs"]["pass_s"] == "change lower in 3 of 4 pairs"
    assert row["metrics"]["pass_s"]["parent"] == {"median": 3.5, "n": 4, "q1": 2.75, "q3": 4.25}
    assert row["attempted"] == {"parent": 12, "change": 12}
    traced = summary["w trace1"]
    assert traced["pairs"] == {}
    assert traced["metrics"]["pass_s"]["change"] == {"median": 1.0, "n": 1, "all": [1.0]}
