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


def _claim_runs(parent, change):
    """Trace-0 runs of workload ``w``, pair i at seed i, with these pass_s values."""
    def run(side, seed, pass_s):
        metrics = {n: {"value": 1.0, "unit": "s"} for n in bench_summary.END_TO_END}
        metrics["pass_s"]["value"] = pass_s
        result = {"attempted": 3, "failed": 0, "metrics": metrics}
        return {"side": side, "workload": "w", "seed": seed, "trace": 0, "result": result}

    return [run(side, i, v) for side, values in zip(bench_summary.SIDES, (parent, change))
            for i, v in enumerate(values)]


@pytest.mark.parametrize("parent, change, holds", [
    # Lower in 9 of 10 pairs; medians 1.45 and 0.85, parent q3 - q1 0.45.
    ([1.0 + 0.1 * i for i in range(10)], [1.1] + [0.3 + 0.1 * i for i in range(1, 10)], True),
    # Lower in 8 of 10 pairs, the medians as far apart.
    ([1.0 + 0.1 * i for i in range(10)], [1.1, 1.2] + [0.3 + 0.1 * i for i in range(2, 10)],
     False),
    # Lower in 10 of 10 pairs, but the medians are 0.05 apart.
    ([1.0 + 0.1 * i for i in range(10)], [0.95 + 0.1 * i for i in range(10)], False),
    # Lower in 9 of 9 pairs: too few to claim.
    ([1.0 + 0.1 * i for i in range(9)], [0.5 + 0.1 * i for i in range(9)], False),
])
def test_claim_needs_nine_tenths_of_ten_pairs_and_the_parents_spread(
        tmp_path, capsys, parent, change, holds):
    path = tmp_path / "BENCH_0.json"
    runs = _claim_runs(parent, change)
    path.write_text(json.dumps({"runs": runs, "summary": bench_summary.summarize(runs)}))
    before = path.read_text()
    assert bench_summary.main([str(path), "--claim", "w/pass_s"]) == (0 if holds else 1)
    assert capsys.readouterr().out.rstrip().endswith("holds" if holds else ("not met", "no claim"))
    assert path.read_text() == before


def test_claim_names_an_end_to_end_metric(tmp_path):
    with pytest.raises(SystemExit):
        bench_summary.main([str(tmp_path / "BENCH_0.json"), "--claim", "w/solver.iterations"])


@pytest.mark.parametrize("parent, change, verdict", [
    # pass_s's bound in BENCHMARK.json is 0.25 of the parent's median.
    ([1.0 + 0.01 * i for i in range(10)], [1.1 + 0.01 * i for i in range(10)], "ok"),
    ([1.0 + 0.01 * i for i in range(10)], [1.3 + 0.01 * i for i in range(10)], "worse"),
    # The parent's q3 - q1 is 0.45, 0.31 of its median: wider than the bound.
    ([1.0 + 0.1 * i for i in range(10)], [1.0 + 0.1 * i for i in range(10)], "unresolved"),
    # As wide, but every change run is lower than every parent run.
    ([1.0 + 0.1 * i for i in range(10)], [0.5 + 0.01 * i for i in range(10)], "ok"),
    # Three runs a side give no quartiles.
    ([1.0, 1.0, 1.0], [0.99, 1.0, 1.01], "unresolved"),
])
def test_regressions_apply_each_metrics_bound(tmp_path, capsys, parent, change, verdict):
    path = tmp_path / "BENCH_0.json"
    runs = _claim_runs(parent, change)
    path.write_text(json.dumps({"runs": runs, "summary": bench_summary.summarize(runs)}))
    before = path.read_text()
    code = bench_summary.main([str(path), "--regressions"])
    lines = capsys.readouterr().out.splitlines()
    assert code == (1 if verdict == "worse" else 0)
    assert [line.split(":")[0] for line in lines] == [
        f"w/{name}" for name in bench_summary.END_TO_END]
    # The other metrics read 1.0 on both sides.
    assert [line.rsplit(": ", 1)[1] for line in lines] == [
        verdict, *(("unresolved",) if len(parent) < 4 else ("ok",)) * 2]
    assert path.read_text() == before
