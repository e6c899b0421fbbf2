"""Derive the ``summary`` of a committed BENCH_<n>.json from its ``runs``.

A BENCH file's record is its ``runs``: one entry per ``bench/run.py`` run,
``{"side", "workload", "seed", "trace", "result"}``, where ``result`` is the
last stdout line of that run and ``side`` is ``parent`` or ``change``.  The
``summary`` is derived from them: for each workload and trace level, every
metric's per-side median (with inclusive quartiles from four runs up, and
all values below that), the number of runs, the pairs in which the change
side is lower on each end-to-end metric, and the attempted and failed
operations per side.

    python3 scripts/bench_summary.py BENCH_17.json            # rewrite summary
    python3 scripts/bench_summary.py BENCH_17.json --check    # exit 1 if stale
    python3 scripts/bench_summary.py BENCH_17.json --runs results.jsonl
    python3 scripts/bench_summary.py BENCH_19.json --claim sweeps/pass_s
    python3 scripts/bench_summary.py BENCH_23.json --regressions

``--runs`` first replaces ``runs`` with the lines of a JSONL file in the
same form.  ``--claim WORKLOAD/METRIC`` rewrites nothing: it exits 1 unless
the trace-0 runs show a gain on that end-to-end metric, which means at
least 10 pairs, the change lower in at least 9 of every 10, and the medians
apart by more than the parent's q3 - q1.  ``--regressions`` rewrites
nothing either: for every workload and end-to-end metric of the trace-0
runs it prints one row, "worse", "unresolved" or "ok", by the no-regression
rule with that metric's ``bound`` in the repository's ``BENCHMARK.json``, and
exits 1 on any "worse".
"""

import argparse
import json
import math
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parents[1] / "BENCHMARK.json"

SIDES = ("parent", "change")
END_TO_END = ("pass_s", "setup_s", "peak_rss_mb")


def _spread(values):
    xs = sorted(float(v) for v in values)
    row = {"median": statistics.median(xs), "n": len(xs)}
    if len(xs) < 4:
        return {**row, "all": xs}
    q1, _, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return {**row, "q1": q1, "q3": q3}


def _lower_pairs(sel, name):
    """(pairs in which the change side's ``name`` is lower, pairs) of the
    trace-0 runs ``sel``; a pair is the two sides' runs at one seed."""
    value = {(r["side"], r["seed"]): r["result"]["metrics"][name]["value"] for r in sel}
    seeds = sorted({r["seed"] for r in sel})
    return sum(value["change", s] < value["parent", s] for s in seeds), len(seeds)


def summarize(runs):
    summary = {}
    for workload in dict.fromkeys(r["workload"] for r in runs):
        for trace in sorted({r["trace"] for r in runs if r["workload"] == workload}):
            sel = [r for r in runs if r["workload"] == workload and r["trace"] == trace]
            by_side = {side: [r for r in sel if r["side"] == side] for side in SIDES}
            metrics = {}
            for name, metric in sel[0]["result"]["metrics"].items():
                metrics[name] = {
                    side: _spread(r["result"]["metrics"][name]["value"] for r in rows)
                    for side, rows in by_side.items()
                }
                metrics[name]["unit"] = metric["unit"]
            pairs = {}
            if trace == 0:
                for name in END_TO_END:
                    pairs[name] = "change lower in {} of {} pairs".format(*_lower_pairs(sel, name))
            summary[f"{workload} trace{trace}"] = {
                "metrics": metrics,
                "pairs": pairs,
                "failed": {s: sum(r["result"]["failed"] for r in by_side[s]) for s in SIDES},
                "attempted": {s: sum(r["result"]["attempted"] for r in by_side[s]) for s in SIDES},
            }
    return summary


def claim(runs, workload, name):
    """(whether the trace-0 ``runs`` of ``workload`` show a gain on the
    end-to-end metric ``name``, a line saying why)."""
    sel = [r for r in runs if r["workload"] == workload and r["trace"] == 0]
    lower, n = _lower_pairs(sel, name)
    if n < 10:
        return False, f"{workload}/{name}: {n} pairs, fewer than 10: no claim"
    parent, change = (
        _spread(r["result"]["metrics"][name]["value"] for r in sel if r["side"] == side)
        for side in SIDES
    )
    gap, iqr = parent["median"] - change["median"], parent["q3"] - parent["q1"]
    holds = 10 * lower >= 9 * n and gap > iqr
    return holds, (
        f"{workload}/{name}: change lower in {lower} of {n} pairs; median "
        f"{parent['median']:.6g} -> {change['median']:.6g}, gap {gap:.6g} against the "
        f"parent's q3 - q1 {iqr:.6g}: claim {'holds' if holds else 'not met'}"
    )


def regressions(runs, bounds):
    """[(verdict, line)], one per workload and end-to-end metric of the
    trace-0 ``runs``.  Each metric is lower-is-better and its bound, from
    ``bounds``, is a fraction of the parent's median.  "worse": the change's
    median exceeds the parent's by more than the bound.  "unresolved": the
    parent's q3 - q1 exceeds the bound, or the parent has fewer than 4 runs,
    unless every change run is lower than every parent run.  "ok" otherwise."""
    rows = []
    for workload in dict.fromkeys(r["workload"] for r in runs if r["trace"] == 0):
        sel = [r for r in runs if r["workload"] == workload and r["trace"] == 0]
        for name in END_TO_END:
            parent, change = (
                [r["result"]["metrics"][name]["value"] for r in sel if r["side"] == side]
                for side in SIDES
            )
            p = _spread(parent)
            base, bound = p["median"], bounds[name]
            rise = statistics.median(change) / base - 1
            spread = (p["q3"] - p["q1"]) / base if "q1" in p else math.inf
            if rise > bound:
                verdict = "worse"
            elif spread > bound and not max(change) < min(parent):
                verdict = "unresolved"
            else:
                verdict = "ok"
            rows.append((verdict, (
                f"{workload}/{name}: median {base:.6g} -> {statistics.median(change):.6g} "
                f"({rise:+.1%}), bound {bound:.0%}, parent q3 - q1 "
                f"{'unknown' if spread == math.inf else f'{spread:.1%} of its median'}, "
                f"{len(parent)} and {len(change)} runs: {verdict}"
            )))
    return rows


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("bench_file")
    parser.add_argument("--check", action="store_true")
    parser.add_argument("--runs", help="JSONL file of runs to put in the file first")
    parser.add_argument("--claim", metavar="WORKLOAD/METRIC",
                        help=f"check a gain on one of {', '.join(END_TO_END)}")
    parser.add_argument("--regressions", action="store_true",
                        help="check every end-to-end metric against its bound")
    args = parser.parse_args(argv)
    if args.claim:
        workload, _, name = args.claim.rpartition("/")
        if not workload or name not in END_TO_END:
            parser.error(f"--claim takes WORKLOAD/METRIC with METRIC in {END_TO_END}")
    with open(args.bench_file) as fh:
        bench = json.load(fh)
    if args.runs:
        with open(args.runs) as fh:
            bench["runs"] = [json.loads(line) for line in fh if line.strip()]
    if args.claim:
        holds, line = claim(bench["runs"], workload, name)
        print(line)
        return 0 if holds else 1
    if args.regressions:
        bounds = {m["name"]: m["bound"] for m in json.loads(BENCHMARK.read_text())["end_to_end"]}
        rows = regressions(bench["runs"], bounds)
        for _, line in rows:
            print(line)
        return 1 if any(verdict == "worse" for verdict, _ in rows) else 0
    summary = summarize(bench["runs"])
    if args.check:
        if summary != bench["summary"]:
            print(f"{args.bench_file}: summary does not match runs", file=sys.stderr)
            return 1
        return 0
    bench["summary"] = summary
    with open(args.bench_file, "w") as fh:
        json.dump(bench, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
