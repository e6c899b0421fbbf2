"""survkit benchmark: run one workload (or all) from a seed, check its outputs,
and print its metrics.

    python3 bench/run.py --workload {cli-pipeline|sweeps|solver-hard|all}
                         --seed N [--seconds S] [--trace 0|1] [--toy]

Run it from the repository root (it finds ``src/`` next to ``bench/``).
Every workload is a closed loop with one caller: each step starts after the
previous one returns. BLAS is pinned to one thread for the benchmark and its
child processes. With ``--trace 0`` the last line of standard output is a
JSON object with the end-to-end metrics; with ``--trace 1`` it holds the
per-layer metrics of a traced pass, next to an untraced one. A human-readable
table (median, min, max and sample count of every metric) is printed above
it, and the full run record is written under ``bench/out/``. See
``bench/README.md`` for the metric glossary.
"""

from __future__ import annotations

import os

# Pin BLAS before anything imports numpy, here or in a child process.
BLAS_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}
os.environ.update(BLAS_ENV)

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import clock  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "bench" / "out"
WORKLOADS = ("cli-pipeline", "sweeps", "solver-hard")

END_TO_END = {
    "setup_s": "s",
    "pass_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "cli.import_s": "s",
    "cli.command_self_s": "s",
    "datagen.load_csv_s": "s",
    "datagen.load_csv_calls": "count",
    "datagen.csv_bytes_read": "bytes",
    "datagen.load_private_s": "s",
    "datagen.save_csv_s": "s",
    "datagen.save_private_s": "s",
    "datagen.csv_bytes_written": "bytes",
    "datagen.gen_synthetic1_s": "s",
    "datagen.gen_synthetic2_s": "s",
    "mechanisms.privatize_s": "s",
    "mechanisms.noised_cells": "count",
    "core.validate_dataset_s": "s",
    "core.loss_s": "s",
    "solver.moments_s": "s",
    "solver.spectral_bound_s": "s",
    "solver.iterations": "count",
    "solver.solves": "count",
    "solver.converged_share": "share",
    "solver.solve_self_s": "s",
    "solver.project_l1_s": "s",
    "tester.verify_self_s": "s",
    "tester.validation_rows": "count",
    "tester.warnings": "count",
    "sweeps.run_sweep_self_s": "s",
    "sweeps.worker_busy_share": "share",
    "sweeps.parallel_speedup": "ratio",
    "bounds.eval_s": "s",
    "trace.overhead_share": "share",
}
# Fresh-interpreter set-up samples per run, spread between the measured
# cycles so that one slow spell of the machine cannot hit them all.
SETUP_SAMPLES = 8


def _workload(name: str, workdir: Path, seed: int, toy: bool):
    if name == "cli-pipeline":
        from pipeline import CliPipeline

        return CliPipeline(ROOT, workdir, seed, toy)
    from inproc import WORKLOADS as INPROC

    return INPROC[name](ROOT, workdir, seed, toy)


def _measure_setup(workload, steps: "clock.Steps", samples: int) -> None:
    """Time fresh interpreters doing the workload's set-up, between probes."""
    for _ in range(samples):
        with steps.time(f"setup-{len(steps.wall)}"):
            proc = subprocess.run(
                workload.setup_argv(), cwd=ROOT, capture_output=True, text=True, timeout=60
            )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up failed: {proc.stderr.strip()[-500:]}")


def _peak_rss_mb(workload) -> float:
    # The CLI runs in child processes; the in-process workloads run here.
    who = resource.RUSAGE_CHILDREN if workload.name == "cli-pipeline" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def _stats(values) -> dict:
    """Median, min, max and count; the median is the reported value."""
    values = [v for v in values if not math.isnan(v)]
    if not values:
        return {"value": math.nan, "median": math.nan, "min": math.nan,
                "max": math.nan, "n": 0}
    median = statistics.median(values)
    return {"value": median, "median": median, "min": min(values),
            "max": max(values), "n": len(values)}


def _timed(raw: list[float], corrected: float) -> dict:
    """A time figure: the probe-corrected value, with the raw wall times'
    median, min and max beside it."""
    return {**_stats(raw), "value": corrected}


def _step_median(passes: list[dict], step: str) -> float:
    return statistics.median(p["corrected"][step] for p in passes)


def _figures(name: str, plain: list[dict], setup: dict, rss_mb: float,
             failed: int, attempted: int) -> dict:
    """Every figure of the run by name: (unit, value/median/min/max/n)."""
    steps = list(plain[0]["steps"])
    pass_s = _timed([p["wall_s"] for p in plain], sum(_step_median(plain, k) for k in steps))
    figures = {
        "setup_s": ("s", _timed(list(setup["steps"].values()),
                                statistics.median(setup["corrected"].values()))),
        "pass_s": ("s", pass_s),
        "peak_rss_mb": ("MB", _stats([rss_mb])),
        "failed_share": ("share", {**_stats([failed / attempted]), "n": attempted}),
    }
    if name == "cli-pipeline":
        figures["pipeline_s"] = ("s", pass_s)
        for step in steps:
            figures[f"{step}_s"] = ("s", _timed([p["steps"][step] for p in plain],
                                                _step_median(plain, step)))
    elif name == "sweeps":
        trials = plain[0]["trials"]
        figures["sweep_s"] = ("s", pass_s)
        figures["trials_per_s"] = ("1/s", {
            "value": trials / pass_s["value"], "median": trials / pass_s["median"],
            "min": trials / pass_s["max"], "max": trials / pass_s["min"], "n": pass_s["n"],
        })
    else:
        figures["solve_s"] = ("s", pass_s)
        figures["solve_error_max"] = ("linf", _stats([p["solve_error_max"] for p in plain]))
    return figures


def _per_layer(passes: list[dict]) -> tuple[dict[str, float], dict[str, float]]:
    """The per-layer metrics, and the two pass-time ratios from raw wall
    times for the record. The reported ratios use probe-corrected times,
    since the passes they compare run in different states of the machine."""
    traced = [p for p in passes if p["traced"] and not p.get("serial")]
    serial = [p for p in passes if p["traced"] and p.get("serial")]
    plain = [p for p in passes if not p["traced"]]

    def median(group, key):
        return statistics.median(key(p) for p in group)

    out = {
        name: median(traced, lambda p: p["layers"][name])
        for name in PER_LAYER
        if name not in ("tester.warnings", "sweeps.parallel_speedup", "trace.overhead_share")
    }
    # Tracing shifts the threads' timing, and with it whether the sweeps'
    # pool leaks warnings, so warnings are counted in the untraced passes.
    out["tester.warnings"] = median(plain, lambda p: p["warnings"])
    ratios = {}
    for kind, key in (("corrected", lambda p: sum(p["corrected"].values())),
                      ("raw", lambda p: p["wall_s"])):
        traced_s = median(traced, key)
        ratios[kind] = {
            "trace.overhead_share": traced_s / median(plain, key) - 1.0,
            "sweeps.parallel_speedup": median(serial, key) / traced_s if serial else 0.0,
        }
    return {**out, **ratios["corrected"]}, ratios["raw"]


def run_workload(name: str, seed: int, seconds: int, trace: bool, toy: bool) -> dict:
    workdir = OUT / f"work-{name}-{seed}-{int(trace)}-{os.getpid()}"
    workload = _workload(name, workdir, seed, toy)
    samples = 1 if toy else SETUP_SAMPLES
    affinity = os.sched_getaffinity(0)
    if workload.threads == 1:
        # The probe and the work then share one CPU.
        os.sched_setaffinity(0, {min(affinity)})
    setup = clock.Steps(clock.start_probe)
    try:
        # One untimed set-up first lets byte-code caches fill, as for users.
        _measure_setup(workload, clock.Steps(clock.start_probe), 1)
        _measure_setup(workload, setup, 1)
        workload.prepare()
        passes, cycles, elapsed = [], 0, 0.0
        while True:
            t0 = time.perf_counter()
            passes += workload.cycle(trace)
            elapsed += time.perf_counter() - t0
            cycles += 1
            # Stop at whichever cycle count ends nearest to ``seconds``.
            if elapsed + elapsed / cycles - seconds >= seconds - elapsed:
                break
            due = min(samples, round(samples * elapsed / seconds))
            _measure_setup(workload, setup, max(0, due - len(setup.wall)))
        _measure_setup(workload, setup, samples - len(setup.wall))
    finally:
        os.sched_setaffinity(0, affinity)
        shutil.rmtree(workdir, ignore_errors=True)
    plain = [p for p in passes if not p["traced"]]
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    figures = _figures(name, plain, setup.record(), _peak_rss_mb(workload), failed, attempted)
    record = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "toy": toy,
        "params": workload.params(),
        "setup": setup.record(),
        "figures": {k: {"unit": u, **s} for k, (u, s) in figures.items()},
        "passes": passes,
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
    }
    if trace:
        record["per_layer"], record["per_layer_raw"] = _per_layer(passes)
    return record


def environment() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas = "unknown"
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    commit = "unknown"
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text(encoding="utf-8").strip()
        commit = ref
        if ref.startswith("ref: ") and (ROOT / ".git" / ref[5:]).is_file():
            commit = (ROOT / ".git" / ref[5:]).read_text(encoding="utf-8").strip()
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads_env": BLAS_ENV,
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "git_commit": commit,
        "pythonpath": "src",
        "load": "closed loop, one caller",
    }


def _print_table(record: dict) -> None:
    print(f"# survkit benchmark: workload={record['workload']} seed={record['seed']} "
          f"trace={record['trace']} passes={len(record['passes'])} "
          f"attempted={record['attempted']} failed={record['failed']}")
    print(f"{'metric':28s} {'unit':6s} {'value':>12s} {'raw median':>12s} {'raw min':>12s} "
          f"{'raw max':>12s} {'n':>5s}")
    for metric, fig in record["figures"].items():
        print(f"{metric:28s} {fig['unit']:6s} {fig['value']:12.6g} {fig['median']:12.6g} "
              f"{fig['min']:12.6g} {fig['max']:12.6g} {fig['n']:5d}")
    for metric, value in record.get("per_layer", {}).items():
        print(f"{metric:28s} {PER_LAYER[metric]:6s} {value:12.6g}")
    for p in record["passes"]:
        for failure in p["failures"]:
            print(f"# FAILED: {failure}")


def _metrics(record: dict, trace: bool) -> dict:
    if trace:
        return {k: {"value": record["per_layer"][k], "unit": u} for k, u in PER_LAYER.items()}
    return {k: {"value": record["figures"][k]["value"], "unit": u}
            for k, u in END_TO_END.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true",
                        help="tiny sizes, one set-up sample: for the self-test")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    if not (SRC / "survkit" / "__init__.py").is_file():
        print(f"bench: no survkit sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return _run_all(args)
    sys.path.insert(0, str(SRC))
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    OUT.mkdir(parents=True, exist_ok=True)

    record = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), args.toy)
    record["environment"] = environment()
    path = OUT / f"record-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    _print_table(record)
    print(f"# record: {path.relative_to(ROOT)}")
    print(json.dumps({"correct": record["correct"], "attempted": record["attempted"],
                      "failed": record["failed"],
                      "metrics": _metrics(record, bool(args.trace))}))
    return 0


def _run_all(args: argparse.Namespace) -> int:
    """Run each workload in a process of its own, so that its peak memory
    is its own, and merge their result lines with workload-prefixed names."""
    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)] + (["--toy"] if args.toy else [])
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(proc.stdout, end="")
            return proc.returncode or 1
        print("\n".join(lines[:-1]))
        part = json.loads(lines[-1])
        result["correct"] &= part["correct"]
        result["attempted"] += part["attempted"]
        result["failed"] += part["failed"]
        result["metrics"].update({f"{name}/{k}": v for k, v in part["metrics"].items()})
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
