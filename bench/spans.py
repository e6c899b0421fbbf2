"""Span recorder for the traced benchmark run.

The recorder wraps survkit's public functions at the module attributes their
callers look up (``survkit.tester.solve``, ``survkit.cli.load_csv``, ...), so
no file of the package changes. Each call becomes one span with a name,
start, end, parent and thread. Spans stay in memory; the caller writes them
out when the run ends. ``layer_metrics`` turns a list of spans into the
per-layer metrics of the benchmark.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import os
import threading
import time

# How a RuntimeWarning starts on stderr; ``tester.warnings`` counts these.
WARNING_TAG = "RuntimeWarning:"

# Where each public function is looked up by its callers. A function is
# wrapped once per binding site, so every call path records a span.
BINDINGS = {
    "survkit.cli": (
        "load_csv", "load_private", "save_csv", "save_private", "validate_dataset",
        "privatize", "corrected_moments", "moments_from_arrays", "solve",
        "verify_survey", "verify_private_survey", "run_sweep",
    ),
    "survkit.datagen": ("gen_synthetic1", "gen_synthetic2", "load_csv", "validate_dataset"),
    # ``run_sweep`` and ``solve`` in their own modules are the names the
    # in-process workloads call.
    "survkit.sweeps": (
        "run_sweep", "gen_synthetic1", "gen_synthetic2", "clip_to_bounds", "privatize",
        "corrected_moments", "solve", "verify_survey", "model_distance",
    ),
    "survkit.tester": (
        "privatize", "corrected_moments", "moments_from_arrays", "solve",
        "mean_squared_loss", "validate_dataset", "validation_sample_size",
    ),
    "survkit.solver": ("solve", "spectral_bound", "project_l1", "soft_threshold"),
}


def _file_bytes(path) -> int:
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


# Per-call counters, taken from a call's arguments (by name) and result.
_COUNTERS = {
    "datagen.load_csv": lambda a, out: {"bytes_read": _file_bytes(a["path"])},
    "datagen.save_csv": lambda a, out: {"bytes_written": _file_bytes(a["path"])},
    "datagen.save_private": lambda a, out: {"bytes_written": _file_bytes(out[0])},
    "mechanisms.privatize": lambda a, out: {
        "cells": a["ds"].size * a["ds"].dim if a["spec"].scale > 0 else 0
    },
    "solver.solve": lambda a, out: {
        "iterations": out.iterations, "converged": int(out.converged)
    },
    "tester.validation_sample_size": lambda a, out: {"rows": out},
}


class Recorder:
    """In-memory span store; safe to use from several threads."""

    def __init__(self):
        self.spans: list[dict] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main = threading.main_thread().ident
        self._main_stack: list[int] = []

    def _stack(self) -> list[int]:
        if threading.get_ident() == self._main:
            return self._main_stack
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def open(self, name: str) -> dict:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            # A pool thread's first call was caused by whatever the main
            # thread is waiting in (run_sweep), so it becomes the parent.
            parent = self._main_stack[-1] if self._main_stack else None
        span = {
            "id": next(self._ids), "name": name, "parent": parent,
            "thread": threading.get_ident(), "start": time.perf_counter(),
        }
        stack.append(span["id"])
        return span

    def close(self, span: dict, **counts) -> None:
        span["end"] = time.perf_counter()
        span.update(counts)
        self._stack().pop()
        self.spans.append(span)

    def wrap(self, fn, name: str):
        counter = _COUNTERS.get(name)
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.open(name)
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                self.close(span, error=1)
                raise
            counts = {}
            if counter:
                counts = counter(signature.bind(*args, **kwargs).arguments, out)
            self.close(span, **counts)
            return out

        return traced


def _layer_name(fn) -> str:
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"


def install(rec: Recorder) -> list[tuple]:
    """Wrap every binding site; returns what ``uninstall`` needs."""
    undo = []
    for mod_name, attrs in BINDINGS.items():
        mod = importlib.import_module(mod_name)
        for attr in attrs:
            undo.append(_wrap_attr(rec, mod, attr))
    bounds = importlib.import_module("survkit.bounds")
    for attr, fn in vars(bounds).copy().items():
        if (
            not attr.startswith("_")
            and inspect.isfunction(fn)
            and fn.__module__ == bounds.__name__
        ):
            undo.append(_wrap_attr(rec, bounds, attr))
    return undo


def _wrap_attr(rec: Recorder, mod, attr: str) -> tuple:
    fn = getattr(mod, attr)
    setattr(mod, attr, rec.wrap(fn, _layer_name(fn)))
    return mod, attr, fn


def uninstall(undo: list[tuple]) -> None:
    for mod, attr, fn in reversed(undo):
        setattr(mod, attr, fn)


# ---------------------------------------------------------------------------
# Aggregation

def _union_length(intervals) -> float:
    total, cur_s, cur_e = 0.0, None, None
    for s, e in sorted(intervals):
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


class SpanIndex:
    """Spans of one traced pass, indexed for self-time and total queries.

    Spans from different processes (one per CLI command) must not share ids,
    so each process's spans are given ids unique to that process.
    """

    def __init__(self, spans: list[dict]):
        self.spans = spans
        self.by_id = {s["id"]: s for s in spans}
        self.children: dict[int, list[dict]] = {}
        for s in spans:
            if s["parent"] is not None:
                self.children.setdefault(s["parent"], []).append(s)

    def named(self, *names: str) -> list[dict]:
        return [s for s in self.spans if s["name"] in names]

    def _outermost(self, names) -> list[dict]:
        out = []
        for s in self.named(*names):
            p = self.by_id.get(s["parent"])
            while p is not None and p["name"] not in names:
                p = self.by_id.get(p["parent"])
            if p is None:
                out.append(s)
        return out

    def total_s(self, *names: str) -> float:
        """Time inside the named functions, not counting nested repeats."""
        return sum((s["end"] - s["start"] for s in self._outermost(names)), 0.0)

    def calls(self, *names: str) -> int:
        return len(self.named(*names))

    def count(self, key: str, *names: str) -> int:
        return sum(s.get(key, 0) for s in self.named(*names))

    def self_s(self, *names: str) -> float:
        """Duration minus the part of it that child spans cover."""
        total = 0.0
        for s in self.named(*names):
            kids = [
                (max(c["start"], s["start"]), min(c["end"], s["end"]))
                for c in self.children.get(s["id"], [])
            ]
            total += (s["end"] - s["start"]) - _union_length(k for k in kids if k[1] > k[0])
        return total

    def busy_share(self, name: str, workers: int) -> float:
        """Share of ``workers`` x the span's wall time that its direct
        children kept some thread busy, summed over threads."""
        busy, wall = 0.0, 0.0
        for s in self.named(name):
            wall += (s["end"] - s["start"]) * workers
            per_thread: dict[int, list] = {}
            for c in self.children.get(s["id"], []):
                per_thread.setdefault(c["thread"], []).append((c["start"], c["end"]))
            busy += sum(_union_length(iv) for iv in per_thread.values())
        return busy / wall if wall else 0.0


def pass_record(steps, attempted: int, failures: list[str], warnings: int,
                span_list: list[dict] | None = None, workers: int = 1, **extra) -> dict:
    """The record of one pass: its step times (a ``clock.Steps``), failed
    operations and warning count and, for a traced pass (``span_list``
    given), its per-layer metrics."""
    out = {
        "traced": span_list is not None,
        "wall_s": sum(steps.wall.values()),
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures,
        **steps.record(),
        "warnings": warnings,
        **extra,
    }
    if span_list is not None:
        out["layers"] = layer_metrics(SpanIndex(span_list), workers)
    return out


def layer_metrics(idx: SpanIndex, workers: int = 1) -> dict[str, float]:
    """Per-layer metrics of one traced pass, before run-level ones;
    ``workers`` is the size of the pool ``run_sweep`` ran with."""
    solves = idx.calls("solver.solve")
    return {
        "cli.import_s": idx.total_s("cli.import"),
        "cli.command_self_s": idx.self_s("cli.main"),
        "datagen.load_csv_s": idx.total_s("datagen.load_csv"),
        "datagen.load_csv_calls": idx.calls("datagen.load_csv"),
        "datagen.csv_bytes_read": idx.count("bytes_read", "datagen.load_csv"),
        "datagen.load_private_s": idx.total_s("datagen.load_private"),
        "datagen.save_csv_s": idx.total_s("datagen.save_csv"),
        "datagen.save_private_s": idx.total_s("datagen.save_private"),
        "datagen.csv_bytes_written": idx.count(
            "bytes_written", "datagen.save_csv", "datagen.save_private"
        ),
        "datagen.gen_synthetic1_s": idx.total_s("datagen.gen_synthetic1"),
        "datagen.gen_synthetic2_s": idx.total_s("datagen.gen_synthetic2"),
        "mechanisms.privatize_s": idx.total_s("mechanisms.privatize"),
        "mechanisms.noised_cells": idx.count("cells", "mechanisms.privatize"),
        "core.validate_dataset_s": idx.total_s("core.validate_dataset"),
        "core.loss_s": idx.total_s("core.mean_squared_loss", "core.model_distance"),
        "solver.moments_s": idx.total_s(
            "solver.corrected_moments", "solver.moments_from_arrays"
        ),
        "solver.spectral_bound_s": idx.total_s("solver.spectral_bound"),
        "solver.iterations": idx.count("iterations", "solver.solve"),
        "solver.solves": solves,
        "solver.converged_share": (
            idx.count("converged", "solver.solve") / solves if solves else 0.0
        ),
        "solver.solve_self_s": idx.self_s("solver.solve"),
        "solver.project_l1_s": idx.total_s("solver.project_l1"),
        "tester.verify_self_s": idx.self_s(
            "tester.verify_survey", "tester.verify_private_survey"
        ),
        "tester.validation_rows": idx.count("rows", "tester.validation_sample_size"),
        "sweeps.run_sweep_self_s": idx.self_s("sweeps.run_sweep"),
        "sweeps.worker_busy_share": idx.busy_share("sweeps.run_sweep", workers),
        "bounds.eval_s": idx.total_s(
            *{s["name"] for s in idx.spans if s["name"].startswith("bounds.")}
        ),
    }
