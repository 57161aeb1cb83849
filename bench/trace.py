"""Tracing from outside the program: spans around each layer's entry points.

:func:`install` wraps the public calls of every layer (class methods and
module functions, patched from this file; ``src/`` is never edited) so
each call records an in-memory span: name, start, end, parent span and a
trace id (the spec key, or the job id on the server).  When a root span
ends, the process appends its spans to ``trace-<pid>.jsonl`` in the trace
directory -- forked pool workers included, which is how their spans reach
the benchmark.  :func:`layer_metrics` turns one traced unit's spans, plus
the results and service records it produced, into the per-layer metrics.

The end-to-end metrics come from untraced runs; the traced runs alternate
with them and ``trace_overhead_pct`` is the CPU-time difference.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import statistics
import threading
import time
from collections import defaultdict
from pathlib import Path

from bench.golden import reference_key


class Tracer:
    """In-memory spans for one process, flushed per finished root span."""

    def __init__(self, directory: Path | str):
        self.directory = Path(directory)
        self._reset()
        os.register_at_fork(after_in_child=self._reset)

    def _reset(self) -> None:
        # A forked child starts with no open spans and nothing to flush:
        # its parent's spans are the parent's to write.
        self._local = threading.local()
        self._spans: list[dict] = []
        self._ids = itertools.count(1)
        self._lock = threading.Lock()

    def wrap(self, targets, name: str, attrs=None, trace_id=None) -> None:
        """Replace ``getattr(owner, attr)`` for every (owner, attr) target.

        ``attrs(args, kwargs, result)`` adds counts to the span;
        ``trace_id(args, kwargs)`` names the trace a root span starts.
        """
        original = getattr(*targets[0])
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            stack = getattr(tracer._local, "stack", None)
            if stack is None:
                stack = tracer._local.stack = []
            parent = stack[-1] if stack else None
            span = {"name": name, "id": next(tracer._ids),
                    "parent": parent["id"] if parent else None,
                    "trace": (parent["trace"] if parent else
                              trace_id(args, kwargs) if trace_id else None),
                    "pid": os.getpid(), "tid": threading.get_ident()}
            stack.append(span)
            span["start"] = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            except BaseException:
                stack.pop()  # a failed call records no span
                if not stack:
                    tracer.flush()
                raise
            span["end"] = time.perf_counter()
            stack.pop()
            if attrs is not None:
                span.update(attrs(args, kwargs, result))
            with tracer._lock:
                tracer._spans.append(span)
            if not stack:
                tracer.flush()
            return result

        for owner, attr in targets:
            setattr(owner, attr, traced)

    def flush(self) -> None:
        with self._lock:
            spans, self._spans = self._spans, []
            if not spans:
                return
            self.directory.mkdir(parents=True, exist_ok=True)
            path = self.directory / f"trace-{os.getpid()}.jsonl"
            with open(path, "a") as out:
                out.writelines(json.dumps(s) + "\n" for s in spans)


def read_spans(directory: Path | str | None) -> list[dict]:
    if directory is None or not Path(directory).is_dir():
        return []
    return [json.loads(line)
            for path in sorted(Path(directory).glob("trace-*.jsonl"))
            for line in path.read_text().splitlines()]


# ----------------------------------------------------------------------
# The wrapped entry points, one block per layer
# ----------------------------------------------------------------------
def _counters(args, kwargs, c) -> dict:
    return {"n": c.instructions, "l1d": c.l1d_accesses,
            "l1d_miss": c.l1d_misses, "l2": c.l2_accesses,
            "l2_miss": c.l2_misses, "br": c.branches,
            "mispred": c.mispredictions}


def _workers(args, kwargs, result) -> dict:
    backend, specs = args[0], args[1]
    workers = kwargs.get("max_workers") or getattr(backend, "max_workers",
                                                   None) or 1
    return {"workers": min(workers, len(specs)) or 1}


def install(directory: Path | str) -> Tracer:
    """Wrap every layer's public entry points; returns the tracer."""
    import repro.api
    import repro.functional
    from repro.api import executor
    from repro.backends import LocalPoolBackend, SerialBackend
    from repro.checkpoint import store as checkpoint_store
    from repro.core import procedure
    from repro.core.smarts import MeasurementSession
    from repro.detailed.pipeline import DetailedSimulator
    from repro.energy.wattch import EnergyModel
    from repro.functional import simulator
    from repro.functional.engine import engine_class
    from repro.reliability import retry
    from repro.server import jobs
    from repro.server.app import ReproApp
    from repro.store.artifacts import ArtifactStore

    tracer = Tracer(directory)
    wrap = tracer.wrap
    wrap([(engine_class(), "run_warmed")], "functional.run_warmed",
         attrs=lambda a, k, n: {"n": n})
    wrap([(m, "measure_program_length") for m in
          (simulator, repro.functional, executor, procedure)],
         "functional.measure_length")
    wrap([(DetailedSimulator, "run")], "detailed.run", attrs=_counters)
    wrap([(MeasurementSession, "extend")], "core.extend")
    wrap([(EnergyModel, "total_energy")], "energy.total")
    wrap([(executor, "resolve_benchmark"), (repro.api, "resolve_benchmark")],
         "workloads.resolve")
    wrap([(checkpoint_store, "build_checkpoints")], "checkpoint.build")
    wrap([(checkpoint_store.CheckpointStore, "get")], "checkpoint.get")
    wrap([(checkpoint_store.CheckpointSet, "restore_into")],
         "checkpoint.restore", attrs=lambda a, k, n: {"n": n})
    wrap([(ArtifactStore, "read_path")], "store.read",
         attrs=lambda a, k, data: {"bytes": len(data or b""),
                                   "kind": a[1].suffix})
    wrap([(ArtifactStore, "write_path")], "store.write",
         attrs=lambda a, k, path: {"bytes": len(a[2]),
                                   "kind": a[1].suffix})
    wrap([(executor.ResultCache, "get")], "api.cache_get",
         attrs=lambda a, k, hit: {"hit": hit is not None})
    wrap([(executor.ResultCache, "put")], "api.cache_put")
    wrap([(executor, "execute_spec")], "api.execute_spec",
         trace_id=lambda a, k: a[0].key())
    wrap([(SerialBackend, "run_specs")], "backends.run_specs",
         attrs=_workers)
    wrap([(LocalPoolBackend, "run_specs")], "backends.run_specs",
         attrs=_workers)
    wrap([(retry, "run_with_retry")], "backends.retry",
         attrs=lambda a, k, out: {"attempts": out[1]})
    wrap([(ReproApp, "__call__")], "server.request")
    wrap([(jobs, "execute_run")], "server.execute_run",
         trace_id=lambda a, k: f"run-{a[1].key()}")
    return tracer


# ----------------------------------------------------------------------
# Span arithmetic
# ----------------------------------------------------------------------
def self_times(spans: list[dict]) -> dict[tuple, float]:
    """Each span's duration minus the part its children cover.

    Children are matched by (pid, parent id); overlapping children (one
    parent, several threads) count their union once.
    """
    children = defaultdict(list)
    for span in spans:
        if span["parent"] is not None:
            children[(span["pid"], span["parent"])].append(span)
    result = {}
    for span in spans:
        key = (span["pid"], span["id"])
        covered = union_seconds((max(c["start"], span["start"]),
                                 min(c["end"], span["end"]))
                                for c in children[key])
        result[key] = span["end"] - span["start"] - covered
    return result


def union_seconds(intervals) -> float:
    """Total length of the union of (start, end) intervals."""
    total, reach = 0.0, float("-inf")
    for lo, hi in sorted(intervals):
        lo = max(lo, reach)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def p90(values) -> float:
    """90th percentile, interpolated within the data (never beyond it)."""
    values = sorted(values)
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# ----------------------------------------------------------------------
# Per-layer metrics of one traced unit
# ----------------------------------------------------------------------
def layer_metrics(spans: list[dict], results: list[dict],
                  service: dict | None, reference: dict) -> dict:
    """``{name: (value, unit)}`` for every per-layer metric.

    ``results`` are the unit's result summaries, ``service`` the service
    unit's raw submissions/records (None for batch workloads) and
    ``reference`` golden.json's reference table.  A layer the workload
    does not exercise reports 0.
    """
    by = defaultdict(list)
    for span in spans:
        by[span["name"]].append(span)

    def dur(name):
        return [s["end"] - s["start"] for s in by[name]]

    def total(name, field=None):
        return sum(s[field] for s in by[name]) if field else sum(dur(name))

    selfs = self_times(spans)

    def self_total(name):
        return sum(selfs[(s["pid"], s["id"])] for s in by[name])

    reads, writes = by["store.read"], by["store.write"]
    gets = by["api.cache_get"]
    warm_n, warm_s = total("functional.run_warmed", "n"), total(
        "functional.run_warmed")
    det_n, det_s = total("detailed.run", "n"), total("detailed.run")
    restored, restore_s = total("checkpoint.restore", "n"), total(
        "checkpoint.restore")
    # Outermost run_specs spans only (the pool falls back to serial).
    outer = {(s["pid"], s["id"]) for s in by["backends.run_specs"]}
    run_specs = [s for s in by["backends.run_specs"]
                 if (s["pid"], s["parent"]) not in outer]
    capacity = sum((s["end"] - s["start"]) * s["workers"] for s in run_specs)
    errors, covered = [], 0
    for r in results:
        ref = reference.get(reference_key(r["benchmark"], r["scale"]))
        if ref:
            truth = ref[r["metric"]]
            errors.append(abs(r["estimate"] - truth) / truth)
            covered += abs(r["estimate"] - truth) <= r["ci"] * r["estimate"]
    detailed_total = sum(r["measured"] + r["detailed_warming"]
                         for r in results)
    server = _server_metrics(service, by)
    return {
        "functional.warm_ips": (_ratio(warm_n, warm_s), "instr/s"),
        "functional.warm_instructions": (warm_n, "count"),
        "functional.length_s": (total("functional.measure_length"), "s"),
        "detailed.ips": (_ratio(det_n, det_s), "instr/s"),
        "detailed.instructions": (det_n, "count"),
        "detailed.calls": (len(by["detailed.run"]), "count"),
        "core.self_s": (self_total("core.extend"), "s"),
        "core.useful_ratio": (_ratio(sum(r["measured"] for r in results),
                                     detailed_total), "ratio"),
        "core.detailed_fraction": (median(r["detailed_fraction"]
                                          for r in results), "ratio"),
        "core.est_err_pct": (100 * median(errors), "%"),
        "core.ci_coverage": (_ratio(covered, len(errors)), "ratio"),
        "energy.s": (total("energy.total"), "s"),
        "memory.l1d_miss_ratio": (_ratio(total("detailed.run", "l1d_miss"),
                                         total("detailed.run", "l1d")),
                                  "ratio"),
        "memory.l2_miss_ratio": (_ratio(total("detailed.run", "l2_miss"),
                                        total("detailed.run", "l2")),
                                 "ratio"),
        "branch.mispredict_ratio": (_ratio(total("detailed.run", "mispred"),
                                           total("detailed.run", "br")),
                                    "ratio"),
        "workloads.build_s": (total("workloads.resolve"), "s"),
        "checkpoint.load_s": (total("checkpoint.get"), "s"),
        "checkpoint.restores": (len(by["checkpoint.restore"]), "count"),
        "checkpoint.restore_s": (restore_s, "s"),
        "checkpoint.restored_ips": (_ratio(restored, restore_s), "instr/s"),
        "checkpoint.blob_mb": (sum(s["bytes"] for s in reads
                                   if s["kind"] == ".ckpt") / 1e6, "MB"),
        "store.reads": (len(reads), "count"),
        "store.read_s.p50": (median(s["end"] - s["start"] for s in reads),
                             "s"),
        "store.read_mb": (sum(s["bytes"] for s in reads) / 1e6, "MB"),
        "store.writes": (len(writes), "count"),
        "store.write_s.p50": (median(s["end"] - s["start"] for s in writes),
                              "s"),
        "store.write_mb": (sum(s["bytes"] for s in writes) / 1e6, "MB"),
        "api.cache_get_s.p50": (median(dur("api.cache_get")), "s"),
        "api.cache_put_s.p50": (median(dur("api.cache_put")), "s"),
        "api.cache_hit_ratio": (_ratio(sum(s["hit"] for s in gets),
                                       len(gets)), "ratio"),
        "api.spec_self_s": (self_total("api.execute_spec"), "s"),
        "backends.run_specs_s": (sum(s["end"] - s["start"]
                                     for s in run_specs), "s"),
        "backends.busy_ratio": (_ratio(total("api.execute_spec"), capacity),
                                "ratio"),
        "backends.retries": (sum(s["attempts"] - 1
                                 for s in by["backends.retry"]), "count"),
        **server,
    }


def _server_metrics(service: dict | None, by: dict) -> dict:
    requests = [s["end"] - s["start"] for s in by["server.request"]]
    runs = [s["end"] - s["start"] for s in by["server.execute_run"]]
    waits, hits, lags, deduped, rejects, submitted = [], [], [], 0, 0, 0
    if service is not None:
        records = service["records"]
        waits = [r["started_at"] - r["submitted_at"]
                 for r in records.values()
                 if not r["cached"] and r["started_at"] is not None]
        for row in service["submissions"]:
            submitted += 1
            lags.append(row["lag"])
            if "id" not in row:
                rejects += row["error"] == "HTTP 429"
                continue
            deduped += not row["created"]
            if never_simulates(row, records):
                hits.append(latency(row, records[row["id"]]))
    return {
        "server.requests": (len(requests), "count"),
        "server.request_s.p50": (median(requests), "s"),
        "server.queue_wait_s.p50": (median(waits), "s"),
        "server.queue_wait_s.p90": (p90(waits), "s"),
        "server.run_s.p50": (median(runs), "s"),
        "server.dedupe_ratio": (_ratio(deduped, submitted), "ratio"),
        "server.rejects": (rejects, "count"),
        "server.hit_s.p50": (median(hits), "s"),
        "server.gen_lag_s.max": (max(lags, default=0.0), "s"),
    }


def latency(row: dict, record: dict) -> float:
    """Open-loop latency of one submission: answered minus due."""
    finished = record["finished_at"] or row["returned"]
    return max(finished, row["returned"]) - row["due"]


def never_simulates(row: dict, records: dict) -> bool:
    """Whether a submission was answered by dedupe or the result store."""
    return "id" in row and (not row["created"]
                            or records[row["id"]]["cached"])


# ----------------------------------------------------------------------
# Workload shape: each workload must keep exercising its layer
# ----------------------------------------------------------------------
def shape(workload: str, spans: list[dict], service: dict | None) -> dict:
    """The workload's shape check: ``{"value", "min", "ok", "what"}``."""
    by = defaultdict(float)
    counts = defaultdict(int)
    for span in spans:
        by[span["name"]] += span["end"] - span["start"]
        counts[span["name"]] += span.get("n", 0)
    spec_s = by["api.execute_spec"]
    if workload == "sampled":
        what, floor = "functional share of spec host time", 0.45
        value = _ratio(by["functional.run_warmed"]
                       + by["functional.measure_length"], spec_s)
    elif workload == "dense":
        what, floor = "detailed share of spec host time", 0.85
        value = _ratio(by["detailed.run"], spec_s)
    elif workload == "ckpt-sweep":
        what, floor = "restored share of skipped instructions", 0.80
        restored = counts["checkpoint.restore"]
        value = _ratio(restored, restored + counts["functional.run_warmed"])
    else:
        what, floor = "share of jobs that never simulate", 0.50
        rows = service["submissions"] if service else []
        value = _ratio(sum(never_simulates(row, service["records"])
                           for row in rows), len(rows))
    return {"what": what, "value": value, "min": floor, "ok": value >= floor}
