"""Measurement harness: forked set-ups and units, metrics, correctness.

One invocation measures one workload:

1. Set-up runs ``SETUP_REPS`` times, each in a fresh child of a parent
   that has *not* imported ``repro`` yet, against a fresh artifact store,
   so every sample pays a cold import; ``setup_s`` is their median.
2. The parent then imports ``repro`` (building nothing) and every unit
   -- one batch call, or one open-loop service run -- runs in a fresh
   ``fork()`` of it: cold program, fastpath-compile and checkpoint-decode
   caches, which is what a user pays per call.  One warm-up unit is
   discarded, then units repeat until ``--seconds`` has passed, with the
   host's reference loop timed before the first unit and after each one.
3. With ``--trace`` the timed units alternate untraced and traced;
   per-layer metrics come from the traced units only.

Children report through a pipe as JSON and are reaped with ``wait4``,
whose rusage gives each unit's CPU time and peak RSS (its pool workers
included).  Each child leads its own process group, so a child that
overruns ``CHILD_TIMEOUT`` is killed together with its workers.
"""

from __future__ import annotations

import json
import os
import select
import shutil
import signal
import sys
import time
import traceback
from array import array
from contextlib import contextmanager
from pathlib import Path

from bench import golden as golden_file
from bench import trace as tracing
from bench.trace import median, p90
from bench.workloads import generate, run_batch, run_service, setup

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPS = 3
CHILD_TIMEOUT = 150.0
#: The host the normalized metrics describe runs ``reference_loop`` in
#: this many seconds (about what a 2-vCPU VM with CPython 3.11 takes).
REF_SECONDS = 0.1


class ChildFailed(RuntimeError):
    """A forked child raised, crashed or overran its timeout."""


def check_checkout() -> None:
    """Exit unless this checkout has the program's sources to measure."""
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.exit(f"bench: no program sources at {SRC / 'repro'}; run "
                 f"from a full checkout of the repository")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def import_program() -> None:
    import repro

    if Path(repro.__file__).resolve().parent != (SRC / "repro").resolve():
        sys.exit(f"bench: imported repro from {repro.__file__}, "
                 f"not from {SRC}")


@contextmanager
def scratch_dir():
    """A fresh directory inside the checkout, with ``REPRO_*`` scrubbed.

    Yields ``(path, scrubbed)``; the scrubbed variables are recorded so a
    run states what it measured without.  Everything is removed on exit.
    """
    scrubbed = {key: os.environ.pop(key) for key in sorted(os.environ)
                if key.startswith("REPRO_")}
    base = ROOT / ".bench_tmp"
    path = base / f"run-{os.getpid()}"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    try:
        yield path, scrubbed
    finally:
        shutil.rmtree(path, ignore_errors=True)
        try:
            base.rmdir()
        except OSError:
            pass  # another run still uses it
        os.environ.update(scrubbed)


def fork_call(fn, *args, timeout: float = CHILD_TIMEOUT) -> dict:
    """Run ``fn(*args)`` in a forked child; JSON result plus rusage."""
    sys.stdout.flush()
    sys.stderr.flush()
    read_fd, write_fd = os.pipe()
    start = time.perf_counter()
    pid = os.fork()
    if pid == 0:  # child: never returns
        status = 1
        try:
            os.close(read_fd)
            os.setpgid(0, 0)
            payload = json.dumps({"value": fn(*args)}).encode()
            status = 0
        except BaseException:  # noqa: BLE001 -- reported to the parent
            payload = json.dumps({"error": traceback.format_exc()}).encode()
        try:
            view = memoryview(payload)
            while view:
                view = view[os.write(write_fd, view):]
        finally:
            os._exit(status)
    os.close(write_fd)
    try:
        os.setpgid(pid, pid)
    except OSError:
        pass  # the child already did it (or already exited)
    data = bytearray()
    deadline = time.monotonic() + timeout
    try:
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0 or not select.select([read_fd], [], [],
                                                   remaining)[0]:
                raise ChildFailed(f"{fn.__name__} overran {timeout:g}s")
            chunk = os.read(read_fd, 1 << 16)
            if not chunk:
                break
            data += chunk
    except BaseException:  # timeout or interrupt: stop the child's group
        os.killpg(pid, signal.SIGKILL)
        raise
    finally:
        os.close(read_fd)
        _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - start
    reply = json.loads(data) if data else {"error": f"exit status {status}"}
    if "error" in reply:
        raise ChildFailed(f"{fn.__name__} failed in the child:\n"
                          f"{reply['error']}")
    return {"value": reply["value"], "wall": wall,
            "cpu": usage.ru_utime + usage.ru_stime,
            "rss_mb": usage.ru_maxrss / 1024}


# ----------------------------------------------------------------------
# Host speed
# ----------------------------------------------------------------------
class _Cell:
    __slots__ = ("tag", "age")

    def __init__(self, tag: int):
        self.tag = tag
        self.age = 0

    def touch(self, now: int) -> int:
        old, self.age = self.age, now
        return now - old


def reference_loop() -> float:
    """Seconds this host takes for a fixed interpreter-bound loop.

    Its mix -- dict updates, method calls on small objects and random
    reads of a 16 MB array -- stands in for the simulator's.  The timing
    metrics are expressed at ``REF_SECONDS`` per loop (see README), which
    removes the host's speed drift from them.
    """
    size = 1 << 21
    big = array("l", [1]) * size
    cells = [_Cell(i) for i in range(256)]
    table: dict[int, int] = {}
    acc, index = 0, 12345
    start = time.perf_counter()
    for i in range(200_000):
        key = (i * 2654435761) & 1023
        table[key] = table.get(key, 0) + i
        acc += cells[(i * 40503) & 255].touch(i) & 3
        index = (index * 1103515245 + 12345) % size
        acc += big[index] & 1
    return time.perf_counter() - start


# ----------------------------------------------------------------------
# Child entry points
# ----------------------------------------------------------------------
def _in_child(fn, store: Path, trace_dir: str | None, *args):
    """``fn(*args)`` against artifact store ``store``, traced if asked."""
    os.environ["REPRO_ARTIFACT_DIR"] = str(store)
    if trace_dir:
        tracing.install(trace_dir)
    return fn(*args)


# ----------------------------------------------------------------------
# One invocation
# ----------------------------------------------------------------------
def run(workload: str, seed: int, seconds: float, trace: bool,
        smoke: bool, tmp: Path) -> dict:
    """Set up, measure and check one workload; returns the full record."""
    service = workload == "service"
    inputs = generate(workload, seed, smoke)

    setups = []
    for i in range(1 if smoke else SETUP_REPS):
        trace_dir = str(tmp / f"setup-trace-{i}") if trace else None
        template = tmp / f"store-{i}"
        out = fork_call(_in_child, setup, template, trace_dir, workload,
                        inputs)
        out["spans"] = tracing.read_spans(trace_dir)
        setups.append(out)

    import_program()
    units, refs = _measure(service, inputs, seconds, trace, smoke, tmp,
                           template)
    golden = golden_file.load()
    record = {"workload": workload, "seed": seed, "seconds": seconds,
              "trace": int(trace), "smoke": smoke, "refs": refs,
              "units": [{key: u[key] for key in ("kind", "traced", "wall",
                                                 "cpu", "rss_mb")}
                        for u in units]}
    record.update(_check(workload, seed, smoke, golden, units, service))
    if trace:
        record.update(_per_layer(workload, setups, units, refs, service,
                                 golden))
    else:
        record.update(_end_to_end(setups, units, refs, service))
    return record


def _measure(service: bool, inputs: dict, seconds: float, trace: bool,
             smoke: bool, tmp: Path,
             template: Path) -> tuple[list[dict], list[float]]:
    """The warm-up and timed units, and the reference-loop times.

    A unit is one batch call, or one open-loop service run on a fresh
    copy of the set-up store.  The reference loop runs, in a child of its
    own, before the first unit and after each one.
    """
    units: list[dict] = []
    refs = [fork_call(reference_loop)["value"]]

    def measure(kind: str, traced: bool) -> None:
        trace_dir = str(tmp / f"trace-{len(units)}") if traced else None
        if service:
            store = tmp / f"service-{len(units)}"
            shutil.copytree(template, store)
            out = fork_call(_in_child, run_service, store, trace_dir,
                            inputs, str(store / "jobs"))
        else:
            out = fork_call(_in_child, run_batch, template, trace_dir,
                            inputs)
        refs.append(fork_call(reference_loop)["value"])
        out.update(kind=kind, traced=traced,
                   spans=tracing.read_spans(trace_dir))
        units.append(out)

    if not smoke:
        measure("warmup", False)
    start = time.monotonic()
    timed = 0
    while True:
        measure("timed", trace and timed % 2 == 1)
        timed += 1
        if (time.monotonic() - start >= seconds
                and timed >= (2 if trace else 1)):
            return units, refs


def _results(unit: dict, service: bool) -> list[dict]:
    value = unit["value"]
    if service:
        return list(value["results"].values())
    return [r for r in value["results"] if "error" not in r]


# ----------------------------------------------------------------------
# Correctness
# ----------------------------------------------------------------------
def _check(workload: str, seed: int, smoke: bool, golden: dict,
           units: list[dict], service: bool) -> dict:
    """Count attempted/failed operations and collect every problem.

    A failure is a spec that did not complete, an HTTP error (429
    included), a failed job, a digest that differs across units, or --
    for the seeds golden.json holds -- a digest that differs from golden.
    """
    attempted = 0
    problems: list[str] = []
    digests: dict[str, str] = {}
    for unit in units:
        value = unit["value"]
        if service:
            attempted += len(value["submissions"])
            problems += [f"{row['name']}: {row['error']}"
                         for row in value["submissions"] if "error" in row]
            problems += [f"{job}: job {record['status']}"
                         for job, record in value["records"].items()
                         if record["status"] != "done"]
        else:
            attempted += len(value["results"])
            problems += [f"{r['name']}: {r['error']}"
                         for r in value["results"] if "error" in r]
        results = _results(unit, service)
        for result in results:
            first = digests.setdefault(result["name"], result["digest"])
            if first != result["digest"]:
                problems.append(f"{result['name']}: digest changed across "
                                f"units ({first} -> {result['digest']})")
        if not smoke:
            problems += golden_file.mismatches(golden, workload, seed,
                                               results)
    return {"correct": not problems and attempted > 0,
            "attempted": attempted, "failed": len(problems),
            "problems": problems, "digests": digests}


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
def _timings(value: dict, service: bool) -> tuple[float, list, list]:
    """One unit's throughput, simulating-op latencies and all latencies.

    In a batch rep every spec simulates, so both latency lists are the
    specs' walls.
    """
    if not service:
        results = [r for r in value["results"] if "error" not in r]
        walls = [r["wall"] for r in results]
        return sum(r["length"] for r in results) / value["wall"], walls, walls
    records, results = value["records"], value["results"]
    rows = [row for row in value["submissions"] if "id" in row]
    simulated = {job for job, r in records.items()
                 if r["status"] == "done" and not r["cached"]}
    # Busy time is the union of the jobs' run intervals: two jobs sharing
    # the interpreter lock each run half as fast, the union counts once.
    busy = tracing.union_seconds(
        (records[job]["started_at"], records[job]["finished_at"])
        for job in simulated)
    throughput = sum(results[job]["length"] for job in simulated) / busy \
        if busy else 0.0
    misses = [tracing.latency(row, records[row["id"]]) for row in rows
              if row["created"] and row["id"] in simulated]
    return throughput, misses, [tracing.latency(row, records[row["id"]])
                                for row in rows]


def _end_to_end(setups: list[dict], units: list[dict], refs: list[float],
                service: bool) -> dict:
    """Every end-to-end metric, ``{name: (value, unit)}``, and its samples.

    Each timed unit gives its throughput and its own latency percentiles;
    a run reports its best unit (interference on a shared host only ever
    slows a unit down), scaled to ``REF_SECONDS`` per reference loop by
    the run's fastest loop (unit ``ref_s``: a host-normalized second).
    ``setup_s`` and memory are medians, as measured.
    """
    timed = [u for u in units if u["kind"] == "timed" and not u["traced"]]
    slowness = min(refs) / REF_SECONDS
    raw, misses, latencies = [], 0, 0
    for unit in timed:
        ips, miss, every = _timings(unit["value"], service)
        raw.append({"ips": ips, "p50": median(miss), "p90": p90(every)})
        misses += len(miss)
        latencies += len(every)
    setup_s = [s["wall"] for s in setups]
    metrics = {
        "setup_s": (median(setup_s), "s"),
        "sim_ips": (max(r["ips"] for r in raw) * slowness, "instr/ref_s"),
        "spec_s.p50": (min(r["p50"] for r in raw) / slowness, "ref_s"),
        "job_s.p90": (min(r["p90"] for r in raw) / slowness, "ref_s"),
        "peak_rss_mb": (median(u["rss_mb"] for u in timed), "MiB"),
    }
    samples = {"setup_s": len(setup_s), "units": len(timed),
               "refs": len(refs), "spec_s.p50": misses,
               "job_s.p90": latencies}
    return {"metrics": metrics, "samples": samples, "raw": raw}


def _per_layer(workload: str, setups: list[dict], units: list[dict],
               refs: list[float], service: bool, golden: dict) -> dict:
    """Per-layer metrics: the median over traced units of each one."""
    traced = [u for u in units if u["traced"]]
    plain = [u for u in units if u["kind"] == "timed" and not u["traced"]]
    per_unit = [tracing.layer_metrics(u["spans"], _results(u, service),
                                      u["value"] if service else None,
                                      golden["reference"])
                for u in traced]
    metrics = {name: (median(m[name][0] for m in per_unit), unit)
               for name, (_, unit) in per_unit[0].items()}
    metrics["checkpoint.build_s"] = (median(
        sum(s["end"] - s["start"] for s in setup["spans"]
            if s["name"] == "checkpoint.build") for setup in setups), "s")
    overhead = median(u["cpu"] for u in traced) / median(
        u["cpu"] for u in plain) - 1
    metrics["trace_overhead_pct"] = (100 * overhead, "%")
    metrics["host.ref_s"] = (min(refs), "s")
    shapes = [tracing.shape(workload, u["spans"],
                            u["value"] if service else None) for u in traced]
    shape = dict(shapes[0], value=median(s["value"] for s in shapes))
    shape["ok"] = shape["value"] >= shape["min"]
    return {"metrics": metrics, "samples": {"traced_units": len(traced)},
            "shape": shape}


def result_line(record: dict) -> dict:
    """The one-line result, printed as the last line of standard output."""
    return {"correct": record["correct"], "attempted": record["attempted"],
            "failed": record["failed"],
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in record["metrics"].items()}}
