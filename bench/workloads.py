"""The benchmark's four workloads: seeded inputs, set-up and one unit each.

``generate`` is pure Python and never imports ``repro``: the benchmark
parent stays cold until every set-up has run, and the program only ever
sees the generated spec payloads (``RunSpec.to_dict()`` shapes).
``setup``, ``run_batch`` and ``run_service`` run inside forked children
(see :mod:`bench.run`).

Why these four (the README has the layer -> metric -> workload map):

* ``sampled`` -- the paper's regime: systematic SMARTS runs that meet
  their confidence target in the first round with ~13% of the stream in
  detail, so functional warming and detailed simulation share host time.
* ``dense`` -- the degenerate regime: the tuned sample covers the whole
  stream, so host time is almost all ``DetailedSimulator.run`` and
  functional warming is ~0 (the no-change control for warming-only work).
* ``ckpt-sweep`` -- one offset sweep restored from a checkpoint set
  through the local process pool: the only workload that decodes a
  checkpoint blob and restores instead of warming.
* ``service`` -- the in-process HTTP job service under an open loop of
  first-seen simulations, result-store reads and in-memory dedupes.

Every spec is sized so that each offset the seed can pick runs the same
number of rounds, so a seed changes *which* sampling units are measured,
never how much work a unit does -- the spread across seeds is host noise.
"""

from __future__ import annotations

import random
import time

from bench.golden import digest

WORKLOADS = ("sampled", "dense", "ckpt-sweep", "service")
UNIT_SIZE = 50

#: Offsets are drawn below every interval the sized specs use, so no two
#: drawn offsets alias (``SystematicSamplingPlan`` wraps offset % k).
SAMPLED = {"benchmarks": (("mcf.syn", "cpi"), ("equake.syn", "cpi")),
           "scale": 1.0, "n_init": 150, "epsilon": 0.15, "offsets": 64}
DENSE = {"benchmarks": (("gcc.syn", "cpi"), ("mesa.syn", "epi")),
         "scale": 0.15, "n_init": 300, "epsilon": 0.075, "offsets": 4}
CKPT = {"benchmark": "art.syn", "scale": 0.5, "n_init": 150,
        "epsilon": 0.15, "offsets": 32, "specs": 6, "workers": 2}
#: One service run's jobs, in order: M = first-seen spec that simulates,
#: R = spec pre-computed into the result store, D = repeat of an earlier
#: job (30% / 30% / 40%), evenly spaced at ``rate`` jobs/s.
SERVICE = {"rate": 3.0, "pattern": "MRDMRDMRDD", "workers": 2,
           "miss": {"kind": "miss", "scale": 0.25, "n_init": 60,
                    "max_rounds": 1, "offsets": 32,
                    "benchmarks": ("gzip.syn", "mcf.syn", "vpr.syn")},
           "read": {"kind": "read", "scale": 0.05, "n_init": 20,
                    "max_rounds": 1, "offsets": 16,
                    "benchmarks": ("art.syn", "equake.syn", "bzip2.syn")}}
#: ``--smoke`` sizes: every scale drops to 0.05, every n_init to 20, every
#: spec stops after its first round and the service runs at 40 jobs/s.
SMOKE = {"scale": 0.05, "n_init": 20, "max_rounds": 1, "rate": 40.0}


def spec(benchmark: str, scale: float, n_init: int, offset: int,
         epsilon: float = 0.075, metric: str = "cpi", max_rounds: int = 2,
         checkpoints: str = "off") -> dict:
    """One systematic-sampling RunSpec payload plus its stable label."""
    params = {"unit_size": UNIT_SIZE, "n_init": n_init,
              "max_rounds": max_rounds, "offset": offset}
    return {
        "name": f"{benchmark}@{scale}/{metric}/n{n_init}/j{offset}",
        "spec": {"benchmark": benchmark, "scale": scale, "metric": metric,
                 "epsilon": epsilon, "checkpoints": checkpoints,
                 "strategy": {"name": "systematic", "params": params}},
    }


def _sized(size: dict, smoke: bool) -> dict:
    """``spec``'s size arguments for ``size``, or their smoke miniature."""
    if smoke:
        return {"scale": SMOKE["scale"],
                "n_init": min(size["n_init"], SMOKE["n_init"]),
                "max_rounds": SMOKE["max_rounds"]}
    return {"scale": size["scale"], "n_init": size["n_init"],
            "max_rounds": size.get("max_rounds", 2)}


def generate(workload: str, seed: int, smoke: bool = False) -> dict:
    """The workload's inputs for ``seed``: same seed, same inputs."""
    rng = random.Random(f"{workload}:{seed}")
    if workload in ("sampled", "dense"):
        size = SAMPLED if workload == "sampled" else DENSE
        specs = [spec(bench, offset=rng.randrange(size["offsets"]),
                      epsilon=size["epsilon"], metric=metric,
                      **_sized(size, smoke))
                 for bench, metric in size["benchmarks"]]
        return {"specs": specs, "backend": "serial", "workers": 1}
    if workload == "ckpt-sweep":
        offsets = rng.sample(range(CKPT["offsets"]), CKPT["specs"])
        specs = [spec(CKPT["benchmark"], offset=j, epsilon=CKPT["epsilon"],
                      checkpoints="auto", **_sized(CKPT, smoke))
                 for j in offsets]
        return {"specs": specs, "backend": "local-pool",
                "workers": CKPT["workers"]}
    if workload == "service":
        return _traffic(rng, smoke)
    raise ValueError(f"unknown workload {workload!r}; "
                     f"available: {', '.join(WORKLOADS)}")


def _traffic(rng: random.Random, smoke: bool) -> dict:
    """One open-loop run's jobs, in the order of ``SERVICE["pattern"]``.

    The benchmarks are fixed per position, so every seed asks for the
    same work; the seed picks the offsets and which jobs repeat.
    """
    jobs: list[dict] = []
    preload: list[dict] = []
    for kind in SERVICE["pattern"]:
        if kind == "D":
            jobs.append(dict(jobs[rng.randrange(len(jobs))], kind="dedupe"))
            continue
        size = SERVICE["miss" if kind == "M" else "read"]
        taken = sum(job["kind"] == size["kind"] for job in jobs)
        entry = spec(size["benchmarks"][taken],
                     offset=rng.randrange(size["offsets"]),
                     **_sized(size, smoke))
        if kind == "R":
            preload.append(entry)
        jobs.append(dict(entry, kind=size["kind"]))
    return {"jobs": jobs, "preload": preload,
            "rate": SMOKE["rate"] if smoke else SERVICE["rate"],
            "workers": SERVICE["workers"]}


def specs_of(inputs: dict) -> list[dict]:
    """Every distinct labelled spec a workload's inputs name."""
    entries = inputs.get("specs") or inputs["jobs"]
    return list({entry["name"]: entry for entry in entries}.values())


# ----------------------------------------------------------------------
# Set-up (runs in a fresh child that imports repro itself)
# ----------------------------------------------------------------------
def setup(workload: str, inputs: dict) -> None:
    """Prepare what a unit needs: programs, checkpoint set, result store.

    Batch workloads build and measure their programs (what every call
    pays before simulating); ``ckpt-sweep`` also builds its checkpoint set
    into the artifact store; ``service`` pre-computes its store-read specs.
    """
    from repro.api import (CheckpointStore, RunSpec, Session,
                           resolve_benchmark, resolve_machine)
    from repro.functional import measure_program_length

    if workload == "service":
        specs = [RunSpec.from_dict(e["spec"]) for e in inputs["preload"]]
        Session(backend="serial").run_batch(specs)
        return
    programs = {(e["spec"]["benchmark"], e["spec"]["scale"]): e["spec"]
                for e in inputs["specs"]}
    for (benchmark, scale), payload in programs.items():
        program = resolve_benchmark(benchmark, scale)
        if payload["checkpoints"] == "auto":
            CheckpointStore().get_or_build(
                program, resolve_machine("8-way"), UNIT_SIZE)
        else:
            measure_program_length(program)


# ----------------------------------------------------------------------
# One unit (runs in a fresh fork of the parent that imported repro)
# ----------------------------------------------------------------------
def run_batch(inputs: dict) -> dict:
    """Execute the batch once through a cache-less Session."""
    from repro.api import RunResult, RunSpec, Session

    specs = [RunSpec.from_dict(e["spec"]) for e in inputs["specs"]]
    session = Session(use_cache=False, backend=inputs["backend"],
                      max_workers=inputs["workers"])
    start = time.perf_counter()
    report = session.run_batch_report(specs)
    wall = time.perf_counter() - start
    results = []
    for entry, outcome in zip(inputs["specs"], report.entries):
        if isinstance(outcome, RunResult):
            results.append(summarize(entry["name"], outcome.to_dict()))
        else:
            results.append({"name": entry["name"], "error": outcome.error})
    return {"wall": wall, "results": results}


def run_service(inputs: dict, jobs_dir: str) -> dict:
    """Drive ``create_app`` through ``ReproClient`` with the open loop.

    One generator thread (this one) submits each job at its due time;
    latency is ``max(finished_at, submit-return) - due``, so a stall
    charges every request it delays, and the generator's own lateness is
    reported as ``lag``.
    """
    from repro.server import ReproClient, ServerError, create_app

    app = create_app(workers=inputs["workers"], jobs_dir=jobs_dir)
    client = ReproClient(app=app, poll_interval=0.01, poll_max=0.1)
    submissions = []
    try:
        interval = 1.0 / inputs["rate"]
        begin = time.time() + 0.05
        for i, job in enumerate(inputs["jobs"]):
            due = begin + i * interval
            delay = due - time.time()
            if delay > 0:
                time.sleep(delay)
            row = {"name": job["name"], "due": due, "lag": time.time() - due}
            try:
                record = client.submit_run(job["spec"])
                row.update(id=record["id"], created=record["created"])
            except ServerError as exc:
                row["error"] = f"HTTP {exc.status}"
            row["returned"] = time.time()
            submissions.append(row)
        ids = sorted({row["id"] for row in submissions if "id" in row})
        for job_id in ids:
            try:
                client.wait(job_id, timeout=60.0)
            except ServerError:
                pass  # the record's "failed" status is reported below
        names = {row["id"]: row["name"] for row in submissions if "id" in row}
        records = {}
        results = {}
        for record in client.jobs():
            job_id = record["id"]
            records[job_id] = {key: record[key] for key in (
                "status", "cached", "submitted_at", "started_at",
                "finished_at")}
            if record["status"] == "done":
                payload = client.run_result(job_id)["result"]
                results[job_id] = summarize(names[job_id], payload)
    finally:
        app.close()
    return {"submissions": submissions, "records": records,
            "results": results}


def summarize(name: str, result: dict) -> dict:
    """The slice of a RunResult payload the benchmark reports and checks.

    ``result`` is a ``RunResult.to_dict()`` or the server's
    ``estimates_dict()`` view, which carries no ``wall_seconds``.
    """
    return {
        "name": name,
        "digest": digest(result),
        "benchmark": result["spec"]["benchmark"],
        "scale": result["spec"]["scale"],
        "metric": result["spec"]["metric"],
        "length": result["benchmark_length"],
        "wall": result.get("wall_seconds", 0.0),
        "estimate": result["estimate_mean"],
        "ci": result["confidence_interval"],
        "detailed_fraction": result["detailed_fraction"],
        "measured": result["instructions_measured"],
        "detailed_warming": result["instructions_detailed_warming"],
    }
