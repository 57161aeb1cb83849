#!/usr/bin/env python3
"""Chaos smoke: crash + corrupt + stall across all three backends.

The CI companion to ``tests/test_chaos_campaign.py``: for each executor
backend (serial, local-pool, queue) it installs a deterministic
:class:`repro.reliability.FaultPlan` mixing the fault kinds that backend
can meaningfully encounter —

* ``serial``     — EIO on store reads, byte corruption on store writes,
  short write stalls;
* ``local-pool`` — one fork worker crashed mid-task (``os._exit``,
  shared fuse so the crash fires exactly once), plus write corruption;
* ``queue``      — one worker subprocess crashed mid-job (recovered by
  lease expiry), stalled heartbeats, plus write corruption;

— then runs a small spec batch and asserts the reliability invariants:
every spec completes, the ``estimates_dict()`` payloads are byte-equal
to a fault-free run, and the queue ends with exactly one terminal
record per job.  A last leg submits the same specs to the HTTP job
server (in process) with one transient fault at its ``server.job``
seam: the job is retried, and every result is still byte-equal.  Faults
cost retries, never correctness.

Run:  python examples/chaos_smoke.py
"""

import json
import os
import tempfile

from repro.api import RunSpec, Session, SystematicStrategy
from repro.reliability import FaultPlan, FaultRule, SpecFailure

N_SPECS = 3


def build_specs() -> list[RunSpec]:
    return [
        RunSpec(
            benchmark="micro.syn",
            strategy=SystematicStrategy(unit_size=25, n_init=30,
                                        max_rounds=1, detailed_warming=50),
            epsilon=0.5,
            seed=seed,
        )
        for seed in range(N_SPECS)
    ]


def plan_for(backend: str, state_dir: str) -> FaultPlan:
    """A mixed-kind fault plan matched to the backend's seams."""
    corrupt = FaultRule(site="store.write", kind="corrupt",
                        probability=0.5, times=3)
    if backend == "serial":
        rules = [
            FaultRule(site="store.read", kind="oserror", errno_name="EIO",
                      probability=0.5, times=4),
            corrupt,
            FaultRule(site="store.write", kind="delay", delay=0.01,
                      times=2),
        ]
    elif backend == "local-pool":
        rules = [
            FaultRule(site="pool.task", kind="crash", scope="shared",
                      times=1),
            corrupt,
            FaultRule(site="store.read", kind="delay", delay=0.01,
                      times=2),
        ]
    else:  # queue
        rules = [
            FaultRule(site="worker.execute", kind="crash", scope="shared",
                      times=1),
            corrupt,
            FaultRule(site="queue.heartbeat", kind="delay", delay=0.02,
                      times=2),
        ]
    return FaultPlan(rules=rules, seed=23, state_dir=state_dir)


def run_backend(backend: str, tmp: str) -> list[bytes]:
    from repro.backends.local import LocalPoolBackend, SerialBackend
    from repro.backends.queue import QueueBackend
    from repro.reliability import RetryPolicy

    state_dir = os.path.join(tmp, f"fuses-{backend}")
    os.environ["REPRO_FAULT_PLAN"] = plan_for(backend, state_dir).to_json()
    retry = RetryPolicy(max_attempts=3, base_delay=0.01)
    try:
        if backend == "serial":
            outcomes = SerialBackend(retry=retry).run_specs(build_specs())
        elif backend == "local-pool":
            outcomes = LocalPoolBackend(max_workers=2, retry=retry) \
                .run_specs(build_specs())
        else:
            # Queue workers inherit the plan via the environment; a
            # short lease keeps crash recovery quick.
            outcomes = QueueBackend(workers=2, poll=0.05, lease=1.5,
                                    timeout=300.0) \
                .run_specs(build_specs(), use_cache=True)
    finally:
        os.environ.pop("REPRO_FAULT_PLAN", None)

    failures = [o.row() for o in outcomes if isinstance(o, SpecFailure)]
    assert not failures, f"{backend}: specs failed under chaos: {failures}"
    return [json.dumps(o.estimates_dict(), sort_keys=True).encode()
            for o in outcomes]


def run_server(tmp: str) -> list[bytes]:
    """The specs as server jobs, the first execution hit by a fault."""
    from repro.server import create_app
    from repro.server.client import ReproClient

    plan = FaultPlan(rules=[FaultRule(site="server.job", kind="raise",
                                      times=1)],
                     seed=23, state_dir=os.path.join(tmp, "fuses-server"))
    os.environ["REPRO_FAULT_PLAN"] = plan.to_json()
    # No result cache: every job must execute to meet the fault.
    app = create_app(workers=1, use_cache=False)
    try:
        client = ReproClient(app=app)
        ids = [client.submit_run(spec)["id"] for spec in build_specs()]
        rows = []
        for job_id in ids:
            client.wait(job_id, timeout=300.0)
            result = client.run_result(job_id)["result"]
            rows.append(json.dumps(result, sort_keys=True).encode())
        retries = sum(app.queue.work_queue.result(job_id)[1]["job"]
                      .get("attempts", 0) for job_id in ids)
    finally:
        os.environ.pop("REPRO_FAULT_PLAN", None)
        app.close()
    assert retries == 1, f"server: expected one retried job, saw {retries}"
    return rows


def check_queue_invariants() -> None:
    from repro.backends import FileWorkQueue

    queue = FileWorkQueue()
    names = {FileWorkQueue.job_name(spec) for spec in build_specs()}
    for name in sorted(names):
        done = queue._path("done", name).exists()
        failed = queue._path("failed", name).exists()
        assert done and not failed, \
            f"job {name}: done={done} failed={failed}"
    counts = queue.counts()
    assert counts["pending"] == 0 and counts["claimed"] == 0, counts


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="repro-chaos-") as tmp:
        os.environ["REPRO_ARTIFACT_DIR"] = os.path.join(tmp, "artifacts")
        os.environ["REPRO_QUEUE_DIR"] = os.path.join(tmp, "queue")
        os.environ.pop("REPRO_BACKEND", None)

        golden = [json.dumps(r.estimates_dict(), sort_keys=True).encode()
                  for r in Session(use_cache=False).run_batch(build_specs())]
        print(f"golden: {len(golden)} fault-free results")

        for backend in ("serial", "local-pool", "queue"):
            rows = run_backend(backend, tmp)
            assert rows == golden, \
                f"{backend} diverged from fault-free run under chaos"
            print(f"  {backend:<10} survived crash/corrupt/stall, "
                  f"bit-identical ({len(rows)} results)")
        check_queue_invariants()
        print("queue invariants hold: one terminal record per job, "
              "nothing lost or in flight")
        rows = run_server(tmp)
        assert rows == golden, "server diverged from fault-free run"
        print(f"  {'server':<10} retried a server.job fault, "
              f"bit-identical ({len(rows)} results)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
