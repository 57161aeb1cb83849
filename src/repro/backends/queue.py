"""A multi-process, file-based work queue of RunSpecs.

The queue is a directory (default ``<artifact root>/queue``, overridable
with ``REPRO_QUEUE_DIR``) with one JSON *spec file* per job, moving
through subdirectories as its state changes::

    queue/
        pending/   submitted jobs, claimable by any worker
        claimed/   jobs a worker is executing (mtime = heartbeat lease)
        done/      finished jobs: {"result": ..., "worker": ...}
        failed/    jobs that exhausted their attempts, with the error

The protocol needs nothing beyond POSIX rename semantics, so any number
of worker processes — including workers on other hosts sharing the
directory — can drain one queue:

* **Claim by rename.**  A worker claims a job by renaming its spec file
  from ``pending/`` into ``claimed/``; ``os.rename`` succeeds for
  exactly one contender, every loser gets ``FileNotFoundError`` and
  moves on.  No locks, no partial states.
* **Heartbeat leases.**  While executing, the worker touches the claimed
  file's mtime.  A claim whose mtime goes stale for longer than the
  lease belonged to a dead (or wedged) worker; any process may requeue
  it — the attempt counter rides inside the spec file, and a job that
  exhausts its attempts lands in ``failed/`` instead of looping forever.
* **Results by content key.**  Job names embed the spec's content hash
  and cache version, so resubmitting the same spec maps to the same
  job, and workers share everything heavier than a spec (checkpoint
  sets, BBV profiles, cached results) through the content-addressed
  artifact store rather than the queue.

:class:`QueueBackend` is the submitter side: it enqueues a batch,
optionally spawns local ``repro-smarts worker`` processes to drain it
(the in-test and single-host configuration), and collects results.
Estimates are bit-identical to the serial and local-pool backends —
workers execute the same deterministic specs.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

from repro.reliability.faults import inject
from repro.store import default_artifact_dir
from repro.backends.base import ExecutorBackend, register_backend

#: Default heartbeat lease in seconds: a claim untouched for this long
#: is considered abandoned and gets requeued.
DEFAULT_LEASE = 30.0

#: Times a job may be claimed before it is declared failed.
DEFAULT_MAX_ATTEMPTS = 3

#: Job states a spec file can be in (subdirectory names).
JOB_STATES = ("pending", "claimed", "done", "failed")


def default_queue_dir() -> Path:
    """The work-queue directory (``REPRO_QUEUE_DIR``, default
    ``<artifact store root>/queue``)."""
    env = os.environ.get("REPRO_QUEUE_DIR")
    if env:
        return Path(env)
    return default_artifact_dir() / "queue"


def _write_json(path: Path, payload: dict) -> None:
    """Atomic JSON write (tmp + fsync + rename), per-thread tmp name."""
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(f".{os.getpid()}-{threading.get_ident()}.tmp")
    with open(tmp, "w") as handle:
        json.dump(payload, handle, sort_keys=True)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)


def _read_json(path: Path) -> dict | None:
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError):
        return None


class FileWorkQueue:
    """The shared on-disk queue both submitters and workers speak to."""

    def __init__(self, directory: Path | str | None = None):
        self.directory = Path(directory) if directory else default_queue_dir()

    def _dir(self, state: str) -> Path:
        return self.directory / state

    def _path(self, state: str, name: str) -> Path:
        return self._dir(state) / f"{name}.json"

    def ensure_dirs(self) -> None:
        for state in JOB_STATES:
            self._dir(state).mkdir(parents=True, exist_ok=True)

    # ------------------------------------------------------------------
    # Submitter side
    # ------------------------------------------------------------------
    @staticmethod
    def job_name(spec) -> str:
        """Content-derived job name: benchmark, spec hash, cache version."""
        from repro.api.executor import CACHE_VERSION

        safe = spec.benchmark.replace("/", "_")
        return f"{safe}--{spec.key()}--v{CACHE_VERSION}"

    def submit(self, spec, use_cache: bool = True) -> str:
        """Enqueue one spec; returns its job name (idempotent per spec)."""
        name = self.job_name(spec)
        self.enqueue(name, {
            "spec": spec.to_dict(),
            "use_cache": bool(use_cache),
            "attempts": 0,
        })
        return name

    def enqueue(self, name: str, payload: dict) -> None:
        """Make ``name`` pending with ``payload``.

        Stale terminal records of the same name are cleared first: the
        executor only submits cache *misses*, so a leftover ``done/``
        file from an earlier batch must not be mistaken for this run's
        result.  A job already pending or claimed is left alone — the
        in-flight execution will produce the result this submission
        wants.
        """
        for state in ("done", "failed"):
            self._path(state, name).unlink(missing_ok=True)
        if self.exists("pending", name) or self.exists("claimed", name):
            return
        self.put("pending", name, payload)

    def exists(self, state: str, name: str) -> bool:
        return self._path(state, name).exists()

    def put(self, state: str, name: str, payload: dict) -> None:
        """Atomically (re)write one job record in ``state``."""
        _write_json(self._path(state, name), payload)

    def lookup(self, name: str,
               states=JOB_STATES) -> tuple[str, dict] | None:
        """The first of ``states`` holding a readable record of the job.

        Probed in lifecycle order, so a job moving forward mid-lookup is
        found in its next state; the first state is probed again last,
        for a requeue (claimed → pending, the one backward move).
        """
        for state in (*states, states[0]):
            payload = _read_json(self._path(state, name))
            if payload is not None:
                return state, payload
        return None

    def result(self, name: str) -> tuple[str, dict] | None:
        """The terminal record of a job: ("done"|"failed", payload)."""
        return self.lookup(name, ("done", "failed"))

    def records(self, states=JOB_STATES):
        """Yield ``(name, state, payload)`` for every readable record."""
        for state in states:
            directory = self._dir(state)
            if not directory.is_dir():
                continue
            for path in sorted(directory.glob("*.json")):
                payload = _read_json(path)
                if payload is not None:
                    yield path.stem, state, payload

    # ------------------------------------------------------------------
    # Worker side
    # ------------------------------------------------------------------
    def claim_next(self) -> tuple[str, dict] | None:
        """Claim one pending job by rename; None when the queue is idle.

        The rename from ``pending/`` to ``claimed/`` is the mutual
        exclusion: exactly one contender wins each file, losers see
        ``FileNotFoundError`` and try the next.
        """
        inject("queue.claim")
        pending = self._dir("pending")
        if not pending.is_dir():
            return None
        for path in sorted(pending.glob("*.json")):
            target = self._path("claimed", path.name[:-len(".json")])
            target.parent.mkdir(parents=True, exist_ok=True)
            try:
                os.utime(path)  # start the lease; a rename keeps the mtime
                os.rename(path, target)
            except OSError:
                continue  # lost the race (or the file vanished)
            payload = _read_json(target)
            if payload is None:
                # Unreadable spec file: fail it rather than spin on it.
                self.fail(path.stem, "unreadable spec file", worker=None)
                continue
            return path.stem, payload
        return None

    def heartbeat(self, name: str) -> None:
        """Refresh the lease on a claimed job (touch its mtime).

        The ``queue.heartbeat`` fault seam lets chaos plans stall the
        refresh (a wedged worker): the lease then goes stale and any
        process may requeue the claim.
        """
        inject("queue.heartbeat", name)
        try:
            os.utime(self._path("claimed", name))
        except OSError:
            pass  # completed or requeued under us; nothing to extend

    def complete(self, name: str, result: dict, worker: dict | None,
                 job: dict | None = None) -> dict:
        """Write the ``done/`` envelope (superseding any failure)."""
        envelope = {"result": result, "worker": worker or {}, "job": job,
                    "finished_at": time.time()}
        _write_json(self._path("done", name), envelope)
        self._path("claimed", name).unlink(missing_ok=True)
        self._path("failed", name).unlink(missing_ok=True)
        return envelope

    def fail(self, name: str, error: str, worker: dict | None,
             attempts: int = 1, error_type: str = "Exception",
             transient: bool = False, job: dict | None = None,
             failures: list | None = None) -> None:
        _write_json(self._path("failed", name),
                    {"error": error, "worker": worker or {},
                     "attempts": attempts, "error_type": error_type,
                     "transient": transient, "job": job,
                     "failures": failures, "finished_at": time.time()})
        self._path("claimed", name).unlink(missing_ok=True)

    def requeue(self, name: str, payload: dict) -> None:
        """Put a claimed job back in ``pending/`` (worker-side retry)."""
        _write_json(self._path("pending", name), payload)
        self._path("claimed", name).unlink(missing_ok=True)

    # ------------------------------------------------------------------
    # Lease recovery (any process may run this)
    # ------------------------------------------------------------------
    def requeue_stale(self, lease_seconds: float = DEFAULT_LEASE,
                      max_attempts: int = DEFAULT_MAX_ATTEMPTS) -> list[str]:
        """Requeue claims whose heartbeat went stale; returns job names.

        A stale claim's attempt counter is bumped; once it reaches
        ``max_attempts`` the job is failed instead of requeued, so a
        spec that crashes its worker cannot bounce forever.
        """
        inject("queue.requeue")
        claimed = self._dir("claimed")
        if not claimed.is_dir():
            return []
        now = time.time()
        requeued = []
        for path in sorted(claimed.glob("*.json")):
            try:
                mtime = path.stat().st_mtime
            except OSError:
                continue  # completed under us
            if now - mtime <= lease_seconds:
                continue
            payload = _read_json(path)
            name = path.stem
            if payload is None:
                path.unlink(missing_ok=True)
                continue
            payload["attempts"] = int(payload.get("attempts", 0)) + 1
            if payload["attempts"] >= max_attempts:
                self.fail(name, f"abandoned after {payload['attempts']} "
                                f"attempts (worker lease expired)",
                          worker=None, attempts=payload["attempts"],
                          error_type="LeaseExpired", transient=True)
                continue
            self.requeue(name, payload)
            requeued.append(name)
        return requeued

    def counts(self, states=JOB_STATES) -> dict[str, int]:
        """Jobs per state (introspection / CLI)."""
        return {state: len(list(self._dir(state).glob("*.json")))
                for state in states}

    def gc(self, max_age_days: float | None = None,
           remove_all: bool = False, dry_run: bool = False) -> list[Path]:
        """Prune terminal job records; returns removed (or would-be) paths.

        Without arguments only orphaned ``*.tmp`` litter goes; with
        ``max_age_days``, ``done/`` and ``failed/`` envelopes older than
        that are aged out too (the in-flight states are never touched by
        age — lease recovery owns those), and ``remove_all`` clears
        every record in every state.  ``dry_run`` reports without
        deleting.
        """
        now = time.time()
        removed: list[Path] = []

        def _remove(path: Path) -> None:
            if not dry_run:
                path.unlink(missing_ok=True)
            removed.append(path)

        for state in JOB_STATES:
            directory = self._dir(state)
            if not directory.is_dir():
                continue
            for path in sorted(directory.glob("*.tmp")):
                _remove(path)
            for path in sorted(directory.glob("*.json")):
                if remove_all:
                    _remove(path)
                    continue
                if state not in ("done", "failed") or max_age_days is None:
                    continue
                try:
                    age = now - path.stat().st_mtime
                except OSError:
                    continue
                if age > max_age_days * 86400:
                    _remove(path)
        return removed


@register_backend
class QueueBackend(ExecutorBackend):
    """Executor backend draining specs through a :class:`FileWorkQueue`.

    Args:
        queue_dir: Queue directory (default :func:`default_queue_dir`).
        workers: Worker processes to spawn per batch when none are
            given at ``run_specs`` time; ``0`` spawns none and relies on
            externally started ``repro-smarts worker`` processes
            draining the same directory (the multi-host shape).
        poll: Submitter poll interval in seconds.
        lease: Heartbeat lease passed to stale-claim recovery.
        timeout: Overall seconds to wait for a batch (None = forever).
    """

    name = "queue"
    prebuild = True

    def __init__(self, queue_dir: Path | str | None = None,
                 workers: int | None = None, poll: float = 0.1,
                 lease: float = DEFAULT_LEASE,
                 timeout: float | None = 600.0):
        self.queue_dir = Path(queue_dir) if queue_dir else None
        self.workers = workers
        self.poll = poll
        self.lease = lease
        self.timeout = timeout

    # ------------------------------------------------------------------
    def _spawn_workers(self, queue: FileWorkQueue, count: int) -> list:
        """Start local worker subprocesses draining ``queue``.

        Workers are real fresh interpreters (not forks) — the same
        execution shape as remote hosts — launched through the CLI
        entry point with the repository's package root on PYTHONPATH.
        """
        import repro

        env = dict(os.environ)
        package_root = str(Path(repro.__file__).resolve().parents[1])
        existing = env.get("PYTHONPATH", "")
        if package_root not in existing.split(os.pathsep):
            env["PYTHONPATH"] = (package_root + os.pathsep + existing
                                 if existing else package_root)
        command = [sys.executable, "-m", "repro", "worker",
                   "--queue-dir", str(queue.directory),
                   "--poll", str(self.poll),
                   "--lease", str(self.lease),
                   "--max-idle", "20"]
        return [subprocess.Popen(command, env=env) for _ in range(count)]

    def run_specs(self, specs, *, max_workers=None, use_cache=True):
        from repro.api.spec import RunResult
        from repro.reliability.report import SpecFailure

        queue = FileWorkQueue(self.queue_dir)
        names = [queue.submit(spec, use_cache=use_cache) for spec in specs]
        by_name = {name: spec for name, spec in zip(names, specs)}
        count = max_workers if max_workers is not None else self.workers
        if count is None:
            count = 2
        processes = (self._spawn_workers(queue, min(count, len(set(names))))
                     if count > 0 else [])
        deadline = (time.monotonic() + self.timeout
                    if self.timeout is not None else None)

        def _dead_failure(name: str, reason: str, error_type: str):
            return SpecFailure(spec=by_name[name], error=reason,
                               error_type=error_type, attempts=1,
                               transient=True)

        try:
            envelopes: dict[str, object] = {}
            outstanding = set(names)
            while outstanding:
                for name in sorted(outstanding):
                    record = queue.result(name)
                    if record is None:
                        continue
                    state, payload = record
                    if state == "failed":
                        envelopes[name] = SpecFailure(
                            spec=by_name[name],
                            error=payload.get("error", "unknown error"),
                            error_type=payload.get("error_type",
                                                   "Exception"),
                            attempts=int(payload.get("attempts", 1)),
                            transient=bool(payload.get("transient", False)))
                    else:
                        envelopes[name] = RunResult.from_dict(
                            payload["result"])
                    outstanding.discard(name)
                if not outstanding:
                    break
                queue.requeue_stale(self.lease)
                if processes and all(p.poll() is not None for p in processes):
                    # Every spawned worker exited; sweep once more, then
                    # report rather than poll an unserviced queue forever.
                    if all(queue.result(n) is not None for n in outstanding):
                        continue
                    codes = [p.returncode for p in processes]
                    for name in sorted(outstanding):
                        if queue.result(name) is None:
                            envelopes[name] = _dead_failure(
                                name,
                                f"queue workers exited (codes {codes}) "
                                f"with job {name} outstanding under "
                                f"{queue.directory}", "WorkersExited")
                            outstanding.discard(name)
                    continue
                if deadline is not None and time.monotonic() > deadline:
                    for name in sorted(outstanding):
                        envelopes[name] = _dead_failure(
                            name,
                            f"queue batch timed out after {self.timeout}s "
                            f"with job {name} outstanding under "
                            f"{queue.directory}", "TimeoutError")
                    break
                time.sleep(self.poll)
            return [envelopes[name] for name in names]
        finally:
            for process in processes:
                if process.poll() is None:
                    process.terminate()
            for process in processes:
                try:
                    process.wait(timeout=10)
                except subprocess.TimeoutExpired:  # pragma: no cover
                    process.kill()
                    process.wait()
