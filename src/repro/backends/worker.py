"""The queue-worker loop behind ``repro-smarts worker`` and the server.

:func:`run_worker` is the one claim loop in the codebase: it claims
pending job files from a :class:`FileWorkQueue` directory one at a time
and runs each through an *execute* callable — :func:`execute_job` for
spec files (the same :func:`~repro.api.executor.execute_spec` the
in-process backends use), the server's job body for its own directory.
A spec job's ``done/`` envelope holds the result dict plus a small
worker report (pid, whether the result came from the shared cache, and
the instruction-accounting pass events the job produced — tests use the
pass log to prove a worker *fetched* checkpoints by key rather than
rebuilding them).

While a job runs, a daemon thread refreshes the claim's mtime every
quarter lease so crash recovery (:meth:`FileWorkQueue.requeue_stale`)
can tell a slow worker from a dead one.
"""

from __future__ import annotations

import os
import threading
import time
import traceback

from repro.backends.queue import DEFAULT_LEASE, FileWorkQueue


class _Heartbeat:
    """Daemon thread touching a claimed job's mtime every interval."""

    def __init__(self, queue: FileWorkQueue, name: str, interval: float):
        self._queue = queue
        self._name = name
        self._interval = max(interval, 0.05)
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        while not self._stop.wait(self._interval):
            self._queue.heartbeat(self._name)

    def __enter__(self) -> "_Heartbeat":
        self._thread.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self._stop.set()
        self._thread.join(timeout=5)


def execute_job(queue: FileWorkQueue, name: str,
                payload: dict) -> tuple[dict, dict]:
    """Execute one claimed spec job; returns ``(result, worker report)``."""
    from repro.api.executor import ResultCache, execute_spec
    from repro.api.spec import RunSpec
    from repro.reliability.faults import inject
    from repro.store import pass_events

    spec = RunSpec.from_dict(payload["spec"])
    # Fault seam: chaos plans crash/kill/stall the worker here — mid-job,
    # after the claim — which is what exercises lease-expiry requeues.
    inject("worker.execute", spec.benchmark)
    use_cache = bool(payload.get("use_cache", True))
    cache = ResultCache(enabled=use_cache)
    mark = len(pass_events())
    result = cache.get(spec)
    cached = result is not None
    if result is None:
        result = execute_spec(spec)
        cache.put(result)
    return result.to_dict(), {
        "pid": os.getpid(),
        "cached": cached,
        "passes": [event.to_dict() for event in pass_events()[mark:]],
    }


def run_worker(queue_dir=None, *, poll: float = 0.2,
               lease: float = DEFAULT_LEASE,
               max_idle: float | None = None,
               max_jobs: int | None = None,
               retry=None, execute=execute_job, idle=None) -> int:
    """Drain jobs from the queue until idle; returns jobs processed.

    Each claim runs ``execute(queue, name, payload)``, which returns the
    ``(result, worker report)`` pair the ``done/`` envelope stores.
    Exceptions go through the shared
    :class:`~repro.reliability.RetryPolicy`: a *transient* error
    (injected fault, I/O trouble) requeues the job with its attempt
    counter bumped — the same budget lease-expiry recovery charges — so
    a later claim retries it; a *permanent* error (bad spec) or an
    exhausted budget writes a ``failed/`` envelope carrying the
    traceback, the attempt count, the classification, and the per-spec
    envelopes of a partially failed batch.

    Args:
        queue_dir: Queue directory (default ``REPRO_QUEUE_DIR`` /
            ``<artifact root>/queue``).
        poll: Seconds to sleep when the queue is empty.
        lease: Heartbeat lease; claims are refreshed every quarter of
            it, and other processes may requeue claims staler than it.
        max_idle: Exit after this many consecutive idle seconds
            (None = run until killed, the long-lived-fleet shape).
        max_jobs: Exit after this many jobs (None = unlimited).
        retry: :class:`~repro.reliability.RetryPolicy` override
            (default: from the environment — ``REPRO_MAX_ATTEMPTS``).
        execute: The per-claim job body (default :func:`execute_job`).
        idle: Called with the idle seconds when nothing is claimable;
            False stops the loop (default: ``max_idle``, then ``poll``).
    """
    from repro.reliability.report import BatchExecutionError
    from repro.reliability.retry import RetryPolicy

    def sleep_or_stop(idle_for: float) -> bool:
        if max_idle is not None and idle_for >= max_idle:
            return False
        time.sleep(poll)
        return True

    idle = idle or sleep_or_stop
    policy = retry if retry is not None else RetryPolicy.from_env()
    queue = FileWorkQueue(queue_dir)
    queue.ensure_dirs()
    processed = 0
    idle_since = time.monotonic()
    while True:
        queue.requeue_stale(lease, max_attempts=policy.max_attempts)
        claim = queue.claim_next()
        if claim is None:
            if not idle(time.monotonic() - idle_since):
                return processed
            continue
        name, payload = claim
        with _Heartbeat(queue, name, interval=lease / 4):
            try:
                result, worker = execute(queue, name, payload)
                queue.complete(name, result, worker, job=payload)
            except Exception as exc:  # noqa: BLE001 — classified below
                attempts = int(payload.get("attempts", 0)) + 1
                if policy.should_retry(exc, attempts):
                    payload["attempts"] = attempts
                    queue.requeue(name, payload)
                    time.sleep(policy.delay(name, attempts))
                else:
                    failures = ([f.to_dict() for f in exc.report.failures]
                                if isinstance(exc, BatchExecutionError)
                                else None)
                    queue.fail(name, traceback.format_exc(),
                               worker={"pid": os.getpid()},
                               attempts=attempts,
                               error_type=type(exc).__name__,
                               transient=policy.transient(exc),
                               job=payload, failures=failures)
        processed += 1
        idle_since = time.monotonic()
        if max_jobs is not None and processed >= max_jobs:
            return processed
