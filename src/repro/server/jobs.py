"""The server's jobs: a FileWorkQueue drained by worker threads.

Each submission is a job file in the server's own
:class:`~repro.backends.queue.FileWorkQueue` directory (default
``<artifact root>/jobs``); its state directory is its status
(``pending`` → queued, ``claimed`` → running, ``done``, ``failed``).
Worker threads drain it with the shared claim loop,
:func:`~repro.backends.worker.run_worker`, into one
:class:`~repro.api.session.Session`, so every run goes through the
:class:`~repro.api.executor.ResultCache` — a cross-client memo: the
second client to submit an identical spec is answered without
simulating.

Job ids are content hashes (``run-<RunSpec.key()>``,
``study-<hash of {study, params}>``): resubmitting work that is queued,
running, or done returns the existing record, and a *failed* job
resubmits under the same id.  Submissions finding ``queue_depth`` jobs
pending raise :class:`QueueFull` (HTTP 429), and after shutdown starts
:class:`QueueClosed` (HTTP 503).  Job errors go through the shared
:class:`~repro.reliability.RetryPolicy` (transient ones requeue); a
time bound is ``QueueBackend(timeout=...)`` as the session's backend,
which kills its worker process at the deadline.  At start-up the
directory is this server's alone, so every pending or claimed job
counts one more restart and claimed ones go back to pending.
"""

from __future__ import annotations

import threading
import time

from repro.api.resultset import to_jsonable
from repro.api.session import Session
from repro.api.spec import RunResult, RunSpec
from repro.api.study import Study, default_context, get_study
from repro.backends.queue import FileWorkQueue
from repro.backends.worker import run_worker
from repro.store import default_artifact_dir, fingerprint

#: Job status reported for each queue state.
STATUS = {"pending": "queued", "claimed": "running",
          "done": "done", "failed": "failed"}


class QueueFull(Exception):
    """The bounded job queue is at capacity (HTTP 429)."""


class QueueClosed(Exception):
    """The service is shutting down; no new submissions (HTTP 503)."""


def execute_run(session: Session, spec: RunSpec) -> RunResult:
    """Run one spec through the session (module-level for testability)."""
    return session.run(spec)


def execute_study(session: Session, study: Study, params: dict, ctx=None):
    """Run one registered study through the session."""
    return session.run_study(study, ctx=ctx, params=params)


def jobs_queue(directory=None) -> FileWorkQueue:
    """The server's job directory, default ``<artifact root>/jobs`` — not
    the queue backend's ``queue``, whose jobs a server thread would
    otherwise claim and then wait on."""
    return FileWorkQueue(directory or default_artifact_dir() / "jobs")


def describe(name: str, state: str, record: dict) -> dict:
    """A job record as ``GET /jobs/<id>`` reports it (no result body)."""
    job = record["job"] if state in ("done", "failed") else record
    return {
        "id": name,
        "kind": job["kind"],
        "status": STATUS[state],
        "payload": job["payload"],
        "submitted_at": job["submitted_at"],
        "started_at": None if state == "pending" else job.get("started_at"),
        "finished_at": record.get("finished_at"),
        "error": record.get("error"),
        "cached": bool(record.get("worker", {}).get("cached")),
        "restarts": job.get("restarts", 0),
        "has_result": state == "done",
        "failures": record.get("failures"),
    }


def list_jobs(queue: FileWorkQueue, status: str | None = None) -> list[dict]:
    """Every job record, oldest submission first (a job seen in two
    states while it moves counts in the first, as in ``lookup``)."""
    records: dict[str, dict] = {}
    for name, state, record in queue.records():
        records.setdefault(name, describe(name, state, record))
    listing = sorted(records.values(), key=lambda r: r["submitted_at"])
    if status is not None:
        listing = [r for r in listing if r["status"] == status]
    return listing


class JobQueue:
    """The server's job directory + worker threads in front of a Session."""

    def __init__(self, session: Session, directory=None,
                 workers: int = 2, queue_depth: int = 16,
                 study_context=None):
        self.session = session
        self.work_queue = jobs_queue(directory)
        self.queue_depth = queue_depth
        self.study_context = study_context
        self._lock = threading.Lock()
        #: One token per submission (and per worker at shutdown): idle
        #: workers sleep on it instead of polling the directory.
        self._wake = threading.Semaphore(0)
        #: Done envelopes by job id.  They never change once written, so
        #: a dedupe or poll of a finished job costs a ``stat``, not a read.
        self._done: dict[str, dict] = {}
        self._closed = False
        self.hits = 0
        self.misses = 0
        self._recover()
        self._workers = [
            threading.Thread(target=run_worker,
                             args=(self.work_queue.directory,),
                             kwargs={"execute": self._execute,
                                     "idle": self._idle},
                             daemon=True, name=f"repro-job-worker-{i}")
            for i in range(workers)
        ]
        for worker in self._workers:
            worker.start()

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------
    def submit_run(self, spec: RunSpec) -> tuple[dict, bool]:
        """Submit a run job; returns ``(record, created)``.  A spec any
        client has simulated is answered from the result cache, born
        ``done`` with ``cached=True``."""
        return self._submit(f"run-{spec.key()}", "run", spec.to_dict(), spec)

    def submit_study(self, study: Study | str,
                     params: dict | None = None) -> tuple[dict, bool]:
        """Submit a study job; returns ``(record, created)``."""
        if isinstance(study, str):
            study = get_study(study)
        payload = {"study": study.name, "params": dict(params or {})}
        return self._submit(f"study-{fingerprint(payload)}", "study",
                            payload)

    def _submit(self, job_id: str, kind: str, payload: dict,
                spec: RunSpec | None = None) -> tuple[dict, bool]:
        with self._lock:
            found = self.lookup(job_id)
            if found is not None and found[0]["status"] != "failed":
                return found[0], False
            self._done.pop(job_id, None)  # a gc'd record may come back
            job = {"kind": kind, "payload": payload,
                   "submitted_at": time.time(), "restarts": 0}
            cached = self.session.executor.cache.get(spec) if spec else None
            if cached is not None:
                self.hits += 1
                job["started_at"] = job["submitted_at"]
                envelope = self.work_queue.complete(
                    job_id, cached.to_dict(), {"cached": True}, job=job)
                self._done[job_id] = envelope
                return describe(job_id, "done", envelope), True
            if self._closed:
                raise QueueClosed("server is shutting down")
            pending = self.work_queue.counts(("pending",))["pending"]
            if pending >= self.queue_depth:
                raise QueueFull(
                    f"job queue is full ({self.queue_depth} queued)")
            self.work_queue.enqueue(job_id, job)
            self._wake.release()
            return describe(job_id, "pending", job), True

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def lookup(self, job_id: str) -> tuple[dict, dict | None] | None:
        """``(record, result)`` of one job; the result once it is done."""
        envelope = self._done.get(job_id)
        if envelope is not None and self.work_queue.exists("done", job_id):
            return describe(job_id, "done", envelope), envelope["result"]
        found = self.work_queue.lookup(job_id)
        if found is None:
            return None
        state, record = found
        if state == "done":
            self._done[job_id] = record
        return describe(job_id, state, record), record.get("result")

    def jobs(self, status: str | None = None) -> list[dict]:
        return list_jobs(self.work_queue, status)

    def counts(self) -> dict:
        return {STATUS[state]: count
                for state, count in self.work_queue.counts().items()}

    # ------------------------------------------------------------------
    # Execution (the per-claim body of the shared worker loop)
    # ------------------------------------------------------------------
    def _execute(self, queue: FileWorkQueue, name: str,
                 job: dict) -> tuple[dict, dict]:
        from repro.reliability.faults import inject

        job["started_at"] = time.time()
        queue.put("claimed", name, job)
        inject("server.job", name)
        if job["kind"] == "run":
            spec = RunSpec.from_dict(job["payload"])
            cached = self.session.executor.cache.get(spec)
            with self._lock:
                self.hits += cached is not None
                self.misses += cached is None
            if cached is not None:  # populated since submission
                return cached.to_dict(), {"cached": True}
            return execute_run(self.session, spec).to_dict(), {}
        study = get_study(job["payload"]["study"])
        ctx = self.study_context or default_context()
        report = execute_study(self.session, study,
                               job["payload"].get("params", {}), ctx=ctx)
        data = {k: to_jsonable(v) for k, v in report.data.items()
                if k != "report"}
        return {"study": report.study, "title": report.title,
                "rows": to_jsonable(report.rows), "data": data,
                "report": report.report}, {}

    def _idle(self, idle_for: float) -> bool:
        """Sleep until a submission or shutdown; False once drained."""
        if self._closed:
            return False
        self._wake.acquire()
        return True

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def _recover(self) -> None:
        """Count a restart on unfinished jobs; requeue interrupted ones."""
        unfinished = self.work_queue.records(("pending", "claimed"))
        for name, state, job in list(unfinished):
            job["restarts"] = job.get("restarts", 0) + 1
            job.pop("started_at", None)
            if state == "claimed":
                self.work_queue.requeue(name, job)
            else:
                self.work_queue.put("pending", name, job)

    def shutdown(self, wait: bool = True) -> None:
        """Stop intake, let the workers drain the queue, join them."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
        for _ in self._workers:
            self._wake.release()
        if wait:
            for worker in self._workers:
                worker.join()

    @property
    def closed(self) -> bool:
        return self._closed
