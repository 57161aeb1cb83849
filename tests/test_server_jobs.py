"""Queue semantics, job persistence, and cache-write hardening.

Worker-blocking tests monkeypatch ``repro.server.jobs.execute_run`` with
event-gated stand-ins so queue-full (429), failed jobs, and graceful
shutdown are exercised deterministically, without racing on real
simulation timing.
"""

import json
import os
import threading
import time

import pytest

from repro.api import ResultCache, RunSpec, SystematicStrategy, execute_spec
from repro.cli import main
from repro.server import ServerConfig, ServerError, create_app
from repro.server import jobs as server_jobs
from repro.server.client import ReproClient
from repro.server.jobs import jobs_queue


@pytest.fixture(autouse=True)
def isolated_dirs(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_ARTIFACT_DIR", str(tmp_path / "artifacts"))
    yield tmp_path


MICRO_SPEC = RunSpec(
    benchmark="micro.syn", epsilon=0.5,
    strategy=SystematicStrategy(unit_size=25, n_init=40, max_rounds=1,
                                detailed_warming=64))


@pytest.fixture(scope="module")
def micro_result():
    """One real RunResult the gated stand-ins can hand back."""
    return execute_spec(MICRO_SPEC)


class TestQueueBackpressure:
    def test_queue_full_is_429(self, monkeypatch, micro_result):
        started = threading.Event()
        release = threading.Event()

        def gated(session, spec):
            started.set()
            assert release.wait(30)
            return micro_result

        monkeypatch.setattr(server_jobs, "execute_run", gated)
        app = create_app(ServerConfig(workers=1, queue_depth=1))
        try:
            client = ReproClient(app=app)
            client.submit_run(MICRO_SPEC.with_(seed=1))
            assert started.wait(10)  # worker holds job 1
            client.submit_run(MICRO_SPEC.with_(seed=2))  # fills the queue
            with pytest.raises(ServerError) as exc:
                client.submit_run(MICRO_SPEC.with_(seed=3))
            assert exc.value.status == 429
            assert exc.value.payload["queue_depth"] == 1
            # The rejected submission left no job record behind.
            assert len(client.jobs()) == 2
        finally:
            release.set()
            app.close()

    def test_graceful_shutdown_finishes_in_flight(self, monkeypatch,
                                                  micro_result):
        started = threading.Event()
        release = threading.Event()

        def gated(session, spec):
            started.set()
            assert release.wait(30)
            return micro_result

        monkeypatch.setattr(server_jobs, "execute_run", gated)
        app = create_app(ServerConfig(workers=1))
        client = ReproClient(app=app)
        job = client.submit_run(MICRO_SPEC.with_(seed=7))
        assert started.wait(10)
        closer = threading.Thread(target=app.close)
        closer.start()
        # Intake closes while the in-flight job still runs; fresh specs
        # (dedupe never applies) must start bouncing with 503.
        rejected = None
        for attempt in range(200):
            try:
                client.submit_run(MICRO_SPEC.with_(seed=100 + attempt))
            except ServerError as exc:
                rejected = exc
                break
            time.sleep(0.01)
        assert rejected is not None, "shutdown never closed intake"
        assert rejected.status == 503
        release.set()
        closer.join(timeout=30)
        assert not closer.is_alive()
        assert client.job(job["id"])["status"] == "done"
        assert client.health()["status"] == "shutting-down"

    def test_failed_job_is_409_and_resubmittable(self, monkeypatch,
                                                 micro_result):
        release = threading.Event()

        def gated(session, spec):
            if not release.is_set():
                raise ValueError("simulated permanent job error")
            return micro_result

        monkeypatch.setattr(server_jobs, "execute_run", gated)
        app = create_app(ServerConfig(workers=1))
        try:
            client = ReproClient(app=app)
            job = client.submit_run(MICRO_SPEC.with_(seed=9))
            with pytest.raises(ServerError) as exc:
                client.wait(job["id"], timeout=30)
            record = exc.value.payload["job"]
            assert record["status"] == "failed"
            assert "simulated permanent job error" in record["error"]
            assert record["finished_at"] >= record["started_at"]
            # A failed job's result route reports the failure as 409.
            with pytest.raises(ServerError) as exc:
                client.run_result(job["id"])
            assert exc.value.status == 409
            # Failed jobs may be resubmitted (fresh attempt, same id).
            release.set()
            retried = client.submit_run(MICRO_SPEC.with_(seed=9))
            assert retried["id"] == job["id"]
            assert retried["created"] is True
            client.wait(job["id"], timeout=30)
        finally:
            release.set()
            app.close()

    def test_concurrent_submissions_run_each_job_once(self, monkeypatch,
                                                     micro_result):
        """More submitters and job threads than cores, tiny switch
        interval: every distinct job runs exactly once, duplicates
        dedupe, and the miss counter loses no update."""
        import sys

        calls = []
        lock = threading.Lock()

        def counting(session, spec):
            with lock:
                calls.append(spec.key())
            return micro_result

        monkeypatch.setattr(server_jobs, "execute_run", counting)
        specs = [MICRO_SPEC.with_(seed=200 + i) for i in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        app = create_app(ServerConfig(workers=4, queue_depth=64))
        try:
            client = ReproClient(app=app)
            ids = []

            def submit_all():
                for spec in specs:
                    ids.append(client.submit_run(spec)["id"])

            submitters = [threading.Thread(target=submit_all)
                          for _ in range(4)]
            for thread in submitters:
                thread.start()
            for thread in submitters:
                thread.join(timeout=60)
                assert not thread.is_alive()
            assert len(ids) == 4 * len(specs)
            for job_id in set(ids):
                assert client.wait(job_id, timeout=60)["status"] == "done"
        finally:
            sys.setswitchinterval(interval)
            app.close()
        assert sorted(calls) == sorted(spec.key() for spec in specs)
        assert app.queue.misses == len(specs) and app.queue.hits == 0
        assert list(app.queue.work_queue.directory.glob("*/*.tmp")) == []


class TestRestartRecovery:
    def test_queued_jobs_survive_restart(self, monkeypatch, micro_result):
        # workers=0: submissions persist but nothing drains them.
        app = create_app(ServerConfig(workers=0))
        client = ReproClient(app=app)
        a = client.submit_run(MICRO_SPEC.with_(seed=11))
        b = client.submit_run(MICRO_SPEC.with_(seed=12))
        assert {a["status"], b["status"]} == {"queued"}
        app.close()

        monkeypatch.setattr(server_jobs, "execute_run",
                            lambda session, spec: micro_result)
        app2 = create_app(ServerConfig(workers=1))
        try:
            client2 = ReproClient(app=app2)
            for job in (a, b):
                record = client2.wait(job["id"], timeout=30)
                assert record["restarts"] == 1
                assert record["has_result"] is True
        finally:
            app2.close()

    def test_interrupted_running_job_requeues(self, tmp_path):
        # A claimed file left behind by a server that died mid-job.
        job_id = f"run-{MICRO_SPEC.key()}"
        jobs_queue().put("claimed", job_id, {
            "kind": "run", "payload": MICRO_SPEC.to_dict(),
            "submitted_at": time.time(), "started_at": time.time(),
            "restarts": 0})
        app = create_app(ServerConfig(workers=1))
        try:
            client = ReproClient(app=app)
            finished = client.wait(job_id, timeout=120)
            assert finished["restarts"] == 1
        finally:
            app.close()


class TestResultCacheHardening:
    """Regression tests for atomic, degradable cache writes."""

    def test_concurrent_puts_never_corrupt(self, tmp_path, micro_result):
        cache = ResultCache(tmp_path / "cc")
        threads = [threading.Thread(target=cache.put, args=(micro_result,))
                   for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        # Exactly one entry, valid JSON, loadable.
        entries = list((tmp_path / "cc").glob("*.json"))
        assert len(entries) == 1
        json.loads(entries[0].read_text())
        assert cache.get(micro_result.spec).estimates_dict() \
            == micro_result.estimates_dict()
        assert cache.stats()["entries"] == 1
        assert cache.stats()["stale_files"] == 0

    def test_leftover_tmp_is_invisible_to_get(self, tmp_path, micro_result):
        cache = ResultCache(tmp_path / "cc")
        cache.put(micro_result)
        # A writer killed mid-write leaves a tmp file, never a truncated
        # entry.
        path = cache.path(micro_result.spec)
        stray = path.with_suffix(".9999-1.tmp")
        stray.write_text('{"spec": {"benchmark": "micr')
        assert cache.get(micro_result.spec) is not None
        stats = cache.stats()
        assert stats["entries"] == 1 and stats["stale_files"] == 1

    def test_unwritable_directory_degrades_with_warning(self, tmp_path,
                                                        micro_result):
        # A *file* at the cache path makes mkdir raise (works even when
        # the suite runs as root, where chmod 0o555 would not block).
        blocker = tmp_path / "not-a-dir"
        blocker.write_bytes(b"")
        cache = ResultCache(blocker)
        with pytest.warns(RuntimeWarning, match="cache write"):
            cache.put(micro_result)  # must not raise
        assert cache.get(micro_result.spec) is None

    def test_corrupt_entry_is_a_miss_and_overwritable(self, tmp_path,
                                                      micro_result):
        cache = ResultCache(tmp_path / "cc")
        path = cache.path(micro_result.spec)
        path.parent.mkdir(parents=True)
        path.write_text('{"spec": {"benchmark"')  # simulated torn write
        assert cache.get(micro_result.spec) is None
        cache.put(micro_result)
        assert cache.get(micro_result.spec) is not None


class TestServerCLI:
    def test_serve_parser_defaults(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(["serve", "--port", "0"])
        assert args.host == "127.0.0.1"
        assert args.port == 0
        assert args.workers == 2
        assert args.queue_depth == 16

    def test_jobs_ls_and_gc(self, capsys):
        queue = jobs_queue()
        job = {"kind": "run", "payload": {"benchmark": "micro.syn"},
               "submitted_at": 1.0, "started_at": 1.0, "restarts": 0}
        queue.complete("run-x", {"y": 2}, {}, job=job)
        os.utime(queue.directory / "done" / "run-x.json", (1.0, 1.0))
        assert main(["jobs", "ls"]) == 0
        out = capsys.readouterr().out
        assert "run-x" in out and "micro.syn" in out

        assert main(["jobs", "ls", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["jobs"][0]["id"] == "run-x"
        assert payload["jobs"][0]["status"] == "done"

        # `store gc` ages the server's finished job records out too.
        assert main(["store", "gc", "--max-age-days", "30"]) == 0
        out = capsys.readouterr().out
        assert "run-x.json" in out
        assert list(queue.records()) == []
