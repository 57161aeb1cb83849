"""Tests for repro.backends: registry, queue protocol, bit-identity.

The headline contract: serial, local-pool, and queue backends produce
bit-identical ``estimates_dict()`` payloads for the same specs — the
queue backend with *real* worker subprocesses draining a shared
file-based work queue, fetching checkpoints from the artifact store by
content key.
"""

import os
import time

import pytest

from repro.api import (
    BACKENDS,
    CheckpointStore,
    LocalPoolBackend,
    QueueBackend,
    SerialBackend,
    RunResult,
    RunSpec,
    Session,
    SystematicStrategy,
    get_backend,
    resolve_backend,
)
from repro.api.executor import resolve_benchmark, resolve_machine
from repro.backends import (
    DEFAULT_LEASE,
    FileWorkQueue,
    backend_from_env,
    run_worker,
)
from repro.reliability import SpecFailure


@pytest.fixture(autouse=True)
def isolated_store(tmp_path, monkeypatch):
    """One throwaway artifact root + queue per test, shared by workers.

    The spawned worker subprocesses inherit the environment, so they
    resolve the same store/queue directories as the submitting test.
    """
    monkeypatch.delenv("REPRO_BACKEND", raising=False)
    monkeypatch.setenv("REPRO_ARTIFACT_DIR", str(tmp_path / "artifacts"))
    monkeypatch.setenv("REPRO_QUEUE_DIR", str(tmp_path / "queue"))


def _micro_spec(**changes) -> RunSpec:
    """A cheap deterministic spec on the ~15k-instruction benchmark."""
    spec = RunSpec(
        benchmark="micro.syn",
        strategy=SystematicStrategy(unit_size=25, n_init=30, max_rounds=1,
                                    detailed_warming=50),
        epsilon=0.5,
    )
    return spec.with_(**changes) if changes else spec


class TestRegistry:
    def test_builtin_backends_registered(self):
        assert set(BACKENDS) == {"serial", "local-pool", "queue"}
        assert get_backend("serial") is SerialBackend
        assert get_backend("local-pool") is LocalPoolBackend
        assert get_backend("queue") is QueueBackend

    def test_unknown_name_lists_registered(self):
        with pytest.raises(KeyError, match="unknown backend 'nope'.*"
                                           "local-pool.*queue.*serial"):
            get_backend("nope")

    def test_resolve_accepts_name_class_instance(self):
        assert isinstance(resolve_backend("serial"), SerialBackend)
        assert isinstance(resolve_backend(LocalPoolBackend), LocalPoolBackend)
        instance = QueueBackend(workers=0)
        assert resolve_backend(instance) is instance

    def test_resolve_rejects_other_types(self):
        with pytest.raises(TypeError):
            resolve_backend(3)

    def test_backend_from_env(self, monkeypatch):
        assert backend_from_env() is None
        monkeypatch.setenv("REPRO_BACKEND", "serial")
        assert isinstance(backend_from_env(), SerialBackend)
        monkeypatch.setenv("REPRO_BACKEND", "nope")
        with pytest.raises(ValueError, match="REPRO_BACKEND names an "
                                             "unknown backend 'nope'"):
            backend_from_env()


class TestFileWorkQueue:
    def test_submit_claim_complete_roundtrip(self):
        queue = FileWorkQueue()
        spec = _micro_spec()
        name = queue.submit(spec)
        assert queue.counts()["pending"] == 1
        claimed_name, payload = queue.claim_next()
        assert claimed_name == name
        assert RunSpec.from_dict(payload["spec"]) == spec
        assert queue.claim_next() is None  # claim is exclusive
        queue.complete(name, {"fake": "result"}, worker={"pid": 1})
        state, record = queue.result(name)
        assert state == "done"
        assert record["result"] == {"fake": "result"}
        assert queue.counts() == {"pending": 0, "claimed": 0,
                                  "done": 1, "failed": 0}

    def test_submit_is_idempotent_and_clears_stale_terminal(self):
        queue = FileWorkQueue()
        spec = _micro_spec()
        name = queue.submit(spec)
        assert queue.submit(spec) == name
        assert queue.counts()["pending"] == 1
        queue.claim_next()
        queue.complete(name, {"old": True}, worker=None)
        queue.submit(spec)  # resubmission invalidates the old record
        assert queue.result(name) is None
        assert queue.counts()["pending"] == 1

    def test_requeue_stale_bumps_attempts_then_fails(self):
        queue = FileWorkQueue()
        name = queue.submit(_micro_spec())
        for attempt in range(1, 3):
            claimed, payload = queue.claim_next()
            assert claimed == name
            assert payload["attempts"] == attempt - 1
            claim_path = queue._path("claimed", name)
            os.utime(claim_path, (time.time() - 60,) * 2)
            assert queue.requeue_stale(lease_seconds=1) == [name]
        # Third stale claim exhausts the attempt budget.
        queue.claim_next()
        os.utime(queue._path("claimed", name), (time.time() - 60,) * 2)
        assert queue.requeue_stale(lease_seconds=1, max_attempts=3) == []
        state, record = queue.result(name)
        assert state == "failed"
        assert "abandoned" in record["error"]

    def test_fresh_claim_not_requeued(self):
        queue = FileWorkQueue()
        queue.submit(_micro_spec())
        queue.claim_next()
        assert queue.requeue_stale(lease_seconds=30) == []

    def test_claim_of_a_long_pending_job_starts_a_fresh_lease(self):
        """The lease runs from the claim, not from the submission: a job
        that waited in ``pending/`` longer than the lease is not taken
        back from the worker that just claimed it."""
        queue = FileWorkQueue()
        name = queue.submit(_micro_spec())
        os.utime(queue._path("pending", name), (time.time() - 60,) * 2)
        assert queue.claim_next()[0] == name
        assert queue.requeue_stale(lease_seconds=30) == []

    def test_record_roundtrip(self):
        queue = FileWorkQueue()
        job = {"kind": "run", "payload": {"x": 1}, "submitted_at": 1.0}
        queue.put("claimed", "run-abc", job)
        assert queue.lookup("run-abc") == ("claimed", job)
        envelope = queue.complete("run-abc", {"y": 2}, {"cached": True},
                                  job=job)
        assert queue.lookup("run-abc") == ("done", envelope)
        assert envelope["job"] == job and envelope["result"] == {"y": 2}
        assert queue.lookup("run-missing") is None

    def test_corrupt_record_skipped_by_listing(self):
        queue = FileWorkQueue()
        queue.put("pending", "run-ok", {"attempts": 0})
        queue._path("done", "run-bad").parent.mkdir(parents=True)
        queue._path("done", "run-bad").write_text("{truncated")
        assert [(name, state) for name, state, _ in queue.records()] \
            == [("run-ok", "pending")]
        assert queue.lookup("run-bad") is None

    def test_gc_all_clears_every_state_and_tmp(self):
        queue = FileWorkQueue()
        for state in ("pending", "claimed", "done", "failed"):
            queue.put(state, f"job-{state}", {})
        (queue._dir("claimed") / "litter.1-2.tmp").write_text("")
        # Without flags only tmp litter goes; fresh records stay.
        assert [p.name for p in queue.gc()] == ["litter.1-2.tmp"]
        assert [p.name for p in queue.gc(max_age_days=30)] == []
        removed = queue.gc(remove_all=True)
        assert len(removed) == 4
        assert list(queue.records()) == []

    def test_concurrent_writes_of_one_record_do_not_collide(self,
                                                            monkeypatch):
        """Two threads inside ``_write_json`` on one path at once.

        A tmp name shared by the threads of one process lets the second
        ``open`` truncate the first writer's bytes and its later rename
        fail; per-thread tmp names keep both writes whole.
        """
        import json
        import threading
        from types import SimpleNamespace

        from repro.backends import queue as queue_module

        both_inside = threading.Barrier(2, timeout=10)

        def interleaved_dump(payload, handle, **kwargs):
            both_inside.wait()  # each writer holds its tmp file open
            json.dump(payload, handle, **kwargs)

        monkeypatch.setattr(queue_module, "json", SimpleNamespace(
            dump=interleaved_dump, loads=json.loads))
        path = FileWorkQueue()._path("pending", "job")
        errors = []

        def write(payload):
            try:
                queue_module._write_json(path, payload)
            except Exception as exc:  # noqa: BLE001 — asserted below
                errors.append(exc)

        threads = [threading.Thread(target=write, args=({"writer": i},))
                   for i in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []
        assert json.loads(path.read_text()) in ({"writer": 0},
                                                {"writer": 1})
        assert list(path.parent.glob("*.tmp")) == []


class TestRunWorker:
    def test_worker_drains_queue_in_process(self):
        queue = FileWorkQueue()
        spec = _micro_spec()
        name = queue.submit(spec, use_cache=True)
        assert run_worker(poll=0.01, max_jobs=1) == 1
        state, record = queue.result(name)
        assert state == "done"
        assert record["worker"]["pid"] == os.getpid()
        assert record["worker"]["cached"] is False
        result = Session().run_batch([spec])[0]  # hits the shared cache
        envelope = RunResult.from_dict(record["result"])
        assert result.estimates_dict() == envelope.estimates_dict()

    def test_worker_fails_job_on_exception(self):
        queue = FileWorkQueue()
        name = queue.submit(_micro_spec())
        # Sabotage the pending spec so RunSpec.from_dict blows up.
        path = queue._path("pending", name)
        import json

        payload = json.loads(path.read_text())
        payload["spec"]["strategy"] = {"name": "no-such-strategy"}
        path.write_text(json.dumps(payload))
        assert run_worker(poll=0.01, max_idle=0.5) == 1
        state, record = queue.result(name)
        assert state == "failed"
        assert "no-such-strategy" in record["error"]

    def test_worker_exits_when_idle(self):
        assert run_worker(poll=0.01, max_idle=0.1) == 0


class TestBackendBitIdentity:
    def test_all_backends_bit_identical(self):
        """serial == local-pool == queue on estimates_dict().

        The queue run spawns two REAL worker subprocesses (fresh
        interpreters via the ``repro-smarts worker`` CLI) draining the
        shared file queue.  Caching is off so every backend actually
        executes its specs.
        """
        specs = [_micro_spec(), _micro_spec(machine="16-way")]
        golden = Session(use_cache=False, backend="serial").run_batch(specs)
        payloads = [r.estimates_dict() for r in golden]

        pool = Session(use_cache=False, backend=LocalPoolBackend(),
                       max_workers=2).run_batch(specs)
        assert [r.estimates_dict() for r in pool] == payloads

        queue = Session(use_cache=False, backend="queue",
                        max_workers=2).run_batch(specs)
        assert [r.estimates_dict() for r in queue] == payloads

    def test_queue_worker_fetches_checkpoints_by_key(self):
        """A worker that never built a checkpoint set restores from it.

        The set is built once in this process and published through the
        shared artifact store; the spawned worker's pass report proves
        it loaded the set by content key (no ``checkpoint_build`` pass)
        while its result proves the set was used (restores > 0).
        """
        spec = _micro_spec(checkpoints="auto")
        program = resolve_benchmark(spec.benchmark, spec.scale)
        machine = resolve_machine(spec.machine)
        CheckpointStore().get_or_build(program, machine,
                                       spec.strategy.unit_size)

        backend = QueueBackend(workers=2, timeout=300.0)
        result = backend.run_specs([spec], use_cache=False)[0]
        assert result.checkpoint_restores > 0

        queue = FileWorkQueue()
        state, record = queue.result(FileWorkQueue.job_name(spec))
        assert state == "done"
        assert record["worker"]["pid"] != os.getpid()  # a real subprocess
        kinds = [event["kind"] for event in record["worker"]["passes"]]
        assert "checkpoint_build" not in kinds

    def test_queue_backend_surfaces_worker_failure(self):
        import threading

        spec = _micro_spec()
        backend = QueueBackend(workers=0, poll=0.01, timeout=10.0)
        queue = FileWorkQueue()

        def saboteur() -> None:
            # Act like a worker that claims the job and reports failure.
            deadline = time.time() + 5
            while time.time() < deadline:
                claim = queue.claim_next()
                if claim is not None:
                    queue.fail(claim[0], "kaboom", worker=None)
                    return
                time.sleep(0.01)

        thread = threading.Thread(target=saboteur)
        thread.start()
        try:
            envelope = backend.run_specs([spec], use_cache=False)[0]
        finally:
            thread.join()
        assert isinstance(envelope, SpecFailure)
        assert "kaboom" in envelope.error
        assert envelope.spec == spec

    def test_queue_backend_times_out_without_workers(self):
        backend = QueueBackend(workers=0, poll=0.01, timeout=0.3)
        envelope = backend.run_specs([_micro_spec()], use_cache=False)[0]
        assert isinstance(envelope, SpecFailure)
        assert envelope.error_type == "TimeoutError"
        assert envelope.transient is True


class TestSessionBackendSelection:
    def test_unknown_backend_name_raises_descriptive_error(self):
        session = Session(backend="warp-drive", use_cache=False)
        with pytest.raises(KeyError, match="unknown backend 'warp-drive'"):
            session.run_batch([_micro_spec()])

    def test_env_backend_applies_when_unset(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "nope")
        session = Session(use_cache=False)
        with pytest.raises(ValueError, match="REPRO_BACKEND"):
            session.run_batch([_micro_spec()])
