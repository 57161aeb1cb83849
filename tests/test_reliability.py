"""Tests for repro.reliability: faults, retries, partial failure.

Covers the three layers separately — the deterministic
:class:`FaultInjector`, the :class:`RetryPolicy` classification and
backoff, the :class:`BatchReport` envelope contract — plus the
integration seams: corrupt artifacts are quarantined instead of served,
a SIGKILLed pool worker does not cost the batch (the satellite
regression test), queue and server-job gc honors TTLs and ``--dry-run``,
server jobs retry transient faults and fail permanent ones, a
``QueueBackend`` timeout kills its worker process, and the client polls
with backoff.
"""

import json
import os
import time

import pytest

from repro.api import RunSpec, Session, SystematicStrategy
from repro.api.executor import ResultCache
from repro.reliability import (
    BatchExecutionError,
    BatchReport,
    FaultInjector,
    FaultPlan,
    FaultRule,
    InjectedFault,
    RetryPolicy,
    SpecFailure,
    classify_transient,
    install_plan,
    run_with_retry,
)
from repro.store import ArtifactCorruptionWarning, ArtifactStore


@pytest.fixture(autouse=True)
def isolated_store(tmp_path, monkeypatch):
    monkeypatch.delenv("REPRO_BACKEND", raising=False)
    monkeypatch.setenv("REPRO_ARTIFACT_DIR", str(tmp_path / "artifacts"))
    monkeypatch.setenv("REPRO_QUEUE_DIR", str(tmp_path / "queue"))


def _micro_spec(**changes) -> RunSpec:
    spec = RunSpec(
        benchmark="micro.syn",
        strategy=SystematicStrategy(unit_size=25, n_init=30, max_rounds=1,
                                    detailed_warming=50),
        epsilon=0.5,
    )
    return spec.with_(**changes) if changes else spec


# ----------------------------------------------------------------------
# FaultInjector
# ----------------------------------------------------------------------
class TestFaultPlan:
    def test_rule_validation(self):
        with pytest.raises(ValueError, match="unknown fault site"):
            FaultRule(site="nope", kind="raise")
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultRule(site="store.read", kind="nope")
        with pytest.raises(ValueError, match="probability"):
            FaultRule(site="store.read", kind="raise", probability=1.5)
        with pytest.raises(ValueError, match="unknown fault-rule field"):
            FaultRule.from_dict({"site": "store.read", "kind": "raise",
                                 "tires": 3})

    def test_plan_round_trip_and_env_parsing(self, tmp_path, monkeypatch):
        plan = FaultPlan(rules=[FaultRule(site="pool.task", kind="crash")],
                         seed=3, state_dir=str(tmp_path))
        parsed = FaultPlan.from_raw(plan.to_json())
        assert parsed.to_dict() == plan.to_dict()
        path = tmp_path / "plan.json"
        path.write_text(plan.to_json())
        assert FaultPlan.from_raw(str(path)).to_dict() == plan.to_dict()

    def test_env_plan_activates_and_caches(self, monkeypatch):
        from repro.reliability.faults import active_injector

        assert active_injector() is None
        plan = FaultPlan(rules=[FaultRule(site="store.read", kind="raise")])
        monkeypatch.setenv("REPRO_FAULT_PLAN", plan.to_json())
        injector = active_injector()
        assert injector is not None
        assert active_injector() is injector  # cached on the raw string


class TestFaultInjector:
    def test_probability_draws_are_deterministic(self):
        plan = FaultPlan(rules=[FaultRule(site="store.read", kind="raise",
                                          probability=0.5, times=None)],
                         seed=11)

        def firings(injector):
            out = []
            for i in range(40):
                try:
                    injector.fire("store.read", f"key{i}")
                    out.append(False)
                except InjectedFault:
                    out.append(True)
            return out

        first = firings(FaultInjector(plan))
        second = firings(FaultInjector(plan))
        assert first == second
        assert any(first) and not all(first)
        other = firings(FaultInjector(FaultPlan(rules=plan.rules, seed=12)))
        assert other != first  # the seed matters

    def test_match_and_times_budget(self):
        plan = FaultPlan(rules=[FaultRule(site="store.read", kind="raise",
                                          match="target", times=2)])
        injector = FaultInjector(plan)
        injector.fire("store.read", "someone-else")  # no match, no fire
        injector.fire("store.write", "target")       # wrong site
        for _ in range(2):
            with pytest.raises(InjectedFault):
                injector.fire("store.read", "a-target-key")
        injector.fire("store.read", "a-target-key")  # budget exhausted

    def test_shared_budget_spans_injectors(self, tmp_path):
        plan = FaultPlan(rules=[FaultRule(site="store.read", kind="raise",
                                          scope="shared", times=1)],
                         state_dir=str(tmp_path / "fuses"))
        with pytest.raises(InjectedFault):
            FaultInjector(plan).fire("store.read", "k")
        # A brand-new injector (a respawned worker) sees the burnt fuse.
        FaultInjector(plan).fire("store.read", "k")

    def test_oserror_kind_carries_real_errno(self):
        import errno

        plan = FaultPlan(rules=[FaultRule(site="store.write", kind="oserror",
                                          errno_name="ENOSPC")])
        with pytest.raises(OSError) as info:
            FaultInjector(plan).fire("store.write", "k")
        assert info.value.errno == errno.ENOSPC

    def test_corrupt_flips_one_byte_deterministically(self):
        plan = FaultPlan(rules=[FaultRule(site="store.write",
                                          kind="corrupt", times=None)])
        data = b'{"value": 123}'
        first = FaultInjector(plan).corrupt("store.write", "k", data)
        second = FaultInjector(plan).corrupt("store.write", "k", data)
        assert first == second
        assert first != data
        assert sum(a != b for a, b in zip(first, data)) == 1
        # XOR 0xFF of an ASCII byte is never valid UTF-8.
        with pytest.raises(UnicodeDecodeError):
            first.decode()

    def test_install_plan_overrides_and_clears(self):
        from repro.reliability.faults import active_injector, clear_plan

        injector = install_plan({"rules": [{"site": "store.read",
                                            "kind": "raise"}]})
        assert active_injector() is injector
        clear_plan()
        assert active_injector() is None


# ----------------------------------------------------------------------
# RetryPolicy
# ----------------------------------------------------------------------
class TestRetryPolicy:
    def test_classification(self):
        assert classify_transient(OSError(5, "io")) is True
        assert classify_transient(TimeoutError()) is True
        assert classify_transient(ConnectionError()) is True
        assert classify_transient(InjectedFault("x")) is True
        assert classify_transient(InjectedFault("x", transient=False)) is False
        assert classify_transient(ValueError("bad")) is False
        assert classify_transient(KeyError("bad")) is False
        assert classify_transient(MemoryError()) is False

    def test_should_retry_respects_budget_and_class(self):
        policy = RetryPolicy(max_attempts=3)
        assert policy.should_retry(OSError(5, "io"), 1)
        assert policy.should_retry(OSError(5, "io"), 2)
        assert not policy.should_retry(OSError(5, "io"), 3)
        assert not policy.should_retry(ValueError(), 1)

    def test_backoff_grows_capped_and_deterministic(self):
        policy = RetryPolicy(base_delay=0.1, max_delay=0.5, seed=1)
        d1, d2 = policy.delay("k", 1), policy.delay("k", 2)
        assert 0.1 <= d1 < 0.2  # base * jitter[1,2)
        assert d1 < d2
        assert policy.delay("k", 10) == 0.5  # capped
        assert policy.delay("k", 1) == d1  # deterministic
        assert policy.delay("other", 1) != d1  # decorrelated by key

    def test_from_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_MAX_ATTEMPTS", "5")
        assert RetryPolicy.from_env().max_attempts == 5
        monkeypatch.setenv("REPRO_MAX_ATTEMPTS", "bogus")
        with pytest.raises(ValueError, match="REPRO_MAX_ATTEMPTS"):
            RetryPolicy.from_env()

    def test_run_with_retry_counts_attempts(self):
        calls = []

        def flaky():
            calls.append(1)
            if len(calls) < 3:
                raise OSError(5, "flaky disk")
            return "done"

        value, attempts = run_with_retry(
            flaky, "k", RetryPolicy(max_attempts=3, base_delay=0),
            sleep=lambda s: None)
        assert (value, attempts) == ("done", 3)

        with pytest.raises(ValueError):
            run_with_retry(lambda: (_ for _ in ()).throw(ValueError("no")),
                           "k", RetryPolicy(max_attempts=3, base_delay=0),
                           sleep=lambda s: None)


# ----------------------------------------------------------------------
# BatchReport
# ----------------------------------------------------------------------
#: A spec that fails permanently in its pool worker under ``_fail_bad``
#: (an invalid spec can no longer be built, so the failure is injected).
_BAD = _micro_spec(benchmark="gzip.syn")


def _fail_bad(use_cache: bool = False) -> Session:
    """A two-worker pool session whose worker raises a permanent fault
    for every ``_BAD`` task (a batch needs two specs to use the pool)."""
    install_plan({"rules": [{"site": "pool.task", "kind": "raise",
                             "match": "gzip.syn", "times": None,
                             "transient": False}]})
    return Session(use_cache=use_cache, backend="local-pool", max_workers=2)


class TestBatchReport:
    def test_partial_failure_contract(self):
        good = _micro_spec()
        bad = _BAD
        report = _fail_bad().run_batch_report([good, bad])
        assert len(report) == 2 and not report.ok
        assert len(report.completed) == 1
        (failure,) = report.failures
        assert failure.spec == bad
        assert failure.error_type == "InjectedFault"
        assert failure.transient is False
        assert report.result_for(bad) is failure
        with pytest.raises(BatchExecutionError) as info:
            report.results
        assert len(info.value.report.completed) == 1

    def test_run_batch_raises_but_carries_report(self):
        session = _fail_bad()
        with pytest.raises(BatchExecutionError) as info:
            session.run_batch([_micro_spec(), _BAD])
        assert len(info.value.report.completed) == 1
        assert "gzip.syn" in str(info.value)

    def test_round_trip(self):
        report = _fail_bad().run_batch_report([_micro_spec(), _BAD])
        clone = BatchReport.from_dict(report.to_dict())
        assert clone.to_dict() == report.to_dict()
        assert clone.failures[0].row() == report.failures[0].row()

    def test_failed_specs_are_not_cached(self):
        session = _fail_bad(use_cache=True)
        report = session.run_batch_report([_micro_spec(), _BAD])
        assert not report.ok
        assert session.executor.cache.get(_micro_spec()) is not None
        assert session.executor.cache.get(_BAD) is None


# ----------------------------------------------------------------------
# Store integration: corruption is quarantined, never served
# ----------------------------------------------------------------------
class TestStoreFaults:
    def test_corrupt_framed_write_quarantined_on_read(self, tmp_path):
        install_plan({"rules": [{"site": "store.write", "kind": "corrupt"}]})
        store = ArtifactStore()
        path = store.path("checkpoint", "blob.ckpt")
        store.write_path(path, b"payload-bytes", checksum=True)
        with pytest.warns(ArtifactCorruptionWarning):
            assert store.read_path(path) is None
        assert not path.exists()  # moved into quarantine/
        assert list(store.quarantine_dir.iterdir())

    def test_corrupt_read_of_framed_blob_never_served(self):
        install_plan({"rules": [{"site": "store.read", "kind": "corrupt",
                                 "times": None}]})
        store = ArtifactStore()
        path = store.path("checkpoint", "blob.ckpt")
        store.write_path(path, b"payload-bytes", checksum=True)
        with pytest.warns(ArtifactCorruptionWarning):
            assert store.read_path(path) is None

    def test_corrupt_result_cache_entry_is_a_miss(self):
        install_plan({"rules": [{"site": "store.write", "kind": "corrupt",
                                 "match": ".json"}]})
        spec = _micro_spec()
        session = Session()
        result = session.run(spec)  # computed, cached corruptly
        install_plan(None)
        cache = ResultCache()
        assert cache.get(spec) is None  # corrupt entry: miss, not garbage
        rerun = Session().run(spec)
        assert rerun.estimates_dict() == result.estimates_dict()

    def test_oserror_on_cache_read_degrades_to_miss(self):
        spec = _micro_spec()
        golden = Session(use_cache=False).run(spec)
        install_plan({"rules": [{"site": "store.read", "kind": "oserror",
                                 "times": None}]})
        result = Session().run(spec)  # every cache read EIOs: recompute
        assert result.estimates_dict() == golden.estimates_dict()


# ----------------------------------------------------------------------
# Backends under faults
# ----------------------------------------------------------------------
class TestSerialBackendRetry:
    def test_transient_error_is_retried(self, monkeypatch):
        import repro.api.executor as executor_module
        from repro.backends.local import SerialBackend

        spec = _micro_spec()
        real = executor_module.execute_spec
        calls = []

        def flaky(s):
            calls.append(1)
            if len(calls) == 1:
                raise OSError(5, "transient I/O")
            return real(s)

        monkeypatch.setattr(executor_module, "execute_spec", flaky)
        backend = SerialBackend(retry=RetryPolicy(max_attempts=3,
                                                  base_delay=0))
        (outcome,) = backend.run_specs([spec])
        assert not isinstance(outcome, SpecFailure)
        assert len(calls) == 2

    def test_permanent_error_fails_once(self, monkeypatch):
        import repro.api.executor as executor_module
        from repro.backends.local import SerialBackend

        calls = []

        def broken(s):
            calls.append(1)
            raise ValueError("deterministically bad")

        monkeypatch.setattr(executor_module, "execute_spec", broken)
        backend = SerialBackend(retry=RetryPolicy(max_attempts=3,
                                                  base_delay=0))
        (outcome,) = backend.run_specs([_micro_spec()])
        assert isinstance(outcome, SpecFailure)
        assert outcome.error_type == "ValueError"
        assert len(calls) == 1  # permanent errors are not retried


class TestLocalPoolSurvivesWorkerDeath:
    def test_sigkilled_worker_does_not_cost_the_batch(self, tmp_path,
                                                      monkeypatch):
        """Satellite regression: one SIGKILLed pool worker mid-batch.

        The ``kill`` fault SIGKILLs the first pool worker to pick up a
        task (shared fuse: exactly one death across all processes).  The
        batch must still complete every spec — the broken pool is
        respawned and only unfinished specs are resubmitted.
        """
        from repro.backends.local import LocalPoolBackend

        plan = FaultPlan(
            rules=[FaultRule(site="pool.task", kind="kill",
                             scope="shared", times=1)],
            state_dir=str(tmp_path / "fuses"))
        monkeypatch.setenv("REPRO_FAULT_PLAN", plan.to_json())

        specs = [_micro_spec(seed=seed) for seed in range(4)]
        backend = LocalPoolBackend(
            max_workers=2, retry=RetryPolicy(max_attempts=3, base_delay=0))
        outcomes = backend.run_specs(specs)
        assert len(outcomes) == len(specs)
        assert not any(isinstance(o, SpecFailure) for o in outcomes), [
            o.row() for o in outcomes if isinstance(o, SpecFailure)]

        monkeypatch.delenv("REPRO_FAULT_PLAN")
        golden = Session(use_cache=False).run_batch(specs)
        assert [o.estimates_dict() for o in outcomes] \
            == [g.estimates_dict() for g in golden]

    def test_spec_that_always_kills_exhausts_budget(self, tmp_path,
                                                    monkeypatch):
        from repro.backends.local import LocalPoolBackend

        plan = FaultPlan(rules=[FaultRule(site="pool.task", kind="crash",
                                          times=None)])
        monkeypatch.setenv("REPRO_FAULT_PLAN", plan.to_json())
        specs = [_micro_spec(seed=seed) for seed in range(2)]
        backend = LocalPoolBackend(
            max_workers=2, retry=RetryPolicy(max_attempts=2, base_delay=0))
        outcomes = backend.run_specs(specs)
        assert all(isinstance(o, SpecFailure) for o in outcomes)
        assert all(o.error_type == "BrokenProcessPool" for o in outcomes)
        assert all(o.attempts == 2 for o in outcomes)
        assert all(o.transient for o in outcomes)


class TestQueueWorkerRetry:
    def test_transient_worker_fault_retries_in_place(self, monkeypatch):
        """A transient in-worker fault requeues the job and succeeds."""
        from repro.backends import FileWorkQueue, run_worker

        install_plan({"rules": [{"site": "worker.execute", "kind": "raise",
                                 "times": 1}]})
        queue = FileWorkQueue()
        spec = _micro_spec()
        name = queue.submit(spec, use_cache=False)
        run_worker(poll=0.01, max_idle=0.5,
                   retry=RetryPolicy(max_attempts=3, base_delay=0))
        state, record = queue.result(name)
        assert state == "done", record

    def test_exhausted_transient_budget_fails_with_detail(self):
        from repro.backends import FileWorkQueue, run_worker

        install_plan({"rules": [{"site": "worker.execute", "kind": "raise",
                                 "times": None}]})
        queue = FileWorkQueue()
        name = queue.submit(_micro_spec(), use_cache=False)
        run_worker(poll=0.01, max_idle=0.5,
                   retry=RetryPolicy(max_attempts=2, base_delay=0))
        state, record = queue.result(name)
        assert state == "failed"
        assert record["error_type"] == "InjectedFault"
        assert record["attempts"] == 2
        assert record["transient"] is True


# ----------------------------------------------------------------------
# Queue and server-job gc
# ----------------------------------------------------------------------
class TestQueueGC:
    def test_ttl_prunes_only_terminal_states(self):
        from repro.backends import FileWorkQueue

        queue = FileWorkQueue()
        queue.ensure_dirs()
        old = time.time() - 10 * 86400
        for state in ("pending", "claimed", "done", "failed"):
            path = queue._path(state, f"job-{state}")
            path.write_text("{}")
            os.utime(path, (old, old))
        (queue._dir("done") / "litter.tmp").write_text("")

        dry = queue.gc(max_age_days=7, dry_run=True)
        names = {p.name for p in dry}
        assert names == {"job-done.json", "job-failed.json", "litter.tmp"}
        assert all(p.exists() for p in dry)  # dry run deleted nothing

        removed = queue.gc(max_age_days=7)
        assert {p.name for p in removed} == names
        assert queue._path("pending", "job-pending").exists()
        assert queue._path("claimed", "job-claimed").exists()
        assert not queue._path("done", "job-done").exists()

    def test_store_gc_cli_sweeps_queue_records(self, capsys):
        from repro.backends import FileWorkQueue
        from repro.cli import main

        queue = FileWorkQueue()
        queue.ensure_dirs()
        path = queue._path("done", "ancient")
        path.write_text("{}")
        old = time.time() - 10 * 86400
        os.utime(path, (old, old))
        assert main(["store", "gc", "--max-age-days", "7"]) == 0
        out = capsys.readouterr().out
        assert "queue record(s)" in out
        assert not path.exists()

    def test_jobs_gc_dry_run(self, capsys):
        from repro.cli import main
        from repro.server.jobs import jobs_queue

        queue = jobs_queue()
        queue.complete("run-x", {}, {}, job={"kind": "run", "payload": {},
                                              "submitted_at": 1.0})
        path = queue.directory / "done" / "run-x.json"
        old = time.time() - 10 * 86400
        os.utime(path, (old, old))
        assert main(["store", "gc", "--max-age-days", "7",
                     "--dry-run"]) == 0
        out = capsys.readouterr().out
        assert "would remove" in out and "run-x.json" in out
        assert queue.result("run-x") is not None
        assert main(["store", "gc", "--max-age-days", "7"]) == 0
        assert queue.result("run-x") is None


# ----------------------------------------------------------------------
# Server: job retries, partial failure surfaced, killable timeouts
# ----------------------------------------------------------------------
class TestServerReliability:
    def test_transient_server_job_fault_is_retried(self):
        from repro.server import create_app
        from repro.server.client import ReproClient

        spec = _micro_spec()
        golden = Session(use_cache=False).run(spec).estimates_dict()
        install_plan({"rules": [{"site": "server.job", "kind": "raise",
                                 "times": 1}]})
        app = create_app(workers=1, use_cache=False)
        client = ReproClient(app=app)
        try:
            job = client.submit_run(spec)
            record = client.wait(job["id"], timeout=60.0)
            assert record["status"] == "done"
            done = app.queue.work_queue.result(job["id"])[1]
            assert done["job"]["attempts"] == 1  # one transient retry
            result = client.run_result(job["id"])["result"]
            assert (json.dumps(result, sort_keys=True)
                    == json.dumps(golden, sort_keys=True))
        finally:
            app.close()

    def test_permanent_server_job_fault_fails_then_resubmits(self):
        from repro.server import create_app
        from repro.server.client import ReproClient, ServerError

        install_plan({"rules": [{"site": "server.job", "kind": "raise",
                                 "transient": False, "times": 1}]})
        app = create_app(workers=1)
        client = ReproClient(app=app)
        try:
            job = client.submit_run(_micro_spec())
            with pytest.raises(ServerError):
                client.wait(job["id"], timeout=60.0)
            record = client.job(job["id"])
            assert record["status"] == "failed"
            assert "InjectedFault" in record["error"]
            with pytest.raises(ServerError) as exc:
                client.run_result(job["id"])
            assert exc.value.status == 409
            retried = client.submit_run(_micro_spec())
            assert retried["id"] == job["id"]
            assert retried["created"] is True
            assert client.wait(job["id"], timeout=60.0)["status"] == "done"
        finally:
            app.close()

    def test_queue_backend_timeout_kills_the_job_worker(self, monkeypatch):
        from repro.backends.queue import QueueBackend
        from repro.server import create_app
        from repro.server.client import ReproClient, ServerError

        spawned = []
        real_spawn = QueueBackend._spawn_workers

        def recording_spawn(self, queue, count):
            processes = real_spawn(self, queue, count)
            spawned.extend(processes)
            return processes

        monkeypatch.setattr(QueueBackend, "_spawn_workers", recording_spawn)
        # The spawned worker inherits the plan and stalls mid-job.
        plan = FaultPlan(rules=[FaultRule(site="worker.execute",
                                          kind="delay", delay=60.0)])
        monkeypatch.setenv("REPRO_FAULT_PLAN", plan.to_json())
        app = create_app(workers=1, use_cache=False,
                         backend=QueueBackend(workers=1, poll=0.05,
                                              timeout=1.0))
        client = ReproClient(app=app)
        try:
            job = client.submit_run(_micro_spec())
            with pytest.raises(ServerError):
                client.wait(job["id"], timeout=60.0)
            record = client.job(job["id"])
            assert record["status"] == "failed"
            (envelope,) = record["failures"]
            assert envelope["error_type"] == "TimeoutError"
        finally:
            app.close()
        assert len(spawned) == 1
        assert all(process.poll() is not None for process in spawned)

    def test_failed_batch_job_carries_failure_envelopes(self, monkeypatch):
        import repro.server.jobs as jobs_module
        from repro.server import create_app
        from repro.server.client import ReproClient, ServerError

        spec = _micro_spec()

        def failing_run(session, run_spec):
            report = BatchReport(entries=[SpecFailure(
                spec=run_spec, error="simulated spec failure",
                error_type="OSError", attempts=3, transient=True)])
            raise BatchExecutionError(report)

        monkeypatch.setattr(jobs_module, "execute_run", failing_run)
        app = create_app(workers=1)
        client = ReproClient(app=app)
        try:
            job = client.submit_run(spec)
            with pytest.raises(ServerError):
                client.wait(job["id"], timeout=30.0)
            record = client.job(job["id"])
            assert record["status"] == "failed"
            (envelope,) = record["failures"]
            assert envelope["error_type"] == "OSError"
            assert envelope["attempts"] == 3
            assert envelope["spec"] == spec.to_dict()
        finally:
            app.queue.shutdown()

    def test_client_wait_backs_off_exponentially(self, monkeypatch):
        from repro.server import client as client_module

        polls = []

        class FakeClient(client_module.ReproClient):
            def job(self, job_id):
                return {"status": "running" if len(sleeps) < 6
                        else "done"}

        sleeps = []
        monkeypatch.setattr(client_module.time, "sleep",
                            lambda s: sleeps.append(s))
        client = FakeClient(app=object(), poll_interval=0.05, poll_max=0.4)
        record = client.wait("jid", timeout=60.0)
        assert record["status"] == "done"
        assert sleeps[0] == pytest.approx(0.05)
        assert sleeps == sorted(sleeps)  # non-decreasing
        assert max(sleeps) <= 0.4 + 1e-9
        assert sleeps[3] > sleeps[0]
