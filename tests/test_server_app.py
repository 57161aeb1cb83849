"""In-process WSGI tests for every repro.server endpoint.

The app object returned by ``create_app`` is driven directly through
:class:`ReproClient`'s WSGI transport — no sockets — which is the same
path the CI server-smoke job exercises.  Covers the submit → poll →
fetch flow for both RunSpecs and registered studies, the
duplicate-submission cache-hit path (one simulation, two identical
``estimates_dict`` payloads), structured validation 400s, and the
introspection endpoints.
"""

import json
import threading

import pytest

from repro.api import RunSpec, StudyContext, SystematicStrategy, to_jsonable
from repro.api.study import STUDIES, Study, register_study
from repro.server import ServerConfig, ServerError, create_app, make_http_server
from repro.server import jobs as server_jobs
from repro.server.client import ReproClient


@pytest.fixture(autouse=True)
def isolated_dirs(tmp_path, monkeypatch):
    """Keep server runs out of the repository-level cache directories."""
    monkeypatch.setenv("REPRO_ARTIFACT_DIR", str(tmp_path / "artifacts"))
    yield tmp_path


#: A cheap systematic spec payload on the micro benchmark.
MICRO_PAYLOAD = {
    "benchmark": "micro.syn",
    "epsilon": 0.5,
    "strategy": {"name": "systematic",
                 "params": {"unit_size": 25, "n_init": 40, "max_rounds": 1,
                            "detailed_warming": 64}},
}

MICRO_SPEC = RunSpec(
    benchmark="micro.syn", epsilon=0.5,
    strategy=SystematicStrategy(unit_size=25, n_init=40, max_rounds=1,
                                detailed_warming=64))


@pytest.fixture()
def app():
    application = create_app(ServerConfig(workers=2, queue_depth=8))
    yield application
    application.close()


@pytest.fixture()
def client(app):
    return ReproClient(app=app)


@pytest.fixture()
def micro_study():
    """A tiny registered study the server can run by name."""

    def grid(ctx, epsilon=0.5):
        return [MICRO_SPEC.with_(epsilon=epsilon)]

    def analyze(ctx, results, epsilon=0.5):
        return {"cpi": results[0].estimate_mean,
                "report": f"micro CPI {results[0].estimate_mean:.3f}"}

    study = Study(name="server-micro", title="server test study",
                  grid=grid, analyze=analyze,
                  tidy=lambda data: [{"cpi": data["cpi"]}])
    register_study(study)
    yield study
    STUDIES.pop(study.name, None)


class TestIntrospection:
    def test_index_lists_endpoints(self, client):
        payload = client.request("GET", "/")
        assert any("POST ^/runs$" in entry for entry in payload["endpoints"])

    def test_healthz(self, client):
        health = client.health()
        assert health["status"] == "ok"
        assert health["workers"] == 2
        assert health["jobs"] == {"queued": 0, "running": 0,
                                  "done": 0, "failed": 0}

    def test_studies_registry_listing(self, client):
        names = {row["name"] for row in client.studies()}
        assert {"fig6", "fig7", "table6"} <= names

    def test_cache_stats_empty(self, client):
        stats = client.cache_stats()
        assert stats["entries"] == 0
        assert stats["hits"] == 0 and stats["misses"] == 0
        assert stats["enabled"] is True

    def test_unknown_route_404(self, client):
        with pytest.raises(ServerError) as exc:
            client.request("GET", "/nope")
        assert exc.value.status == 404

    def test_method_not_allowed_405(self, client):
        with pytest.raises(ServerError) as exc:
            client.request("POST", "/healthz", {})
        assert exc.value.status == 405


class TestRunJobs:
    def test_submit_poll_fetch(self, client):
        job = client.submit_run(MICRO_PAYLOAD)
        assert job["id"].startswith("run-")
        assert job["created"] is True
        record = client.wait(job["id"], timeout=120)
        assert record["status"] == "done"
        assert record["has_result"] is True
        payload = client.run_result(job["id"])
        assert payload["cached"] is False
        assert payload["result"]["estimate_mean"] > 0
        # The estimates view matches the library's estimates_dict.
        from repro.api import execute_spec

        local = execute_spec(MICRO_SPEC)
        assert payload["result"] == local.estimates_dict()

    def test_result_views(self, client):
        job = client.submit_run(MICRO_PAYLOAD)
        client.wait(job["id"], timeout=120)
        full = client.run_result(job["id"], view="full")["result"]
        summary = client.run_result(job["id"], view="summary")["result"]
        assert "wall_seconds" in full  # estimates view strips this
        assert summary["benchmark"] == "micro.syn"
        with pytest.raises(ServerError) as exc:
            client.run_result(job["id"], view="everything")
        assert exc.value.status == 400

    def test_duplicate_submission_single_simulation(self, client,
                                                    monkeypatch):
        calls = []
        real = server_jobs.execute_run

        def counting(session, spec):
            calls.append(spec.key())
            return real(session, spec)

        monkeypatch.setattr(server_jobs, "execute_run", counting)
        first = client.submit_run(MICRO_PAYLOAD)
        client.wait(first["id"], timeout=120)
        second = client.submit_run(MICRO_PAYLOAD)
        # Same content hash -> same job; nothing new simulated.
        assert second["id"] == first["id"]
        assert second["created"] is False
        a = client.run_result(first["id"])["result"]
        b = client.run_result(second["id"])["result"]
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)
        assert len(calls) == 1

    def test_cross_restart_cache_hit(self, client, app, tmp_path,
                                     monkeypatch):
        """A fresh jobs dir still answers from the shared result cache."""
        job = client.submit_run(MICRO_PAYLOAD)
        client.wait(job["id"], timeout=120)
        app.close()
        # New service instance, new client, same cache dir, empty jobs dir.
        def fail(session, spec):  # pragma: no cover - must not run
            raise AssertionError("cache hit should not simulate")

        monkeypatch.setattr(server_jobs, "execute_run", fail)
        app2 = create_app(ServerConfig(workers=1,
                                       jobs_dir=tmp_path / "jobs2"))
        try:
            client2 = ReproClient(app=app2)
            resubmitted = client2.submit_run(MICRO_PAYLOAD)
            assert resubmitted["status"] == "done"
            assert resubmitted["cached"] is True
            payload = client2.run_result(resubmitted["id"])
            assert payload["cached"] is True
            assert payload["result"]["estimate_mean"] > 0
            stats = client2.cache_stats()
            assert stats["hits"] == 1 and stats["entries"] == 1
        finally:
            app2.close()

    def test_unknown_job_404(self, client):
        with pytest.raises(ServerError) as exc:
            client.job("run-doesnotexist")
        assert exc.value.status == 404

    def test_result_of_queued_job_is_202(self, tmp_path):
        app = create_app(ServerConfig(workers=0))  # nothing drains
        try:
            client = ReproClient(app=app)
            job = client.submit_run(MICRO_PAYLOAD)
            assert job["status"] == "queued"
            pending = client.run_result(job["id"])
            assert pending["status"] == "queued"  # 202 body is the record
        finally:
            app.close()

    def test_jobs_listing_and_filter(self, client):
        job = client.submit_run(MICRO_PAYLOAD)
        client.wait(job["id"], timeout=120)
        assert any(r["id"] == job["id"] for r in client.jobs())
        assert any(r["id"] == job["id"] for r in client.jobs("done"))
        assert client.jobs("failed") == []
        with pytest.raises(ServerError) as exc:
            client.jobs("exploded")
        assert exc.value.status == 400


class TestValidation:
    def test_malformed_json_400(self, app):
        client = ReproClient(app=app)
        status, _, body = client._transport.request(
            "POST", "/runs", b"{not json")
        assert status == 400
        assert "malformed JSON" in json.loads(body)["error"]

    def test_oversized_body_413(self, tmp_path):
        app = create_app(ServerConfig(workers=0, max_body_bytes=64))
        try:
            client = ReproClient(app=app)
            with pytest.raises(ServerError) as exc:
                client.submit_run({"benchmark": "micro.syn",
                                   "padding": "x" * 200})
            assert exc.value.status == 413
        finally:
            app.close()

    def test_unknown_names_are_structured_400s(self, client):
        with pytest.raises(ServerError) as exc:
            client.submit_run({"benchmark": "gcc", "machine": "4-way",
                               "strategy": {"name": "magic"}})
        assert exc.value.status == 400
        errors = {e["field"]: e["message"] for e in
                  exc.value.payload["errors"]}
        assert "available" in errors["benchmark"]
        assert "available" in errors["machine"]
        assert "available" in errors["strategy.name"]

    def test_unknown_spec_field_and_bad_types(self, client):
        with pytest.raises(ServerError) as exc:
            client.submit_run({"benchmark": "micro.syn", "wat": 1,
                               "scale": "big", "seed": 1.5})
        fields = {e["field"] for e in exc.value.payload["errors"]}
        assert {"wat", "scale", "seed"} <= fields

    def test_bad_strategy_params(self, client):
        with pytest.raises(ServerError) as exc:
            client.submit_run({"benchmark": "micro.syn",
                               "strategy": {"name": "systematic",
                                            "params": {"bogus": 1}}})
        errors = exc.value.payload["errors"]
        assert errors[0]["field"] == "strategy.params"
        assert "bogus" in errors[0]["message"]

    def test_nonpositive_epsilon_and_bad_confidence_400(self, client):
        with pytest.raises(ServerError) as exc:
            client.submit_run({"benchmark": "micro.syn", "epsilon": 0,
                               "confidence": 1.0})
        assert exc.value.status == 400
        errors = {e["field"]: e["message"] for e in
                  exc.value.payload["errors"]}
        assert "positive" in errors["epsilon"]
        assert "(0, 1)" in errors["confidence"]

    def test_negative_epsilon_400(self, client):
        with pytest.raises(ServerError) as exc:
            client.submit_run({"benchmark": "micro.syn", "epsilon": -0.05})
        assert exc.value.status == 400
        assert exc.value.payload["errors"][0]["field"] == "epsilon"

    def test_bad_adaptive_params_400(self, client):
        with pytest.raises(ServerError) as exc:
            client.submit_run({"benchmark": "micro.syn",
                               "strategy": {"name": "adaptive",
                                            "params": {"n_min": 1}}})
        assert exc.value.status == 400
        errors = exc.value.payload["errors"]
        assert errors[0]["field"] == "strategy.params"
        assert "n_min" in errors[0]["message"]

    def test_bad_metric_400_not_traceback(self, client):
        with pytest.raises(ServerError) as exc:
            client.submit_run({"benchmark": "micro.syn", "metric": "mips"})
        assert exc.value.status == 400

    def test_missing_benchmark(self, client):
        with pytest.raises(ServerError) as exc:
            client.submit_run({"scale": 0.2})
        assert exc.value.payload["errors"][0]["field"] == "benchmark"

    def test_unknown_study_and_param(self, client, micro_study):
        with pytest.raises(ServerError) as exc:
            client.submit_study("not-a-study")
        assert exc.value.status == 400
        assert exc.value.payload["errors"][0]["field"] == "study"
        with pytest.raises(ServerError) as exc:
            client.submit_study(micro_study.name, {"volume": 11})
        assert exc.value.payload["errors"][0]["field"] == "params.volume"


class TestHTTPTransport:
    """The real socket path: what `repro-smarts serve` actually runs."""

    def test_submit_poll_fetch_over_http(self, app):
        server = make_http_server(app, port=0, quiet=True)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            host, port = server.server_address[:2]
            client = ReproClient(f"http://{host}:{port}")
            assert client.health()["status"] == "ok"
            job = client.submit_run(MICRO_PAYLOAD)
            client.wait(job["id"], timeout=120)
            assert client.run_result(job["id"])["result"]["estimate_mean"] > 0
            with pytest.raises(ServerError) as exc:
                client.request("GET", "/nope")
            assert exc.value.status == 404
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=10)

    def test_create_app_rejects_unknown_override(self):
        with pytest.raises(TypeError):
            create_app(turbo=True)


class TestStudyJobs:
    def test_submit_rows_report_and_local_equivalence(self, client,
                                                      micro_study):
        job = client.submit_study(micro_study.name, {"epsilon": 0.4})
        assert job["id"].startswith("study-")
        client.wait(job["id"], timeout=120)

        rows = client.study_rows(job["id"])
        report = client.study_report(job["id"])
        assert "micro CPI" in report

        # Byte-equivalence with Session.run_study run locally.
        from repro.api import Session

        local = Session().run_study(micro_study, ctx=StudyContext(),
                                    params={"epsilon": 0.4})
        assert (json.dumps(to_jsonable(local.rows), sort_keys=True)
                == json.dumps(rows, sort_keys=True))
        assert report == local.report

        csv_text = client.study_rows(job["id"], fmt="csv")
        assert csv_text.splitlines()[0] == "cpi"

    def test_duplicate_study_submission_dedupes(self, client, micro_study):
        first = client.submit_study(micro_study.name)
        second = client.submit_study(micro_study.name)
        assert first["id"] == second["id"]
        assert second["created"] is False
        # Different params -> different job.
        other = client.submit_study(micro_study.name, {"epsilon": 0.3})
        assert other["id"] != first["id"]
        client.wait(first["id"], timeout=120)
        client.wait(other["id"], timeout=120)

    def test_run_result_route_rejects_study_jobs(self, client, micro_study):
        job = client.submit_study(micro_study.name)
        client.wait(job["id"], timeout=120)
        with pytest.raises(ServerError) as exc:
            client.run_result(job["id"])
        assert exc.value.status == 404
        with pytest.raises(ServerError) as exc:
            client.study_rows(job["id"], fmt="xml")
        assert exc.value.status == 400
