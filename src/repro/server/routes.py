"""REST endpoints: the dispatch table and one handler per route.

Handlers are plain functions ``handler(app, request, **path_params) ->
Response``; the table at the bottom maps ``(method, path_regex)`` onto
them.  Everything JSON-shaped goes through :class:`Response.json`, study
reports render as ``text/plain``, and every error body carries an
``"error"`` string (plus structured ``"errors"`` for validation
failures).

Endpoint summary (see API.md for schemas):

=======  ==============================  =====================================
Method   Path                            Purpose
=======  ==============================  =====================================
GET      /                               service index
GET      /healthz                        liveness + job/queue counts
POST     /runs                           submit a RunSpec job
POST     /studies                        submit a registered-study job
GET      /jobs                           list jobs (``?status=`` filter)
GET      /jobs/<id>                      poll one job
GET      /runs/<id>/result               RunResult (``?view=estimates|full|
                                         summary``)
GET      /studies                        study registry listing
GET      /studies/<id>/rows              tidy rows (``?format=json|csv``)
GET      /studies/<id>/report            rendered text report
GET      /cache/stats                    result-cache introspection
=======  ==============================  =====================================
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field

from repro.api.spec import RunResult, SpecError
from repro.api.study import STUDIES
from repro.api.resultset import rows_to_csv
from repro.server.jobs import STATUS, QueueClosed, QueueFull
from repro.server.schemas import parse_run_payload, parse_study_payload

#: HTTP reason phrases for the statuses the service emits.
_REASONS = {
    200: "OK", 202: "Accepted", 400: "Bad Request", 404: "Not Found",
    405: "Method Not Allowed", 409: "Conflict", 413: "Payload Too Large",
    429: "Too Many Requests", 500: "Internal Server Error",
    503: "Service Unavailable",
}


@dataclass
class Response:
    """What a handler returns; the app renders it to WSGI."""

    status: int
    body: bytes
    content_type: str = "application/json"
    headers: list[tuple[str, str]] = field(default_factory=list)

    @classmethod
    def json(cls, status: int, payload, **kwargs) -> "Response":
        body = (json.dumps(payload, indent=2, sort_keys=True) + "\n").encode()
        return cls(status, body, **kwargs)

    @classmethod
    def text(cls, status: int, text: str) -> "Response":
        return cls(status, text.encode(), content_type="text/plain")

    @classmethod
    def error(cls, status: int, message: str, **extra) -> "Response":
        return cls.json(status, {"error": message, **extra})

    @property
    def status_line(self) -> str:
        return f"{self.status} {_REASONS.get(self.status, 'Unknown')}"


# ----------------------------------------------------------------------
# Handlers
# ----------------------------------------------------------------------
def handle_index(app, request) -> Response:
    return Response.json(200, {
        "service": "repro.server — SMARTS simulation-as-a-service",
        "endpoints": sorted({f"{method} {pattern.pattern}"
                             for method, pattern, _ in ROUTES}),
    })


def handle_health(app, request) -> Response:
    return Response.json(200, {
        "status": "shutting-down" if app.queue.closed else "ok",
        "workers": app.config.workers,
        "queue_depth": app.config.queue_depth,
        "jobs": app.queue.counts(),
    })


def handle_submit_run(app, request) -> Response:
    spec = parse_run_payload(request.json)
    record, created = app.queue.submit_run(spec)
    return Response.json(202 if created and record["status"] == "queued"
                         else 200, {**record, "created": created})


def handle_submit_study(app, request) -> Response:
    study, params = parse_study_payload(request.json)
    record, created = app.queue.submit_study(study, params)
    return Response.json(202 if created else 200,
                         {**record, "created": created})


def handle_jobs(app, request) -> Response:
    status = request.query.get("status")
    if status is not None and status not in STATUS.values():
        return Response.error(400, f"unknown status filter {status!r}")
    return Response.json(200, {
        "jobs": app.queue.jobs(status),
    })


def handle_job(app, request, job_id: str) -> Response:
    found = app.queue.lookup(job_id)
    if found is None:
        return Response.error(404, f"unknown job {job_id!r}")
    return Response.json(200, found[0])


def _finished_job(app, job_id: str, kind: str):
    """``(record, result)`` of the done job behind a result route, or
    the error Response."""
    found = app.queue.lookup(job_id)
    if found is None or found[0]["kind"] != kind:
        return Response.error(404, f"unknown {kind} job {job_id!r}")
    record = found[0]
    if record["status"] in ("queued", "running"):
        return Response.json(202, record)
    if record["status"] == "failed":
        return Response.error(409, f"job {job_id} failed",
                              detail=record["error"])
    return found


def handle_run_result(app, request, job_id: str) -> Response:
    found = _finished_job(app, job_id, "run")
    if isinstance(found, Response):
        return found
    record, data = found
    view = request.query.get("view", "estimates")
    if view not in ("estimates", "full", "summary"):
        return Response.error(400, f"unknown view {view!r}; "
                                   f"available: estimates, full, summary")
    result = RunResult.from_dict(data)
    if view == "estimates":
        payload = result.estimates_dict()
    elif view == "summary":
        payload = result.summary()
    else:
        payload = result.to_dict()
    return Response.json(200, {"id": job_id, "cached": record["cached"],
                               "view": view, "result": payload})


def handle_studies(app, request) -> Response:
    return Response.json(200, {
        "studies": [study.describe() for study in STUDIES.values()],
    })


def handle_study_rows(app, request, job_id: str) -> Response:
    found = _finished_job(app, job_id, "study")
    if isinstance(found, Response):
        return found
    result = found[1]
    fmt = request.query.get("format", "json")
    if fmt == "csv":
        return Response(200, rows_to_csv(result["rows"]).encode(),
                        content_type="text/csv")
    if fmt != "json":
        return Response.error(400, f"unknown format {fmt!r}; "
                                   f"available: json, csv")
    return Response.json(200, {"id": job_id, "study": result["study"],
                               "rows": result["rows"]})


def handle_study_report(app, request, job_id: str) -> Response:
    found = _finished_job(app, job_id, "study")
    if isinstance(found, Response):
        return found
    return Response.text(200, found[1].get("report", ""))


def handle_cache_stats(app, request) -> Response:
    cache = app.session.executor.cache
    stats = cache.stats()
    stats["hits"] = app.queue.hits
    stats["misses"] = app.queue.misses
    stats["artifact_store"] = cache.store.stats()
    return Response.json(200, stats)


#: (method, compiled path pattern, handler) dispatch table.
ROUTES = [
    ("GET", re.compile(r"^/$"), handle_index),
    ("GET", re.compile(r"^/healthz$"), handle_health),
    ("POST", re.compile(r"^/runs$"), handle_submit_run),
    ("POST", re.compile(r"^/studies$"), handle_submit_study),
    ("GET", re.compile(r"^/jobs$"), handle_jobs),
    ("GET", re.compile(r"^/jobs/(?P<job_id>[\w.-]+)$"), handle_job),
    ("GET", re.compile(r"^/runs/(?P<job_id>[\w.-]+)/result$"),
     handle_run_result),
    ("GET", re.compile(r"^/studies$"), handle_studies),
    ("GET", re.compile(r"^/studies/(?P<job_id>[\w.-]+)/rows$"),
     handle_study_rows),
    ("GET", re.compile(r"^/studies/(?P<job_id>[\w.-]+)/report$"),
     handle_study_report),
    ("GET", re.compile(r"^/cache/stats$"), handle_cache_stats),
]


def dispatch(app, request) -> Response:
    """Route one parsed request; 404/405/400/429/503 handled here."""
    path_methods = set()
    for method, pattern, handler in ROUTES:
        match = pattern.match(request.path)
        if match is None:
            continue
        if method != request.method:
            path_methods.add(method)
            continue
        try:
            return handler(app, request, **match.groupdict())
        except SpecError as exc:
            return Response.json(400, {"error": "validation failed",
                                       "errors": exc.errors})
        except QueueFull as exc:
            return Response.error(429, str(exc),
                                  queue_depth=app.config.queue_depth)
        except QueueClosed as exc:
            return Response.error(503, str(exc))
    if path_methods:
        response = Response.error(405, f"method {request.method} not "
                                       f"allowed on {request.path}")
        response.headers.append(("Allow", ", ".join(sorted(path_methods))))
        return response
    return Response.error(404, f"no route for {request.path}")
