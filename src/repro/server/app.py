"""The WSGI application factory and the stdlib HTTP server around it.

:func:`create_app` wires a :class:`~repro.api.session.Session` and a
:class:`~repro.server.jobs.JobQueue` (the server's job directory and
its worker threads) into one WSGI callable (:class:`ReproApp`).  The
object is importable and callable in-process — tests and
:class:`~repro.server.client.ReproClient` drive it without a socket —
and :func:`serve` mounts the same app on a threading ``wsgiref`` server
for real HTTP traffic (stdlib only, no new dependencies).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from socketserver import ThreadingMixIn
from urllib.parse import parse_qsl
from wsgiref.simple_server import WSGIRequestHandler, WSGIServer, make_server

from repro.api.session import Session
from repro.server.jobs import JobQueue
from repro.server.routes import Response, dispatch


@dataclass
class ServerConfig:
    """Everything :func:`create_app` / :func:`serve` can be told.

    ``cache_dir`` defaults to the artifact store's ``result`` namespace
    (``REPRO_ARTIFACT_DIR``).  ``jobs_dir`` is the server's job
    :class:`~repro.backends.queue.FileWorkQueue` directory, default
    ``<artifact root>/jobs``.  ``study_context`` overrides the
    process-wide :func:`~repro.api.study.default_context` for study jobs
    (used by tests to run miniature grids).  To bound a job's time, use
    ``backend=QueueBackend(timeout=...)``, which kills its worker process.
    """

    host: str = "127.0.0.1"
    port: int = 8023
    workers: int = 2
    queue_depth: int = 16
    cache_dir: str | Path | None = None
    jobs_dir: str | Path | None = None
    use_cache: bool = True
    max_body_bytes: int = 1 << 20
    study_context: object | None = None
    #: Executor backend for spec execution (name, class, or instance);
    #: None consults REPRO_BACKEND, then the automatic choice.
    backend: object | None = None


class _BadRequest(Exception):
    """Unparseable request body (rendered as HTTP 400/413)."""

    def __init__(self, status: int, message: str):
        self.status = status
        self.message = message
        super().__init__(message)


class Request:
    """The parsed slice of a WSGI environ the handlers consume."""

    def __init__(self, environ: dict, max_body_bytes: int):
        self.method = environ.get("REQUEST_METHOD", "GET").upper()
        self.path = environ.get("PATH_INFO", "/") or "/"
        self.query = dict(parse_qsl(environ.get("QUERY_STRING", "")))
        self.json = None
        if self.method in ("POST", "PUT"):
            try:
                length = int(environ.get("CONTENT_LENGTH") or 0)
            except ValueError:
                raise _BadRequest(400, "invalid Content-Length") from None
            if length > max_body_bytes:
                raise _BadRequest(
                    413, f"request body exceeds {max_body_bytes} bytes")
            body = environ["wsgi.input"].read(length) if length else b""
            if body:
                try:
                    self.json = json.loads(body)
                except ValueError as exc:
                    raise _BadRequest(
                        400, f"malformed JSON body: {exc}") from None


class ReproApp:
    """The WSGI callable: routes HTTP onto the job queue and session."""

    def __init__(self, config: ServerConfig):
        self.config = config
        self.session = Session(cache_dir=config.cache_dir,
                               use_cache=config.use_cache,
                               backend=config.backend)
        self.queue = JobQueue(
            session=self.session,
            directory=config.jobs_dir,
            workers=config.workers,
            queue_depth=config.queue_depth,
            study_context=config.study_context,
        )

    def __call__(self, environ, start_response):
        try:
            request = Request(environ, self.config.max_body_bytes)
            response = dispatch(self, request)
        except _BadRequest as exc:
            response = Response.error(exc.status, exc.message)
        except Exception as exc:  # noqa: BLE001 — last-resort 500
            response = Response.error(
                500, f"internal error: {type(exc).__name__}: {exc}")
        headers = [("Content-Type", response.content_type),
                   ("Content-Length", str(len(response.body)))]
        headers += response.headers
        start_response(response.status_line, headers)
        return [response.body]

    def close(self) -> None:
        """Graceful shutdown: drain queued jobs, join the workers."""
        self.queue.shutdown(wait=True)


def create_app(config: ServerConfig | None = None, **overrides) -> ReproApp:
    """App factory: build a ready-to-serve (or test) application.

    Keyword overrides are applied on top of ``config`` (or a default
    one), so ``create_app(workers=4, queue_depth=32)`` works without
    constructing a :class:`ServerConfig` first.
    """
    if config is None:
        config = ServerConfig()
    for key, value in overrides.items():
        if not hasattr(config, key):
            raise TypeError(f"unknown server config field {key!r}")
        setattr(config, key, value)
    return ReproApp(config)


class ThreadingWSGIServer(ThreadingMixIn, WSGIServer):
    """One thread per request on top of the stdlib WSGI server."""

    daemon_threads = True


class _QuietHandler(WSGIRequestHandler):
    """Request handler with access logging suppressed (``quiet=True``)."""

    def log_message(self, format, *args):  # noqa: A002 — stdlib signature
        pass


def make_http_server(app: ReproApp, host: str | None = None,
                     port: int | None = None, quiet: bool = False):
    """Bind the app to a threading HTTP server (port 0 = ephemeral)."""
    host = app.config.host if host is None else host
    port = app.config.port if port is None else port
    handler = _QuietHandler if quiet else WSGIRequestHandler
    return make_server(host, port, app, server_class=ThreadingWSGIServer,
                       handler_class=handler)


def serve(config: ServerConfig | None = None, **overrides) -> int:
    """Run the service until interrupted; returns a process exit code."""
    app = create_app(config, **overrides)
    server = make_http_server(app)
    host, port = server.server_address[:2]
    print(f"repro.server listening on http://{host}:{port} "
          f"({app.config.workers} workers, queue depth "
          f"{app.config.queue_depth}, cache "
          f"{app.session.executor.cache.directory})")
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("shutting down: finishing in-flight jobs ...")
    finally:
        server.server_close()
        app.close()
    return 0
