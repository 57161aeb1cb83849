"""repro.server — simulation-as-a-service in front of the Session layer.

A long-lived HTTP job service (stdlib WSGI, no new dependencies) that
accepts :class:`~repro.api.spec.RunSpec` and registered
:class:`~repro.api.study.Study` submissions as JSON, keeps them as jobs
in a bounded :class:`~repro.backends.queue.FileWorkQueue` directory
(``<artifact root>/jobs``) that worker threads drain with the shared
queue-worker loop into the existing
:class:`~repro.api.session.Session`, and serves results, tidy rows, and
rendered reports back over REST.  Because every run goes through the
spec-hash :class:`~repro.api.executor.ResultCache`, the cache acts as a
cross-client memo: identical submissions from different clients are
answered without simulating.

Entry points:

* :func:`create_app` — app factory; the returned WSGI app is callable
  in-process (tests, :class:`~repro.server.client.ReproClient`).
* :func:`serve` — mount the app on a threading HTTP server
  (``repro-smarts serve`` from the CLI).
* :class:`~repro.server.client.ReproClient` — submit/poll/fetch helper
  with HTTP and in-process transports.

See the "Server" section of API.md for endpoints, schemas, and the job
lifecycle.
"""

from repro.server.app import (
    ReproApp,
    ServerConfig,
    create_app,
    make_http_server,
    serve,
)
from repro.server.client import ReproClient, ServerError
from repro.server.jobs import JobQueue, QueueClosed, QueueFull
from repro.server.schemas import parse_run_payload, parse_study_payload

__all__ = [
    "JobQueue",
    "QueueClosed",
    "QueueFull",
    "ReproApp",
    "ReproClient",
    "ServerConfig",
    "ServerError",
    "create_app",
    "make_http_server",
    "parse_run_payload",
    "parse_study_payload",
    "serve",
]
