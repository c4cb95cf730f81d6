"""``repro serve`` — replay-as-a-service over plain HTTP/JSON.

A deliberately small, zero-dependency job server built on
:class:`http.server.ThreadingHTTPServer`: clients POST a workload spec
and get back either a cached manifest (warm), a handle onto an
already-running identical computation (coalesced), or a fresh job
(cold). The heavy lifting — coalescing, the warm cache, the bounded
queue — lives in :mod:`repro.serve.jobs`; this module is the HTTP
veneer plus the runner that maps a :class:`~repro.serve.jobs.JobSpec`
onto :func:`repro.core.system.run_system`.

API (all JSON):

- ``POST /v1/jobs`` — body is a :class:`JobSpec` dict, plus optional
  ``"wait": true`` to block until the manifest is ready. Responses:
  ``200`` (warm, or ``wait`` completed), ``202`` (job accepted; body
  carries ``job_id`` and ``state`` = ``cold``/``coalesced``), ``429``
  (queue full — retry later), ``400`` (bad spec, or a
  ``Content-Length`` that is not an integer), ``408`` (the stated body
  did not arrive within :data:`READ_TIMEOUT_SECONDS`), ``413`` (a
  stated body longer than :data:`MAX_BODY_BYTES`).
- ``GET /v1/jobs/<id>`` — job status: ``status``, ``progress`` (span
  names from the run's tracer, streamed as the replay advances),
  ``manifest`` when done, ``error`` when failed.
- ``GET /v1/stats`` — counter snapshot (submitted/warm/coalesced/
  computed/rejected/failed, live queue occupancy).
- ``GET /healthz`` — liveness probe.

Isolation: each job runs with its own frozen
:class:`~repro.core.context.RunContext` (shared store, private
tracer), and the obs tracer/registry ambients are thread-local — two
concurrent jobs cannot observe each other's configuration or spans.
"""

from __future__ import annotations

import json
import logging
import socket
import threading
from dataclasses import replace
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import TYPE_CHECKING, Any, Callable, Dict, Optional, Tuple

from repro.core.context import RunContext, RunRequest
from repro.errors import SimulationError
from repro.obs.tracer import SpanTracer
from repro.serve.jobs import JobManager, JobSpec, QueueFullError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.tracer import _OpenSpan

__all__ = ["ReproServer", "make_server", "make_system_runner", "run_server"]

_LOG = logging.getLogger("repro.serve")

#: Default cap on how long a ``"wait": true`` request may block.
WAIT_TIMEOUT_SECONDS = 600.0

#: Largest request body read (a job spec is well under 1 KiB); a
#: longer stated ``Content-Length`` is answered 413 without reading.
MAX_BODY_BYTES = 64 * 1024

#: Longest a connection may stay silent mid-request, e.g. a body
#: shorter than its ``Content-Length``: the read is then answered 408
#: and the connection closed, so no handler thread parks on it.
READ_TIMEOUT_SECONDS = 30.0


class _BodyError(SimulationError):
    """A request body that cannot be read, answered with ``status``."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


class _ProgressTracer(SpanTracer):
    """A span tracer that also streams closed-span names to a callback.

    This is how a status poll sees live progress: the job's runner
    installs one of these, and every finished span (trace generation,
    replay windows, ...) lands in the job's progress list the moment
    it closes.
    """

    def __init__(self, on_close: Callable[[str], None]) -> None:
        super().__init__()
        self._on_close = on_close

    def _close(self, span: "_OpenSpan", end: float) -> None:
        super()._close(span, end)
        self._on_close(span.name)


def make_system_runner(
    base_context: RunContext,
) -> Callable[[JobSpec, Callable[[str], None]], Dict[str, Any]]:
    """The production runner: one ``run_system`` call per job.

    ``base_context`` carries the server-wide configuration (store,
    ledger, scalar-cache flag); each job derives a private context from
    it with a fresh progress-streaming tracer, so concurrent jobs share
    the trace store but nothing else.
    """
    from repro.algorithms.registry import ALGORITHMS
    from repro.core.system import run_system
    from repro.graph.datasets import load_dataset

    def runner(
        spec: JobSpec, progress: Callable[[str], None]
    ) -> Dict[str, Any]:
        info = ALGORITHMS.get(spec.algorithm)
        if info is None:
            raise SimulationError(
                f"unknown algorithm {spec.algorithm!r};"
                f" available: {', '.join(ALGORITHMS)}"
            )
        progress("load_dataset")
        graph, _ = load_dataset(
            spec.dataset, scale=spec.scale, weighted=info.requires_weights
        )
        if info.requires_undirected and graph.directed:
            graph = graph.as_undirected()
        context = replace(base_context, tracer=_ProgressTracer(progress))
        request = RunRequest(
            algorithm=spec.algorithm,
            backend=spec.backend,
            dataset=spec.dataset,
            chunk_size=spec.chunk_size,
            num_cores=spec.num_cores,
            alg_kwargs=dict(spec.alg_kwargs),
        )
        report = run_system(graph, request=request, context=context)
        return report.manifest()

    return runner


class _Handler(BaseHTTPRequestHandler):
    """Request handler; the owning :class:`ReproServer` has the manager."""

    server: "ReproServer"  # type: ignore[assignment]
    protocol_version = "HTTP/1.1"
    timeout = READ_TIMEOUT_SECONDS

    # -- plumbing ------------------------------------------------------
    def log_message(self, fmt: str, *args: Any) -> None:
        _LOG.debug("%s %s", self.address_string(), fmt % args)

    def _reply(self, status: int, doc: Dict[str, Any]) -> None:
        blob = json.dumps(doc, sort_keys=True).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(blob)))
        self.end_headers()
        self.wfile.write(blob)

    def _read_body(self) -> Dict[str, Any]:
        stated = self.headers.get("Content-Length") or "0"
        try:
            length = int(stated)
        except ValueError:
            # the body's extent is unknown, so the connection cannot
            # be reused for another request.
            self.close_connection = True
            raise SimulationError(
                f"Content-Length must be an integer, got {stated!r}"
            ) from None
        if length > MAX_BODY_BYTES:
            self.close_connection = True
            raise _BodyError(
                413, f"request body of {length} bytes exceeds the"
                f" {MAX_BODY_BYTES}-byte limit"
            )
        if length <= 0:
            raise SimulationError("request body required")
        try:
            body = self.rfile.read(length)
        except socket.timeout:
            self.close_connection = True
            raise _BodyError(
                408, f"request body of {length} bytes not received"
                f" within {self.timeout} s"
            ) from None
        try:
            doc = json.loads(body)
        except ValueError:
            raise SimulationError("request body is not valid JSON") from None
        if not isinstance(doc, dict):
            raise SimulationError("request body must be a JSON object")
        return doc

    # -- routes --------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 - http.server API
        manager = self.server.manager
        if self.path == "/healthz":
            self._reply(200, {"ok": True})
        elif self.path == "/v1/stats":
            self._reply(200, manager.stats())
        elif self.path.startswith("/v1/jobs/"):
            job = manager.get(self.path[len("/v1/jobs/"):])
            if job is None:
                self._reply(404, {"error": "no such job"})
            else:
                self._reply(200, job.snapshot())
        else:
            self._reply(404, {"error": f"no route {self.path!r}"})

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        if self.path != "/v1/jobs":
            self._reply(404, {"error": f"no route {self.path!r}"})
            return
        manager = self.server.manager
        try:
            doc = self._read_body()
            spec = JobSpec.from_dict(doc)
            state, job, manifest = manager.submit(spec)
        except QueueFullError as exc:
            self._reply(429, {"error": str(exc), "state": "rejected"})
            return
        except _BodyError as exc:
            self._reply(exc.status, {"error": str(exc)})
            return
        except SimulationError as exc:
            self._reply(400, {"error": str(exc)})
            return
        if state == "warm":
            self._reply(200, {"state": "warm", "manifest": manifest})
            return
        assert job is not None
        if doc.get("wait"):
            manager.wait(job, timeout=WAIT_TIMEOUT_SECONDS)
            snap = job.snapshot()
            snap["state"] = state
            self._reply(200 if job.status == "done" else 500, snap)
            return
        self._reply(202, {"state": state, "job_id": job.id})


class ReproServer(ThreadingHTTPServer):
    """A :class:`ThreadingHTTPServer` that owns a :class:`JobManager`."""

    daemon_threads = True

    def __init__(self, address: Tuple[str, int],
                 manager: JobManager) -> None:
        super().__init__(address, _Handler)
        self.manager = manager

    def shutdown(self) -> None:
        super().shutdown()
        self.manager.shutdown(wait=False)


def make_server(
    host: str = "127.0.0.1",
    port: int = 0,
    manager: Optional[JobManager] = None,
    context: Optional[RunContext] = None,
    workers: int = 2,
    queue_depth: int = 8,
) -> ReproServer:
    """Build a ready-to-run server (``port=0`` picks an ephemeral port).

    ``manager`` wins when given (tests inject fake runners this way);
    otherwise a production manager is built around ``context`` (default
    :meth:`RunContext.from_env`). Call ``serve_forever()`` on the
    result, or drive it from a background thread::

        server = make_server(port=0)
        threading.Thread(target=server.serve_forever, daemon=True).start()
        ...
        server.shutdown()
    """
    if manager is None:
        base = context if context is not None else RunContext.from_env()
        manager = JobManager(
            make_system_runner(base),
            workers=workers,
            queue_depth=queue_depth,
        )
    return ReproServer((host, port), manager)


def run_server(server: ReproServer) -> threading.Thread:
    """Start ``server`` on a daemon thread and return the thread."""
    thread = threading.Thread(
        target=server.serve_forever, name="repro-serve", daemon=True
    )
    thread.start()
    return thread
