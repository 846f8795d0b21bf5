"""The ``repro serve`` HTTP front end: stdlib-threaded, JSON in/out.

One :class:`ServeApp` owns the tiered :class:`~repro.serve.cache.RunCache`
and the single-flight :class:`~repro.serve.jobs.JobTable`; a
:class:`ReproServer` hands each accepted connection to an idle handler
thread (starting one only when none is idle), which dispatches it into
the app.  Routes:

* ``GET  /healthz`` — liveness (reports draining)
* ``GET  /metrics`` — Prometheus text from the process registry
* ``GET  /v1/protocols`` — the ``repro protocols --json`` dump
* ``GET  /v1/scenarios`` — the ``repro scenarios --json`` dump
* ``POST /v1/runs`` — hot answers synchronously (``tier`` is
  ``memory``/``store``), cold enqueues a fabric job → 202 + job id
* ``GET  /v1/runs`` — job listing (table + on-disk fabric jobs)
* ``GET  /v1/runs/<id>`` — poll one job (fabric-derived progress)
* ``GET  /v1/runs/<id>/events`` — SSE-shaped progress stream

Graceful drain: SIGTERM/SIGINT flips ``draining`` (new cold requests
get 503, hot answers keep flowing), stops the accept loop, then blocks
until in-flight fabric jobs finish — their workers exit through the
normal path and release leases on the way out.
"""

from __future__ import annotations

import json
import logging
import queue
import re
import signal
import threading
import time
from http.server import BaseHTTPRequestHandler, HTTPServer
from time import perf_counter
from urllib.parse import urlsplit

from repro.fabric import DEFAULT_LEASE_TTL, list_jobs
from repro.runtime.store import ResultStore
from repro.serve.api import (
    ApiError,
    job_payload,
    parse_run_request,
    protocols_payload,
    run_payload,
    scenarios_payload,
)
from repro.serve.cache import RunCache
from repro.serve.jobs import JobTable
from repro.telemetry import current_tracer, metrics_registry

logger = logging.getLogger(__name__)

__all__ = ["DEFAULT_HOST", "DEFAULT_PORT", "ServeApp", "build_server", "serve_forever"]

DEFAULT_HOST = "127.0.0.1"
DEFAULT_PORT = 8765

#: Largest request body read, in bytes.  A run request is a serialized
#: scenario of a few KB; a longer declared Content-Length answers 413
#: before any read, since a buffered read allocates the whole length.
MAX_BODY_BYTES = 1 << 20

_RUN_ROUTE = re.compile(r"/v1/runs/([0-9a-f]{8,64})")
_EVENTS_ROUTE = re.compile(r"/v1/runs/([0-9a-f]{8,64})/events")


class ServeApp:
    """Route handlers + shared state, HTTP-free (tests drive it directly)."""

    def __init__(
        self,
        fabric_root,
        store: ResultStore | None = None,
        workers: int = 1,
        max_jobs: int = 2,
        lease_ttl: float = DEFAULT_LEASE_TTL,
        poll: float = 0.05,
        run_memory: int = 128,
        stream_interval: float = 0.5,
    ):
        # A serving store defaults the memory tier ON — that is the
        # whole point of a long-lived process in front of the disk.
        self.store = (
            store if store is not None else ResultStore(memory_entries=256)
        )
        self.cache = RunCache(self.store, memory_entries=run_memory)
        self.jobs = JobTable(
            store=self.store,
            fabric_root=fabric_root,
            workers=workers,
            max_jobs=max_jobs,
            lease_ttl=lease_ttl,
            poll=poll,
        )
        self.stream_interval = stream_interval
        self.started_at = time.time()
        self.draining = False
        self._requests = 0
        self._requests_lock = threading.Lock()

    # -- request accounting ----------------------------------------------------

    def count_request(self) -> int:
        with self._requests_lock:
            self._requests += 1
            return self._requests

    @property
    def requests(self) -> int:
        with self._requests_lock:
            return self._requests

    # -- GET endpoints ---------------------------------------------------------

    def health(self) -> tuple[int, dict]:
        jobs = self.jobs.list()
        return 200, {
            "status": "draining" if self.draining else "ok",
            "uptime_seconds": round(time.time() - self.started_at, 3),
            "requests": self.requests,
            "jobs": {
                "total": len(jobs),
                "running": sum(1 for j in jobs if j.state == "running"),
            },
            "cache": self.cache.stats(),
        }

    def metrics_text(self) -> str:
        return metrics_registry().to_prometheus()

    def protocols(self) -> tuple[int, dict]:
        return 200, {"protocols": protocols_payload()}

    def scenarios(self) -> tuple[int, dict]:
        return 200, {"scenarios": scenarios_payload()}

    def jobs_index(self) -> tuple[int, dict]:
        return 200, {
            "jobs": [
                job_payload(job, self.jobs.progress(job))
                for job in self.jobs.list()
            ],
            "fabric_jobs": list_jobs(self.jobs.fabric_root),
        }

    def run_status(self, job_id: str) -> tuple[int, dict]:
        job = self.jobs.get(job_id)
        if job is None:
            raise ApiError(
                "unknown_job", f"no job {job_id!r} in this server", status=404
            )
        payload = job_payload(job, self.jobs.progress(job))
        if job.state == "done" and job.run is not None:
            payload["tier"] = "computed"
            payload["run"] = run_payload(job.run)
        return 200, payload

    # -- POST /v1/runs ---------------------------------------------------------

    def submit_run(self, body: bytes) -> tuple[int, dict]:
        scenario = parse_run_request(body)
        hit = self.cache.lookup(scenario)
        if hit is not None:
            tier, run = hit
            return 200, {
                "status": "done",
                "tier": tier,
                "job": None,
                "run": run_payload(run),
            }
        if self.draining:
            raise ApiError(
                "draining",
                "server is draining: hot answers only, no new computations",
                status=503,
            )
        job, created = self.jobs.submit(scenario)
        metrics_registry().counter("repro_serve_cold_total").inc()
        return 202, {
            "status": job.state,
            "tier": "cold",
            "job": job.id,
            "created": created,
            "location": f"/v1/runs/{job.id}",
        }


class _ServeHandler(BaseHTTPRequestHandler):
    """Thin HTTP shim over :class:`ServeApp` routes."""

    server_version = "repro-serve/1"
    # HTTP/1.0: every response closes its connection, which is also what
    # ends the SSE stream — no chunked-encoding bookkeeping needed.
    protocol_version = "HTTP/1.0"
    # Seconds a socket read or write may block.  A client that sends
    # nothing, or half a body, loses its connection after this, and its
    # handler thread goes back to idle.
    timeout = 30.0

    @property
    def app(self) -> ServeApp:
        return self.server.app  # type: ignore[attr-defined]

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        logger.debug("%s %s", self.address_string(), format % args)

    # -- plumbing --------------------------------------------------------------

    def _send_json(self, status: int, payload: dict) -> None:
        body = json.dumps(payload, sort_keys=True, default=str).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def do_GET(self) -> None:
        self._dispatch("GET")

    def do_POST(self) -> None:
        self._dispatch("POST")

    def _dispatch(self, method: str) -> None:
        started = perf_counter()
        path = urlsplit(self.path).path.rstrip("/") or "/"
        status = 500
        registry = metrics_registry()
        try:
            if method == "GET" and path == "/metrics":
                text = self.app.metrics_text().encode()
                self.send_response(200)
                self.send_header(
                    "Content-Type", "text/plain; version=0.0.4"
                )
                self.send_header("Content-Length", str(len(text)))
                self.end_headers()
                self.wfile.write(text)
                status = 200
            elif method == "GET" and _EVENTS_ROUTE.fullmatch(path):
                status = self._stream_events(
                    _EVENTS_ROUTE.fullmatch(path).group(1)
                )
            else:
                status, payload = self._route(method, path)
                self._send_json(status, payload)
        except ApiError as error:
            status = error.status
            registry.counter("repro_serve_errors_total").inc()
            self._send_json(status, error.payload())
        except (BrokenPipeError, ConnectionResetError):
            status = 499  # client went away mid-write; nothing to send
        except TimeoutError:
            # The client stalled: handle_one_request drops the connection.
            status = 408
            raise
        except Exception as exc:  # noqa: BLE001 — must answer, not die
            logger.exception("unhandled error on %s %s", method, path)
            status = 500
            registry.counter("repro_serve_errors_total").inc()
            try:
                self._send_json(
                    500,
                    {
                        "error": {
                            "code": "internal",
                            "message": f"{type(exc).__name__}: {exc}",
                        }
                    },
                )
            except OSError:
                pass
        finally:
            self.app.count_request()
            registry.counter("repro_serve_requests_total").inc()
            registry.histogram("repro_serve_request_seconds").observe(
                perf_counter() - started
            )
            tracer = current_tracer()
            if tracer.enabled:
                tracer.emit(
                    "serve_request", method=method, path=path, status=status
                )

    def _route(self, method: str, path: str) -> tuple[int, dict]:
        app = self.app
        if method == "GET":
            if path == "/healthz":
                return app.health()
            if path == "/v1/protocols":
                return app.protocols()
            if path == "/v1/scenarios":
                return app.scenarios()
            if path == "/v1/runs":
                return app.jobs_index()
            match = _RUN_ROUTE.fullmatch(path)
            if match:
                return app.run_status(match.group(1))
            raise ApiError("not_found", f"no route for GET {path}", status=404)
        if method == "POST":
            if path == "/v1/runs":
                return app.submit_run(self._read_body())
            raise ApiError("not_found", f"no route for POST {path}", status=404)
        raise ApiError(
            "method_not_allowed", f"{method} not supported", status=405
        )

    def _read_body(self) -> bytes:
        raw_length = self.headers.get("Content-Length") or "0"
        try:
            length = int(raw_length)
        except ValueError:
            raise ApiError(
                "bad_request",
                f"Content-Length {raw_length!r} is not an integer",
            ) from None
        if length < 0:
            raise ApiError("bad_request", f"Content-Length {length} is negative")
        if length > MAX_BODY_BYTES:
            raise ApiError(
                "payload_too_large",
                f"Content-Length {length} exceeds the {MAX_BODY_BYTES}-byte limit",
                status=413,
            )
        return self.rfile.read(length) if length else b""

    def _stream_events(self, job_id: str) -> int:
        job = self.app.jobs.get(job_id)
        if job is None:
            raise ApiError(
                "unknown_job", f"no job {job_id!r} in this server", status=404
            )
        self.send_response(200)
        self.send_header("Content-Type", "text/event-stream")
        self.send_header("Cache-Control", "no-store")
        self.end_headers()
        for snapshot in self.app.jobs.stream(job, self.app.stream_interval):
            line = json.dumps(snapshot, sort_keys=True, default=str)
            self.wfile.write(f"data: {line}\n\n".encode())
            self.wfile.flush()
        return 200


class ReproServer(HTTPServer):
    """Hands each connection to an idle handler thread; requests share the
    app's locks.

    A new thread starts only when none is idle, and threads are never
    capped, so a long events stream never delays a hot answer.  Handler
    threads are daemons, so a stalled client never holds up process exit.
    """

    allow_reuse_address = True

    def __init__(self, address: tuple[str, int], app: ServeApp):
        super().__init__(address, _ServeHandler)
        self.app = app
        # Each thread counted in _idle takes exactly one item off _pending:
        # a connection, or None once the server has closed.
        self._pending: queue.SimpleQueue = queue.SimpleQueue()
        self._idle = 0
        self._closed = False
        self._lock = threading.Lock()

    def process_request(self, request, client_address) -> None:
        with self._lock:
            if self._idle:
                self._idle -= 1
                self._pending.put((request, client_address))
                return
        threading.Thread(
            target=self._handler_loop,
            args=(request, client_address),
            name="serve-handler",
            daemon=True,
        ).start()

    def _handler_loop(self, request, client_address) -> None:
        while True:
            # What ThreadingMixIn.process_request_thread does per request.
            try:
                self.finish_request(request, client_address)
            except Exception:  # noqa: BLE001 — handle_error reports it
                self.handle_error(request, client_address)
            finally:
                self.shutdown_request(request)
            with self._lock:
                if self._closed:
                    return
                self._idle += 1
            work = self._pending.get()
            if work is None:
                return
            request, client_address = work

    def server_close(self) -> None:
        """Close the socket and end the idle handler threads; a busy one
        ends when its request does."""
        super().server_close()
        with self._lock:
            self._closed = True
            idle, self._idle = self._idle, 0
        for _ in range(idle):
            self._pending.put(None)


def build_server(
    app: ServeApp, host: str = DEFAULT_HOST, port: int = DEFAULT_PORT
) -> ReproServer:
    """Bind (port 0 picks a free one — ``server_address`` has the real)."""
    return ReproServer((host, port), app)


def serve_forever(
    app: ServeApp,
    host: str = DEFAULT_HOST,
    port: int = DEFAULT_PORT,
    install_signals: bool = True,
    ready_callback=None,
) -> None:
    """Run until SIGTERM/SIGINT, then drain: finish in-flight jobs, exit.

    ``ready_callback(server)`` fires after the bind, before the accept
    loop — the CLI prints the listening line there and tests grab the
    bound port.
    """
    server = build_server(app, host, port)
    tracer = current_tracer()
    if tracer.enabled:
        tracer.emit(
            "serve_start",
            host=str(server.server_address[0]),
            port=int(server.server_address[1]),
        )

    def _begin_drain(signum, frame) -> None:
        app.draining = True
        # shutdown() blocks until the accept loop exits, so it must run
        # off the signal-handling (main) thread.
        threading.Thread(
            target=server.shutdown, name="serve-drain", daemon=True
        ).start()

    previous: dict = {}
    if install_signals:
        for signo in (signal.SIGTERM, signal.SIGINT):
            previous[signo] = signal.signal(signo, _begin_drain)
    try:
        if ready_callback is not None:
            ready_callback(server)
        server.serve_forever(poll_interval=0.2)
    finally:
        app.draining = True
        app.jobs.drain()
        server.server_close()
        if tracer.enabled:
            tracer.emit("serve_exit", requests=int(app.requests))
        for signo, handler in previous.items():
            signal.signal(
                signo, signal.SIG_DFL if handler is None else handler
            )
