"""Shared fixtures for the serve test suite.

The suite drives :class:`~repro.serve.app.ServeApp` both directly
(route handlers are plain methods) and over a real
:class:`~repro.serve.app.ReproServer` bound to port 0 on loopback, with a
tiny urllib client.  Scenarios reuse the fabric suite's cheap star-search
shape — sub-millisecond trials, so real fabric fleets and real HTTP
round trips stay fast.
"""

from __future__ import annotations

import json
import threading
import urllib.error
import urllib.request

import pytest

from repro.runtime import Scenario, TopologySpec
from repro.runtime.store import ResultStore
from repro.serve import ServeApp, build_server
from repro.telemetry import reset_metrics


@pytest.fixture(autouse=True)
def _clean_registry():
    """Serve tests assert on counters; start and end from zero."""
    reset_metrics()
    yield
    reset_metrics()


@pytest.fixture
def make_scenario():
    """Factory for cheap, deterministic serve scenarios."""

    def factory(**overrides) -> Scenario:
        base = dict(
            name="serve-test/star",
            protocol="search-star/classical",
            topology=TopologySpec("star"),
            sizes=(8, 12, 16),
            trials=2,
            seed=11,
        )
        base.update(overrides)
        return Scenario(**base)

    return factory


@pytest.fixture
def serve_app(tmp_path):
    """A ServeApp over an isolated store and fabric root (no HTTP)."""
    store = ResultStore(tmp_path / "store", memory_entries=64)
    app = ServeApp(
        fabric_root=tmp_path / "fabric",
        store=store,
        workers=2,
        max_jobs=2,
        lease_ttl=10.0,
        poll=0.02,
        stream_interval=0.05,
    )
    yield app
    app.jobs.drain()


class Client:
    """Minimal JSON-over-HTTP client; error responses return, not raise."""

    def __init__(self, base: str):
        self.base = base

    def _request(self, req) -> tuple[int, dict]:
        try:
            with urllib.request.urlopen(req, timeout=60) as response:
                return response.status, json.loads(response.read())
        except urllib.error.HTTPError as error:
            return error.code, json.loads(error.read())

    def get(self, path: str) -> tuple[int, dict]:
        return self._request(self.base + path)

    def get_text(self, path: str) -> tuple[int, str]:
        with urllib.request.urlopen(self.base + path, timeout=60) as response:
            return response.status, response.read().decode()

    def post(self, path: str, payload: dict) -> tuple[int, dict]:
        req = urllib.request.Request(
            self.base + path,
            data=json.dumps(payload).encode(),
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        return self._request(req)

    def stream_lines(self, path: str, limit: int = 200) -> list[dict]:
        """Read SSE ``data:`` lines until the server closes (or limit)."""
        events = []
        with urllib.request.urlopen(self.base + path, timeout=120) as response:
            for raw in response:
                line = raw.decode().strip()
                if line.startswith("data: "):
                    events.append(json.loads(line[len("data: "):]))
                    if len(events) >= limit:
                        break
        return events


@pytest.fixture
def client(serve_app):
    """The app served for real on a loopback port, plus a JSON client."""
    server = build_server(serve_app, "127.0.0.1", 0)
    thread = threading.Thread(
        target=server.serve_forever,
        kwargs={"poll_interval": 0.05},
        daemon=True,
    )
    thread.start()
    host, port = server.server_address[:2]
    yield Client(f"http://{host}:{port}")
    server.shutdown()
    server.server_close()
    thread.join(timeout=10)
