"""The serve API over a real socket: routing, tiers, streaming, drain,
handler threads."""

from __future__ import annotations

import json
import os
import pathlib
import signal
import socket
import subprocess
import sys
import threading
import time
import urllib.request
from urllib.parse import urlsplit

import repro
from repro.fabric.serialize import scenario_to_dict
from repro.runtime import run_scenario
from repro.serve import build_server
from repro.serve.api import protocols_payload, scenarios_payload

HEALTHZ = b"GET /healthz HTTP/1.0\r\n\r\n"


def _address(client) -> tuple[str, int]:
    parts = urlsplit(client.base)
    return parts.hostname, parts.port


def _serve_in_thread(app):
    server = build_server(app, "127.0.0.1", 0)
    loop = threading.Thread(
        target=server.serve_forever,
        kwargs={"poll_interval": 0.05},
        daemon=True,
    )
    loop.start()
    return server, loop


def _close(server, loop, handlers) -> list:
    """Stop and close the server; the handler threads still alive after."""
    server.shutdown()
    server.server_close()
    loop.join(timeout=10)
    assert not loop.is_alive()
    deadline = time.monotonic() + 10
    for thread in handlers:
        thread.join(timeout=max(0.0, deadline - time.monotonic()))
    return [thread for thread in handlers if thread.is_alive()]


def _raw_exchange(address, data: bytes) -> tuple[int, dict]:
    """Send raw bytes, read the reply to EOF: (status, JSON body)."""
    with socket.create_connection(address, timeout=10) as sock:
        sock.sendall(data)
        chunks = []
        while chunk := sock.recv(65536):
            chunks.append(chunk)
    head, _, body = b"".join(chunks).partition(b"\r\n\r\n")
    return int(head.split()[1]), json.loads(body)


class TestCatalogueEndpoints:
    def test_healthz(self, client):
        status, payload = client.get("/healthz")
        assert status == 200
        assert payload["status"] == "ok"
        assert payload["jobs"]["total"] == 0

    def test_protocols_matches_cli_dump(self, client):
        status, payload = client.get("/v1/protocols")
        assert status == 200
        assert payload["protocols"] == json.loads(
            json.dumps(protocols_payload())
        )

    def test_scenarios_matches_cli_dump(self, client):
        status, payload = client.get("/v1/scenarios")
        assert status == 200
        assert payload["scenarios"] == json.loads(
            json.dumps(scenarios_payload())
        )

    def test_unknown_route_is_structured_404(self, client):
        status, payload = client.get("/v1/nope")
        assert status == 404
        assert payload["error"]["code"] == "not_found"

    def test_unknown_job_is_structured_404(self, client):
        status, payload = client.get("/v1/runs/deadbeefdeadbeef")
        assert status == 404
        assert payload["error"]["code"] == "unknown_job"

    def test_bad_request_body_is_structured_400(self, client):
        status, payload = client.post("/v1/runs", {"overrides": {}})
        assert status == 400
        assert payload["error"]["code"] == "missing_scenario"

    def test_malformed_content_length_is_structured_400(self, client):
        status, payload = _raw_exchange(
            _address(client),
            b"POST /v1/runs HTTP/1.0\r\nContent-Length: abc\r\n\r\n{}",
        )
        assert status == 400
        assert payload["error"]["code"] == "bad_request"
        assert "Content-Length" in payload["error"]["message"]


class TestRunFlow:
    def test_hot_request_answers_synchronously(
        self, client, serve_app, make_scenario
    ):
        scenario = make_scenario()
        run_scenario(scenario, jobs=1, store=serve_app.store)
        status, payload = client.post(
            "/v1/runs", {"scenario": scenario_to_dict(scenario)}
        )
        assert status == 200
        assert payload["tier"] == "store"
        assert payload["status"] == "done"
        assert payload["run"]["sizes"] == [8, 12, 16]
        status2, payload2 = client.post(
            "/v1/runs", {"scenario": scenario_to_dict(scenario)}
        )
        assert (status2, payload2["tier"]) == (200, "memory")

    def test_cold_request_completes_via_polling(
        self, client, make_scenario
    ):
        scenario = make_scenario(seed=31)
        status, payload = client.post(
            "/v1/runs", {"scenario": scenario_to_dict(scenario)}
        )
        assert status == 202
        assert payload["tier"] == "cold"
        location = payload["location"]

        import time

        deadline = time.monotonic() + 120
        while time.monotonic() < deadline:
            status, polled = client.get(location)
            assert status == 200
            if polled["state"] in ("done", "failed"):
                break
            time.sleep(0.05)
        assert polled["state"] == "done", polled.get("error")
        assert polled["tier"] == "computed"
        assert polled["progress"]["shards"]["done"] == 3
        assert len(polled["run"]["trial_sets"]) == 3

        # The job now shows up in the listing with fabric-side progress.
        status, listing = client.get("/v1/runs")
        assert status == 200
        assert [job["job"] for job in listing["jobs"]] == [payload["job"]]
        assert listing["fabric_jobs"][0]["progress"]["shards"]["done"] == 3

    def test_events_stream_ends_with_terminal_state(
        self, client, serve_app, make_scenario
    ):
        scenario = make_scenario(seed=47)
        status, payload = client.post(
            "/v1/runs", {"scenario": scenario_to_dict(scenario)}
        )
        assert status == 202
        events = client.stream_lines(f"/v1/runs/{payload['job']}/events")
        assert events  # at least one snapshot even if the job raced us
        assert events[-1]["state"] == "done"
        assert events[-1]["shards"]["done"] == 3

    def test_metrics_endpoint_exports_prometheus_text(self, client):
        client.get("/healthz")
        status, text = client.get_text("/metrics")
        assert status == 200
        assert "# TYPE repro_serve_requests_total counter" in text
        value = next(
            line.split()[1]
            for line in text.splitlines()
            if line.startswith("repro_serve_requests_total ")
        )
        assert float(value) >= 1


class TestDrain:
    def test_draining_rejects_cold_accepts_hot(
        self, client, serve_app, make_scenario
    ):
        hot = make_scenario()
        run_scenario(hot, jobs=1, store=serve_app.store)
        serve_app.draining = True
        try:
            status, payload = client.post(
                "/v1/runs", {"scenario": scenario_to_dict(hot)}
            )
            assert (status, payload["tier"]) == (200, "store")
            cold = make_scenario(seed=67)
            status, payload = client.post(
                "/v1/runs", {"scenario": scenario_to_dict(cold)}
            )
            assert status == 503
            assert payload["error"]["code"] == "draining"
            status, payload = client.get("/healthz")
            assert payload["status"] == "draining"
        finally:
            serve_app.draining = False

    def test_sigterm_drains_server_and_finishes_jobs(
        self, tmp_path, make_scenario, monkeypatch
    ):
        """serve_forever + a real signal handler invocation: the accept
        loop stops, in-flight jobs finish, leases are gone."""
        import signal
        import threading
        import urllib.request

        from repro.runtime.store import ResultStore
        from repro.serve import ServeApp, serve_forever

        store = ResultStore(tmp_path / "store", memory_entries=16)
        app = ServeApp(
            fabric_root=tmp_path / "fabric",
            store=store,
            workers=1,
            max_jobs=1,
            lease_ttl=10.0,
            poll=0.02,
        )
        bound = {}
        ready = threading.Event()

        def on_ready(server) -> None:
            bound["server"] = server
            ready.set()

        # Signals can't target a non-main thread; run the server loop in
        # a thread with handlers off and call the drain path directly.
        thread = threading.Thread(
            target=serve_forever,
            args=(app, "127.0.0.1", 0),
            kwargs={"install_signals": False, "ready_callback": on_ready},
            daemon=True,
        )
        thread.start()
        assert ready.wait(timeout=10)
        server = bound["server"]
        host, port = server.server_address[:2]
        base = f"http://{host}:{port}"

        scenario = make_scenario(seed=71)
        request = urllib.request.Request(
            f"{base}/v1/runs",
            data=json.dumps(
                {"scenario": scenario_to_dict(scenario)}
            ).encode(),
            method="POST",
        )
        with urllib.request.urlopen(request, timeout=60) as response:
            payload = json.loads(response.read())
        assert payload["tier"] == "cold"

        # What the SIGTERM handler does, minus the actual signal.
        app.draining = True
        threading.Thread(target=server.shutdown, daemon=True).start()
        thread.join(timeout=120)
        assert not thread.is_alive()

        job = app.jobs.get(payload["job"])
        assert job is not None and job.state == "done"
        job_dir = tmp_path / "fabric" / payload["job"]
        assert not list((job_dir / "leases").glob("p*.json"))
        assert signal.getsignal(signal.SIGTERM) is not None


class TestHandlerThreads:
    def test_sequential_requests_reuse_handler_threads(
        self, client, serve_app, monkeypatch
    ):
        seen = []
        health = serve_app.health

        def recording_health():
            seen.append(threading.current_thread())
            return health()

        monkeypatch.setattr(serve_app, "health", recording_health)
        for _ in range(50):
            assert client.get("/healthz")[0] == 200
        assert len(seen) == 50
        # One client waits for each reply, so at most one thread is busy
        # when the next connection arrives: a second thread starts only
        # if the first has not yet gone idle.
        assert len(set(seen)) <= 2

    def test_hot_answer_while_a_connection_stalls(
        self, client, serve_app, make_scenario
    ):
        hot = make_scenario()
        run_scenario(hot, jobs=1, store=serve_app.store)
        with socket.create_connection(_address(client), timeout=10) as stalled:
            stalled.sendall(
                b"POST /v1/runs HTTP/1.0\r\nContent-Length: 100\r\n\r\n{"
            )
            # Connections are accepted in order, so once this answers the
            # stalled one has a handler blocked on its missing body.
            assert client.get("/healthz")[0] == 200
            started = time.monotonic()
            status, payload = client.post(
                "/v1/runs", {"scenario": scenario_to_dict(hot)}
            )
            assert time.monotonic() - started < 5.0
        assert (status, payload["tier"]) == (200, "store")

    def test_server_close_ends_handler_threads(self, serve_app):
        before = set(threading.enumerate())
        server, loop = _serve_in_thread(serve_app)
        address = server.server_address[:2]
        with socket.create_connection(address, timeout=10) as stalled:
            stalled.sendall(b"GET /heal")
            for _ in range(5):
                assert _raw_exchange(address, HEALTHZ)[0] == 200
            handlers = set(threading.enumerate()) - before - {loop}
            # The stalled connection's thread, and an idle one or more.
            assert len(handlers) >= 2
        assert _close(server, loop, handlers) == []

    def test_concurrent_clients_are_all_answered(self, serve_app):
        """More clients than cores, switching threads often: every request
        is answered, and every handler thread ends on close."""
        before = set(threading.enumerate())
        server, loop = _serve_in_thread(serve_app)
        address = server.server_address[:2]
        statuses = []

        def one_client() -> None:
            for _ in range(20):
                statuses.append(_raw_exchange(address, HEALTHZ)[0])

        clients = [threading.Thread(target=one_client) for _ in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in clients:
                thread.start()
            for thread in clients:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not [thread for thread in clients if thread.is_alive()]
        assert statuses == [200] * 160
        handlers = set(threading.enumerate()) - before - {loop}
        assert _close(server, loop, handlers) == []

    def test_sigterm_exits_with_a_silent_client_connected(self, tmp_path):
        """Handler threads are daemons: one blocked on a client that never
        sends does not hold up the drained process's exit."""
        env = dict(os.environ)
        env["PYTHONPATH"] = str(
            pathlib.Path(repro.__file__).resolve().parents[1]
        )
        log = open(tmp_path / "serve.log", "w")
        process = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--host", "127.0.0.1", "--port", "0", "--workers", "1",
                "--fabric-dir", str(tmp_path / "fabric"),
                "--store", str(tmp_path / "store"),
            ],
            cwd=tmp_path,
            env=env,
            stdout=subprocess.PIPE,
            stderr=log,
            text=True,
        )
        try:
            line = process.stdout.readline()
            host, port = line.split("http://")[1].split()[0].split(":")
            with socket.create_connection((host, int(port)), timeout=10):
                # Accepted in order: after this answer, a handler thread
                # is blocked on the silent connection.
                with urllib.request.urlopen(
                    f"http://{host}:{port}/healthz", timeout=10
                ) as response:
                    assert response.status == 200
                process.send_signal(signal.SIGTERM)
                assert process.wait(timeout=30) == 0
        finally:
            if process.poll() is None:
                process.kill()
                process.wait()
            process.stdout.close()
            log.close()
