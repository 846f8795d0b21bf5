"""The ``serve-mixed`` workload: a closed loop against ``repro serve``.

Set-up pre-warms an on-disk result store with a working set of small
catalogue sweeps, computed with ``run_scenario(jobs=1)``.  The server
runs in its own process, launched by ``serve_entry.py``; its tier-1 run
cache holds half the working set, so hot answers split between the
memory and store tiers.  One client sends a request, waits for the reply,
then sends the next; between requests it runs the host-speed probe
(``clock.HostSpeed``), so no probe ever delays a timed request.  A small
seeded share of requests carries a fresh seed (every ``COLD_EVERY``th,
from a seeded offset): those are cold, run as fabric jobs, and are timed
from submit until their events stream ends and the result is fetched.
"""

from __future__ import annotations

import http.client
import itertools
import json
import os
import re
import signal
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from time import perf_counter, sleep

import numpy as np

from clock import HostSpeed, Timed
from sweeps import derive_seed, trial_sets_json

#: The hot working set: catalogue scenarios at small grids, many seeds.
HOT_FAMILIES = (
    ("ring-le/lcr", (16, 32)),
    ("star-search/quantum", (64, 256)),
    ("complete-le/quantum", (64, 128)),
    ("agreement/classical", (64, 256)),
)
COLD_FAMILY = ("ring-le/lcr", (16, 32))
TRIALS = 2
COLD_EVERY = 300  # every 300th request (seeded offset) is cold
LAUNCHES = 5
PREWARM_PASSES = 5
VERIFY_EVERY = 97  # every 97th hot reply is re-checked
VERIFY_MAX = 12


@dataclass
class Request:
    scenario: str
    sizes: tuple[int, ...]
    seed: int

    def body(self) -> bytes:
        return json.dumps(
            {
                "scenario": self.scenario,
                "overrides": {
                    "sizes": list(self.sizes),
                    "trials": TRIALS,
                    "seed": self.seed,
                },
            }
        ).encode()

    def scenario_obj(self):
        from repro.runtime import get_scenario

        return get_scenario(self.scenario).with_overrides(
            sizes=self.sizes, trials=TRIALS, seed=self.seed
        )


@dataclass
class LoopResult:
    hot_s: list = field(default_factory=list)  # wall seconds
    cold_s: list = field(default_factory=list)  # wall seconds
    scales: list = field(default_factory=list)  # HostSpeed.scale per loop
    tiers: dict = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    verify: list = field(default_factory=list)  # (request, trial sets json)
    wall_s: float = 0.0


def working_set(seed: int, smoke: bool) -> list[Request]:
    per_family = 2 if smoke else 12
    return [
        Request(name, sizes, derive_seed(seed, 1, f, k))
        for f, (name, sizes) in enumerate(HOT_FAMILIES)
        for k in range(per_family)
    ]


def call(port: int, method: str, path: str, body: bytes | None = None):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
    try:
        headers = {"Content-Type": "application/json"} if body else {}
        conn.request(method, path, body=body, headers=headers)
        response = conn.getresponse()
        return response.status, json.loads(response.read() or b"{}")
    finally:
        conn.close()


class Server:
    """One ``repro serve`` process: launch, wait until healthy, stop."""

    def __init__(self, here: str, env: dict, args: list[str], spans_dir=None):
        command = [sys.executable, os.path.join(here, "serve_entry.py"), *args]
        if spans_dir is not None:
            command += ["--spans", spans_dir]
        started = perf_counter()
        self.process = subprocess.Popen(
            command,
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            text=True,
        )
        line = self.process.stdout.readline()
        match = re.search(r"http://[^:]+:(\d+)", line)
        if match is None:
            self.stop()
            raise RuntimeError(f"repro serve did not start: {line!r}")
        self.port = int(match.group(1))
        while True:
            try:
                status, _ = call(self.port, "GET", "/healthz")
            except OSError:
                status = None
            if status == 200:
                break
            if perf_counter() - started > 60:
                self.stop()
                raise RuntimeError("repro serve never answered /healthz")
            sleep(0.005)
        self.setup_s = perf_counter() - started

    def stop(self) -> None:
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
        try:
            self.process.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait()
        self.process.stdout.close()


def _cold(port: int, request: Request, out: LoopResult) -> None:
    start = perf_counter()
    status, reply = call(port, "POST", "/v1/runs", request.body())
    if status == 200:  # already answered: not the cold path we wanted to time
        raise RuntimeError(f"cold request answered hot ({reply.get('tier')})")
    if status != 202:
        raise RuntimeError(f"cold submit returned {status}: {reply}")
    location = reply["location"]
    # The events stream ends when the job does, so the client waits without
    # polling: polls would take the core from the job they wait for.
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
    try:
        conn.request("GET", f"{location}/events")
        response = conn.getresponse()
        response.read()
        if response.status != 200:
            raise RuntimeError(f"events stream returned {response.status}")
    finally:
        conn.close()
    status, reply = call(port, "GET", location)
    if status != 200 or reply.get("state") != "done":
        raise RuntimeError(f"cold job ended {status} {reply.get('state')}: {reply.get('error')}")
    out.cold_s.append(perf_counter() - start)
    out.verify.append((request, reply["run"]["trial_sets"]))


def _hot(port: int, request: Request, out: LoopResult, sent: int) -> None:
    start = perf_counter()
    status, reply = call(port, "POST", "/v1/runs", request.body())
    elapsed = perf_counter() - start
    tier = reply.get("tier")
    if status != 200 or tier not in ("memory", "store"):
        raise RuntimeError(f"hot request got {status} tier={tier}")
    out.hot_s.append(elapsed)
    out.tiers[tier] = out.tiers.get(tier, 0) + 1
    if sent % VERIFY_EVERY == 0 and len(out.verify) < VERIFY_MAX:
        out.verify.append((request, reply["run"]["trial_sets"]))


def closed_loop(
    port: int, seed: int, hot: list, seconds: float, out: LoopResult, cold_counter
) -> None:
    # Warm-up: every hot entry once, so the tiers hold what they will hold.
    for request in hot:
        status, _ = call(port, "POST", "/v1/runs", request.body())
        if status != 200:
            out.failed += 1
            out.problems.append(f"warm-up got {status} for {request}")
    rng = np.random.default_rng([seed, 3])
    sent = int(rng.integers(COLD_EVERY))
    speed = HostSpeed()
    start = perf_counter()
    deadline = start + seconds
    while perf_counter() < deadline:
        speed.tick()
        sent += 1
        out.attempted += 1
        try:
            if sent % COLD_EVERY == 0:
                name, sizes = COLD_FAMILY
                request = Request(name, sizes, derive_seed(seed, 2, next(cold_counter)))
                _cold(port, request, out)
            else:
                _hot(port, hot[int(rng.integers(len(hot)))], out, sent)
        except (OSError, http.client.HTTPException, RuntimeError, KeyError, ValueError) as exc:
            out.failed += 1
            out.problems.append(f"{type(exc).__name__}: {exc}")
    out.wall_s += perf_counter() - start
    out.scales.append(speed.scale)


def verify(out: LoopResult) -> None:
    """Re-run each sampled scenario with ``run_scenario(jobs=1)`` and compare."""
    from repro.runtime import run_scenario

    for request, served in out.verify:
        expected = trial_sets_json(run_scenario(request.scenario_obj(), jobs=1))
        if served != expected:
            out.failed += 1
            out.problems.append(f"served trial sets differ from run_scenario for {request}")


def run_serve(
    here: str,
    env: dict,
    work: str,
    seed: int,
    seconds: float,
    smoke: bool = False,
    trace: bool = False,
) -> dict:
    """Pre-warm, launch, drive, verify; returns raw samples and span dumps."""
    import resource

    from repro.runtime import ResultStore, run_scenario

    store_root = os.path.join(work, "serve-store")
    spans_dir = os.path.join(work, "spans")
    os.makedirs(spans_dir, exist_ok=True)
    hot = working_set(seed, smoke)
    # The working set is computed PREWARM_PASSES times, each pass through
    # a fresh store; the first pass's store is the one the server reads.
    prewarm_s = []
    for index in range(PREWARM_PASSES):
        root = store_root if index == 0 else os.path.join(work, f"pass-{index}")
        store = ResultStore(root=root)
        elapsed = 0.0
        for request in hot:
            with Timed() as timed:
                run_scenario(request.scenario_obj(), jobs=1, store=store)
            elapsed += timed.ref_s
        prewarm_s.append(elapsed)
    args = [
        "--fabric-dir", os.path.join(work, "serve-fabric"),
        "--store", store_root,
        "--run-memory", str(max(1, len(hot) // 2)),
    ]
    untraced, traced = LoopResult(), LoopResult()
    cold_counter = itertools.count()  # fresh seeds across every launch
    setup = []
    loop_s = seconds * (0.55 if smoke else 0.7)
    for launch in range(LAUNCHES):
        drive = launch == LAUNCHES - 1 or (trace and launch == LAUNCHES - 2)
        with_spans = trace and launch == LAUNCHES - 1
        server = Server(here, env, args, spans_dir if with_spans else None)
        setup.append(server.setup_s)
        try:
            if drive:
                out = traced if with_spans else untraced
                closed_loop(
                    server.port,
                    seed,
                    hot,
                    loop_s / (2 if trace else 1),
                    out,
                    cold_counter,
                )
        finally:
            server.stop()
    verify(untraced)
    verify(traced)
    peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return {
        "setup_s": setup,
        "prewarm_s": prewarm_s,
        "untraced": untraced,
        "traced": traced,
        "spans_dir": spans_dir,
        "peak_rss_mb": peak_kb / 1024.0,
    }


def loop_summary(out: LoopResult) -> dict:
    return {
        "hot_requests": len(out.hot_s),
        "cold_requests": len(out.cold_s),
        "tiers": dict(out.tiers),
        "wall_s": out.wall_s,
        "host_speed_scale": out.scales,
        "hot_p50_s": statistics.median(out.hot_s) if out.hot_s else None,
    }
