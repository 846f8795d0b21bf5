"""Span tracing around each layer's public functions, from outside ``src/``.

The benchmark never edits the program to time it.  Instead
:class:`Tracer` swaps a thin wrapper in for each public function named in
:data:`TARGETS` — on the defining class, or on every loaded ``repro``
module that imported the function by name — and puts the originals back
on :meth:`Tracer.uninstall`.  Each wrapped call records one span: name,
start, end, parent span and the root span id it belongs to (a trial, a
sweep or a served request).  Spans stay in memory and are written out
once, at the end.

A layer's self time is the sum of its spans' durations minus the time
their child spans cover.  Per-step functions (``RandomWalk.step``,
engine round helpers) are deliberately not wrapped: they run millions of
times per pass and the wrapper would dominate what it measures.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
import statistics
import sys
import threading
from time import perf_counter

# (module, attribute path, layer, tag) — tag names a function of the
# call's result that labels the span (hit/miss, tier, stream count).
TARGETS = (
    ("repro.util.rng", "RandomSource.spawn_many", "rng", "length"),
    ("repro.util.rng", "RandomSource.spawn", "rng", "one"),
    ("repro.runtime.scenario", "TopologySpec.build", "topology", None),
    ("repro.runtime.scenario", "TopologySpec.build_cached", "topology", None),
    ("repro.network.topology", "Topology.port_table", "topology", None),
    ("repro.network.engine", "SynchronousEngine.run", "engine", None),
    ("repro.network.random_walk", "RandomWalk.endpoint", "walk", None),
    ("repro.quantum.grover_dynamics", "sample_attempt", "quantum", None),
    ("repro.quantum.phase_estimation", "sample_counting_estimate", "quantum", None),
    ("repro.quantum.walk_model", "sample_walk_attempt", "quantum", None),
    ("repro.util.ledger", "CostLedger.charge", "ledger", None),
    ("repro.runtime.scenario", "Scenario.run_trial", "driver", None),
    ("repro.runtime.runner", "run_scenario", "runner", None),
    ("repro.runtime.store", "ResultStore.load", "store", "found"),
    ("repro.runtime.store", "ResultStore.save", "store", None),
    ("repro.fabric.coordinator", "run_fabric_sweep", "fabric", None),
    ("repro.fabric.worker", "worker_entry", "fabric", None),
    ("repro.serve.cache", "RunCache.lookup", "serve", "tier"),
    ("repro.serve.api", "run_payload", "serve", None),
    ("repro.serve.app", "ServeApp.submit_run", "serve", "reply_tier"),
)

#: Modules imported before patching, so every by-name import of a target
#: function already exists and gets swapped too.
_PRELOAD = (
    "repro.runtime",
    "repro.core.grover",
    "repro.core.minimum",
    "repro.core.counting",
    "repro.core.walk_search",
    "repro.fabric",
    "repro.serve",
    "repro.serve.app",
    "repro.serve.jobs",
)

_TAGS = {
    "length": len,
    "one": lambda result: 1,
    "found": lambda result: "hit" if result is not None else "miss",
    "tier": lambda result: result[0] if result is not None else "miss",
    "reply_tier": lambda result: result[1].get("tier"),
}

#: Registry counters folded into each process's dump (engine work counts).
COUNTERS = ("repro_engine_rounds_total", "repro_engine_message_units_total")


def _counter_values() -> dict:
    from repro.telemetry import metrics_registry

    registry = metrics_registry()
    values = {}
    for name in COUNTERS:
        metric = registry.get(name)
        values[name] = metric.state()["value"] if metric is not None else 0
    return values


class Tracer:
    """Installs the wrappers and owns this process's spans."""

    def __init__(self, dump_dir: str | None = None):
        # Forked fabric workers inherit the wrappers; each writes its own
        # spans here when its worker loop returns.
        self.dump_dir = dump_dir
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []
        self._counters_before: dict = {}
        self._counter_totals: dict = {name: 0 for name in COUNTERS}

    # -- recording ---------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name: str, tag, fn, args, kwargs):
        stack = self._stack()
        span_id = next(self._ids)
        parent, root = stack[-1] if stack else (0, span_id)
        stack.append((span_id, root))
        label = None
        start = perf_counter()
        try:
            result = fn(*args, **kwargs)
            if tag is not None:
                label = tag(result)
            return result
        finally:
            end = perf_counter()
            stack.pop()
            self.spans.append((span_id, parent, root, name, start, end, label))

    # -- patching ----------------------------------------------------------

    def _wrap(self, name: str, tag, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return tracer.call(name, tag, fn, args, kwargs)

        return traced

    def _wrap_worker_entry(self, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            # Runs in a forked child: start from an empty span list.
            tracer.spans = []
            tracer._local = threading.local()
            tracer._counters_before = _counter_values()
            tracer._counter_totals = {name: 0 for name in COUNTERS}
            try:
                return tracer.call("worker_entry", None, fn, args, kwargs)
            finally:
                tracer.dump(
                    os.path.join(tracer.dump_dir, f"spans-{os.getpid()}.json")
                )

        return traced

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        for module_name in _PRELOAD:
            importlib.import_module(module_name)
        self._counters_before = _counter_values()
        for module_name, path, _layer, tag_name in TARGETS:
            module = importlib.import_module(module_name)
            owner_name, _, attr = path.rpartition(".")
            tag = _TAGS[tag_name] if tag_name else None
            if owner_name:
                owner = getattr(module, owner_name)
                original = owner.__dict__[attr]
                self._patch(owner, attr, self._wrap(path, tag, original))
                continue
            original = getattr(module, attr)
            if attr == "worker_entry":
                if self.dump_dir is None:
                    continue
                wrapped = self._wrap_worker_entry(original)
            else:
                wrapped = self._wrap(path, tag, original)
            for loaded in list(sys.modules.values()):
                name = getattr(loaded, "__name__", "")
                if (name == "repro" or name.startswith("repro.")) and (
                    loaded.__dict__.get(attr) is original
                ):
                    self._patch(loaded, attr, wrapped)

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        self._counter_totals = self.counters()
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- output ------------------------------------------------------------

    def counters(self) -> dict:
        """Engine counter growth over every installed stretch so far."""
        if not self._patches:
            return dict(self._counter_totals)
        after = _counter_values()
        return {
            k: self._counter_totals[k] + after[k] - self._counters_before[k]
            for k in after
        }

    def dump(self, path: str) -> None:
        payload = {
            "pid": os.getpid(),
            "spans": self.spans,
            "counters": self.counters(),
        }
        tmp = f"{path}.tmp"
        with open(tmp, "w") as handle:
            json.dump(payload, handle)
        os.replace(tmp, path)


def load_dumps(directory: str) -> list[dict]:
    """Every process dump written under ``directory``."""
    dumps = []
    for entry in sorted(os.listdir(directory)):
        if entry.startswith("spans-") and entry.endswith(".json"):
            with open(os.path.join(directory, entry)) as handle:
                dumps.append(json.load(handle))
    return dumps


# -- analysis ------------------------------------------------------------------

_LAYER_OF = {path: layer for _m, path, layer, _t in TARGETS}


class SpanSet:
    """Spans from one or more processes, with self times resolved."""

    def __init__(self, dumps: list[dict]):
        self.rows = []  # (pid, id, parent, root, name, start, end, label)
        self.counters = {name: 0 for name in COUNTERS}
        for dump in dumps:
            pid = dump["pid"]
            for span in dump["spans"]:
                self.rows.append((pid, *span))
            for name, value in dump["counters"].items():
                self.counters[name] = self.counters.get(name, 0) + value
        self.by_key = {(r[0], r[1]): r for r in self.rows}
        child_time: dict = {}
        self.children: dict = {}
        for row in self.rows:
            if row[2]:
                key = (row[0], row[2])
                child_time[key] = child_time.get(key, 0.0) + row[6] - row[5]
                self.children.setdefault(key, []).append(row)
        self.self_time = {
            key: (row[6] - row[5]) - child_time.get(key, 0.0)
            for key, row in self.by_key.items()
        }

    def named(self, name: str) -> list[tuple]:
        return [row for row in self.rows if row[4] == name]

    def total(self, name: str) -> float:
        return sum(row[6] - row[5] for row in self.named(name))

    def self_of(self, name: str) -> float:
        return sum(self.self_time[(r[0], r[1])] for r in self.named(name))

    def layer_self(self, layer: str) -> float:
        return sum(
            self.self_time[(row[0], row[1])]
            for row in self.rows
            if _LAYER_OF[row[4]] == layer
        )

    def bound_violations(self, slack: float = 1e-6) -> list[str]:
        """Spans whose self time is negative or exceeds their parent."""
        bad = []
        for key, row in self.by_key.items():
            own = self.self_time[key]
            if own < -slack:
                bad.append(f"{row[4]} self time {own:.6f}s < 0")
            parent = self.by_key.get((row[0], row[2])) if row[2] else None
            if parent is not None and own > parent[6] - parent[5] + slack:
                bad.append(f"{row[4]} self time exceeds parent {parent[4]}")
        return bad

    def descendants(self, row) -> list[tuple]:
        out, frontier = [], [row]
        while frontier:
            node = frontier.pop()
            kids = self.children.get((node[0], node[1]), [])
            out.extend(kids)
            frontier.extend(kids)
        return out


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def layer_metrics(spans: SpanSet, units: float) -> dict:
    """Per-layer metrics, per unit of work (a sweep pass or a served request).

    Fabric job figures are per cold job; serve ratios are over requests.
    ``trace.overhead_ratio`` is filled in by the caller, which timed the
    untraced passes.
    """
    per = 1.0 / units if units else 0.0
    count = lambda name: len(spans.named(name))  # noqa: E731
    trials = spans.named("Scenario.run_trial")
    trial_s = sum(r[6] - r[5] for r in trials)
    driver_s = spans.layer_self("driver")
    streams = sum(
        r[7] for r in spans.rows if _LAYER_OF[r[4]] == "rng" and r[7] is not None
    )
    cached = spans.named("TopologySpec.build_cached")
    memo_hits = sum(
        1
        for r in cached
        if not any(c[4] == "TopologySpec.build" for c in spans.children.get((r[0], r[1]), []))
    )
    loads = spans.named("ResultStore.load")
    jobs = spans.named("run_fabric_sweep")
    job_s = [r[6] - r[5] for r in jobs]
    # Trial compute done for fabric jobs happens in forked workers.
    workers = {w[0] for w in spans.named("worker_entry")}
    worker_trial_s = sum(r[6] - r[5] for r in trials if r[0] in workers)
    replies = spans.named("ServeApp.submit_run")
    hot = [r for r in replies if r[7] in ("memory", "store")]
    metrics = {
        "rng.spawn_s": spans.layer_self("rng") * per,
        "rng.streams": streams * per,
        "topology.build_s": spans.layer_self("topology") * per,
        "topology.builds": count("TopologySpec.build") * per,
        "topology.memo_hit_ratio": _ratio(memo_hits, len(cached)),
        "engine.run_s": spans.layer_self("engine") * per,
        "engine.rounds": spans.counters["repro_engine_rounds_total"] * per,
        "engine.msg_units": spans.counters["repro_engine_message_units_total"] * per,
        "walk.endpoint_s": spans.layer_self("walk") * per,
        "walk.endpoints": count("RandomWalk.endpoint") * per,
        "quantum.sample_s": spans.layer_self("quantum") * per,
        "quantum.samples": sum(
            count(n) for n in ("sample_attempt", "sample_counting_estimate", "sample_walk_attempt")
        )
        * per,
        "ledger.charges": count("CostLedger.charge") * per,
        "ledger.charge_s": spans.layer_self("ledger") * per,
        "driver.self_s": driver_s * per,
        "runner.trial_s": trial_s * per,
        "runner.trials": len(trials) * per,
        "runner.overhead_s": spans.layer_self("runner") * per,
        "store.load_s": sum(r[6] - r[5] for r in loads) * per,
        "store.save_s": spans.total("ResultStore.save") * per,
        "store.loads": len(loads) * per,
        "store.saves": count("ResultStore.save") * per,
        "store.hit_ratio": _ratio(sum(1 for r in loads if r[7] == "hit"), len(loads)),
        "fabric.job_s": statistics.fmean(job_s) if job_s else 0.0,
        "fabric.overhead_s": (sum(job_s) - worker_trial_s) / len(job_s) if job_s else 0.0,
        "serve.lookup_s": spans.self_of("RunCache.lookup") * per,
        "serve.payload_s": spans.total("run_payload") * per,
        "serve.handler_s.p50": (
            statistics.median(r[6] - r[5] for r in hot) if hot else 0.0
        ),
        "serve.tier_memory_ratio": _ratio(
            sum(1 for r in replies if r[7] == "memory"), len(replies)
        ),
        "serve.tier_store_ratio": _ratio(
            sum(1 for r in replies if r[7] == "store"), len(replies)
        ),
        "serve.cold_ratio": _ratio(
            sum(1 for r in replies if r[7] == "cold"), len(replies)
        ),
        "trace.coverage": _ratio(trial_s - driver_s, trial_s),
    }
    return metrics


def hot_engine_seconds(spans: SpanSet) -> float:
    """Engine time recorded under hot (cache-answered) served requests."""
    total = 0.0
    for reply in spans.named("ServeApp.submit_run"):
        if reply[7] in ("memory", "store"):
            total += sum(
                r[6] - r[5]
                for r in spans.descendants(reply)
                if r[4] == "SynchronousEngine.run"
            )
    return total
