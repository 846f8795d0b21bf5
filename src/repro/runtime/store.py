"""On-disk result cache: resume and extend sweeps incrementally.

A :class:`ResultStore` persists one :class:`~repro.runtime.runner.TrialSet`
per JSON file under a cache directory (default
``benchmarks/results/cache/``, resolved against the working directory;
pin it with ``REPRO_RESULT_CACHE``).  The cache key digests everything
that determines a trial set bit-for-bit — protocol, topology spec,
protocol params, normalization, adversary spec, seed, trial count, size,
and the size's grid position (seeds are spawned in grid order) — so a
cache hit is
always exact: ``repro sweep`` re-run with the same scenario skips straight
to aggregation, and appending sizes to the grid only computes the new
ones.

Engine backend, kernel tier and job count are deliberately *not* part of
the key: all three are required (and tested) to leave aggregates
bit-identical.  So a ``fast`` run (the array-native ports) and a
``reference`` run (their scalar twins on the oracle loop) share entries.

Long-lived processes (``repro serve``) can additionally enable an
in-process **memory tier** (``memory_entries=N`` or
``REPRO_RESULT_CACHE_MEM``): a thread-safe LRU of deserialized trial
sets in front of the disk files, with a single-flight table so many
threads asking for the same key trigger exactly one disk read.  The
memory tier never changes what :meth:`load` returns — it only skips
re-parsing JSON — and it is off by default, so short-lived CLI runs and
multi-process fabric workers (whose memory would never be shared anyway)
keep the plain disk path.
"""

from __future__ import annotations

import hashlib
import json
import os
import pathlib
import re
import threading
from collections import OrderedDict
from typing import TYPE_CHECKING

from repro.telemetry import metrics_registry

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.runtime.runner import TrialSet
    from repro.runtime.scenario import Scenario

__all__ = ["DEFAULT_CACHE_DIR", "DEFAULT_CACHE_MAX_ENTRIES", "ResultStore"]

#: Default cache location, overridable via ``REPRO_RESULT_CACHE``.
DEFAULT_CACHE_DIR = "benchmarks/results/cache"

#: Default entry cap, overridable via ``REPRO_RESULT_CACHE_MAX``.
DEFAULT_CACHE_MAX_ENTRIES = 4096

#: Bump when the on-disk layout changes; old entries are simply missed.
#: v2: identity gained the scenario's adversary spec.
#: v3: identity records the *resolved* node API ("batch"/"scalar"), so
#: cached scalar trial sets are never served for batch runs or vice versa.
#: Both APIs are tested bit-identical, but the key must tell them apart —
#: an entry should always reproduce under the dispatch path it names.
#: The adversary convention is unchanged: fault-free scenarios keep a
#: ``None`` adversary field, so fault-free keys stay stable within v3
#: regardless of which adversary flags other runs use.
#: v4: the adversary identity dict gained the adaptive/eavesdrop fields
#: (``adaptive``, ``adaptive_rate``, ``adaptive_after``,
#: ``eavesdrop_rate``, ``eavesdrop_edges``, ``eavesdrop_drop_rate``), so
#: a traffic-conditioned adversary never collides with the static spec
#: sharing its other fields.  Fault-free keys change only by the version
#: bump itself.
#: v5: the per-node draws of KPP, CPR, engine-driven AMP18, LCR and HS
#: changed (candidacy and ranks from one lottery column, ring ids from
#: one id column, private streams only for candidates), so trial sets
#: computed before the change are never served for the new code.
#: v6: the mixing-time LE drivers (QuantumRWLE and the classical
#: random-walk LE) walk every token of a trial as one column from one child
#: stream, so their trial sets changed for a fixed seed.
#: v7: the identity drops the node API.  The engine backend picks the
#: program (port or scalar twin), and the two send the same messages, so
#: fast and reference runs share one entry.
_FORMAT_VERSION = 7


def _default_root() -> pathlib.Path:
    return pathlib.Path(os.environ.get("REPRO_RESULT_CACHE", DEFAULT_CACHE_DIR))


def _default_max_entries() -> int:
    raw = os.environ.get("REPRO_RESULT_CACHE_MAX", "")
    return int(raw) if raw else DEFAULT_CACHE_MAX_ENTRIES


def _default_memory_entries() -> int:
    raw = os.environ.get("REPRO_RESULT_CACHE_MEM", "")
    return int(raw) if raw else 0


def _slug(name: str) -> str:
    return re.sub(r"[^A-Za-z0-9._-]+", "_", name)


class _InFlightLoad:
    """One pending disk load; followers park on the event."""

    __slots__ = ("event", "result")

    def __init__(self):
        self.event = threading.Event()
        self.result: "TrialSet | None" = None


class ResultStore:
    """Directory of cached trial sets keyed on (scenario identity, n).

    The store is size-capped: whenever a save pushes the entry count past
    ``max_entries``, the least-recently-written files are evicted (an
    eviction only ever costs a recompute — every entry is reproducible
    from its scenario).
    """

    def __init__(
        self,
        root: str | os.PathLike | None = None,
        max_entries: int | None = None,
        memory_entries: int | None = None,
    ):
        self.root = pathlib.Path(root) if root is not None else _default_root()
        self.max_entries = (
            max_entries if max_entries is not None else _default_max_entries()
        )
        if self.max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {self.max_entries}")
        self.memory_entries = (
            memory_entries
            if memory_entries is not None
            else _default_memory_entries()
        )
        if self.memory_entries < 0:
            raise ValueError(
                f"memory_entries must be >= 0, got {self.memory_entries}"
            )
        self._memory: OrderedDict[str, "TrialSet"] = OrderedDict()
        self._memory_lock = threading.Lock()
        self._inflight: dict[str, _InFlightLoad] = {}

    # -- keying ----------------------------------------------------------------

    @staticmethod
    def identity(scenario: "Scenario", n: int, position: int) -> dict:
        """Everything that determines the trial set at size ``n``.

        ``position`` is the size's index in the grid: per-trial seeds are
        spawned from the scenario seed *in grid order*, so a trial set is
        only reusable at the same grid position.  Appending sizes to a grid
        keeps earlier positions stable (the resume pattern); reordering or
        prepending changes them and correctly misses the cache.
        """
        return {
            "version": _FORMAT_VERSION,
            "protocol": scenario.protocol,
            "topology": {
                "family": scenario.topology.family,
                "params": [list(item) for item in scenario.topology.params],
                "fixed_seed": scenario.topology.fixed_seed,
            },
            "params": [list(item) for item in scenario.params],
            "normalize_by": scenario.normalize_by,
            "adversary": (
                scenario.adversary.key_dict()
                if scenario.adversary is not None
                else None
            ),
            "seed": scenario.seed,
            "trials": scenario.trials,
            "n": n,
            "position": position,
        }

    def path_for(self, scenario: "Scenario", n: int, position: int) -> pathlib.Path:
        identity = self.identity(scenario, n, position)
        digest = hashlib.sha256(
            json.dumps(identity, sort_keys=True, default=str).encode()
        ).hexdigest()[:16]
        return self.root / f"{_slug(scenario.name)}-n{n}-{digest}.json"

    # -- IO --------------------------------------------------------------------

    def load(
        self, scenario: "Scenario", n: int, position: int
    ) -> "TrialSet | None":
        """The cached trial set for this exact (scenario, n, position).

        With the memory tier enabled, concurrent loads of one key are
        single-flighted: the first thread in does the disk read, everyone
        else waits on it and shares the same deserialized object.
        ``repro_store_memory_{hits,misses}_total`` count tier-1 traffic;
        the existing ``repro_store_{hits,misses}_total`` keep counting
        actual disk reads, so "one disk load for N callers" is visible in
        the metrics.
        """
        if not self.memory_entries:
            return self._load_disk(scenario, n, position)
        key = self.path_for(scenario, n, position).name
        registry = metrics_registry()
        with self._memory_lock:
            cached = self._memory.get(key)
            if cached is not None:
                self._memory.move_to_end(key)
                registry.counter("repro_store_memory_hits_total").inc()
                return cached
            flight = self._inflight.get(key)
            leader = flight is None
            if leader:
                flight = _InFlightLoad()
                self._inflight[key] = flight
        if not leader:
            flight.event.wait()
            tier1 = (
                "repro_store_memory_hits_total"
                if flight.result is not None
                else "repro_store_memory_misses_total"
            )
            registry.counter(tier1).inc()
            return flight.result
        registry.counter("repro_store_memory_misses_total").inc()
        try:
            result = self._load_disk(scenario, n, position)
            flight.result = result
            if result is not None:
                self._memory_put(key, result)
            return result
        finally:
            with self._memory_lock:
                self._inflight.pop(key, None)
            flight.event.set()

    def _memory_put(self, key: str, trial_set: "TrialSet") -> None:
        with self._memory_lock:
            self._memory[key] = trial_set
            self._memory.move_to_end(key)
            while len(self._memory) > self.memory_entries:
                self._memory.popitem(last=False)

    def _load_disk(
        self, scenario: "Scenario", n: int, position: int
    ) -> "TrialSet | None":
        from repro.runtime.runner import TrialSet

        path = self.path_for(scenario, n, position)
        registry = metrics_registry()
        try:
            payload = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError):
            registry.counter("repro_store_misses_total").inc()
            return None
        if payload.get("identity") != self.identity(scenario, n, position):
            registry.counter("repro_store_misses_total").inc()
            return None  # digest collision or stale layout: recompute
        registry.counter("repro_store_hits_total").inc()
        fields = payload["trial_set"]
        return TrialSet(
            n=int(fields["n"]),
            trials=int(fields["trials"]),
            success_rate=float(fields["success_rate"]),
            messages_mean=float(fields["messages_mean"]),
            messages_std=float(fields["messages_std"]),
            messages_p50=float(fields["messages_p50"]),
            messages_p90=float(fields["messages_p90"]),
            messages_max=float(fields["messages_max"]),
            rounds_mean=float(fields["rounds_mean"]),
            extra=dict(fields.get("extra", {})),
        )

    def save(
        self, scenario: "Scenario", n: int, position: int, trial_set: "TrialSet"
    ) -> pathlib.Path:
        """Persist one trial set; returns the file written."""
        import dataclasses

        path = self.path_for(scenario, n, position)
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {
            "identity": self.identity(scenario, n, position),
            "scenario": scenario.name,
            "trial_set": dataclasses.asdict(trial_set),
        }
        # The tmp name is pid-unique: two processes saving the same key
        # concurrently (fabric workers deduping a shard, a takeover racing
        # a slow owner) must never interleave writes into one tmp file —
        # each replaces its own complete document atomically.
        tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
        tmp.write_text(json.dumps(payload, sort_keys=True, default=str, indent=1))
        tmp.replace(path)  # atomic on POSIX: readers never see partial JSON
        metrics_registry().counter("repro_store_saves_total").inc()
        if self.memory_entries:
            self._memory_put(path.name, trial_set)
        self.evict()
        return path

    # -- hygiene ---------------------------------------------------------------

    def entries(self) -> list[pathlib.Path]:
        """Every cache file, oldest write first.

        Files that vanish mid-listing (a concurrent sweep's eviction or a
        ``clear``) are silently skipped — the cache directory is shared.
        """
        if not self.root.is_dir():
            return []
        stamped = []
        for path in self.root.glob("*.json"):
            try:
                stamped.append((path.stat().st_mtime, path.name, path))
            except OSError:
                continue
        return [path for _, _, path in sorted(stamped)]

    def stats(self) -> dict:
        """Cache summary: root, entry count, total bytes, entry cap."""
        paths = self.entries()
        total = 0
        for path in paths:
            try:
                total += path.stat().st_size
            except OSError:
                continue
        with self._memory_lock:
            memory_entries = len(self._memory)
        return {
            "root": str(self.root),
            "entries": len(paths),
            "bytes": total,
            "max_entries": self.max_entries,
            "memory_entries": memory_entries,
            "memory_entries_cap": self.memory_entries,
        }

    def evict(self) -> int:
        """Drop least-recently-written entries beyond ``max_entries``."""
        # Runs on every save: bail on a bare count of entry names (one
        # listdir pass; ``*.tmp`` files never count) before paying for the
        # per-file stat + sort that ordering the eviction needs.
        try:
            names = os.listdir(self.root)
        except OSError:  # no cache directory (yet)
            return 0
        if sum(name.endswith(".json") for name in names) <= self.max_entries:
            return 0
        paths = self.entries()
        excess = len(paths) - self.max_entries
        for path in paths[:excess]:
            path.unlink(missing_ok=True)
        if excess > 0:
            metrics_registry().counter("repro_store_evictions_total").inc(excess)
        return max(0, excess)

    def clear(self) -> int:
        """Delete every cache entry; returns how many files were removed.

        Also sweeps orphaned ``*.tmp`` files (a writer killed between its
        tmp write and the atomic replace); those never count as entries.
        """
        removed = 0
        if self.root.is_dir():
            for path in self.root.glob("*.json"):
                path.unlink(missing_ok=True)
                removed += 1
            for path in self.root.glob("*.tmp"):
                path.unlink(missing_ok=True)
        with self._memory_lock:
            self._memory.clear()
        return removed
