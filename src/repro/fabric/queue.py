"""File-based work queue: shard files, lease claims, done markers.

One fabric directory holds one sweep job::

    <root>/
      manifest.json        the sweep: serialized scenario + lease policy
      shards/p0003.json    one file per grid position (scenario, n, position)
      leases/p0003.json    claim held by the worker executing the shard
      done/p0003.json      completion marker (idempotent; duplicates merge)
      workers/<id>.json    worker registrations (mtime doubles as heartbeat)
      results/             the job's ResultStore (unless the manifest pins
                           another root) — content-addressed, key format v6

Every mutation is either an atomic create (``O_CREAT | O_EXCL`` — the
claim primitive) or an atomic replace (tmp + ``os.replace``), so workers
on a shared filesystem never observe partial JSON.

**Leases are an efficiency mechanism, not a correctness mechanism.**  A
shard's result is content-addressed in the :class:`ResultStore` (the key
digests the scenario identity, size, and grid position), so two workers
that both execute the same shard — a stale-lease takeover racing a slow
but live owner, or a broken double claim — write byte-identical files to
the same key.  Correctness never depends on mutual exclusion; leases only
keep the fleet from burning work.

A lease is *live* while its heartbeat is younger than the TTL, *expired*
after that, and *corrupt* when unparseable (fault injection, torn
external writes).  Expired and corrupt leases are re-issued: the elected
reaper (see :mod:`repro.fabric.coordinator`) breaks them as soon as they
expire, any other worker after an extra grace of ``2 × ttl`` — liveness
survives the reaper itself dying.

All time-dependent predicates take an explicit ``now`` so tests drive a
synthetic clock instead of sleeping.
"""

from __future__ import annotations

import json
import os
import pathlib
import socket
import time

from repro.fabric.serialize import scenario_from_dict, scenario_to_dict
from repro.runtime.scenario import Scenario
from repro.runtime.store import ResultStore
from repro.telemetry import metrics_registry

__all__ = [
    "DEFAULT_LEASE_TTL",
    "FabricQueue",
    "IncompleteSweepError",
]

#: Default lease heartbeat TTL in seconds.  Workers heartbeat once per
#: trial, so the TTL only needs to cover the slowest single trial plus
#: filesystem latency; tests shrink it to fractions of a second.
DEFAULT_LEASE_TTL = 30.0

#: Grace multiplier for non-reaper takeovers: a worker that is not the
#: elected reaper waits this many extra TTLs before breaking an expired
#: lease, so the common case is one reaper and no takeover herd.
_REAP_GRACE_TTLS = 2.0


class IncompleteSweepError(RuntimeError):
    """Raised when collecting a sweep whose shards are not all done."""


def _atomic_write(path: pathlib.Path, payload: dict) -> None:
    """Write JSON so concurrent readers only ever see complete documents."""
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    tmp.write_text(json.dumps(payload, sort_keys=True, indent=1))
    tmp.replace(path)


def _read_json(path: pathlib.Path) -> dict | None:
    """The parsed document, or None when missing/torn/corrupt."""
    try:
        payload = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError):
        return None
    return payload if isinstance(payload, dict) else None


class FabricQueue:
    """One sweep job's shared queue directory (see module docstring)."""

    def __init__(self, root: str | os.PathLike):
        self.root = pathlib.Path(root)

    # -- layout ----------------------------------------------------------------

    @property
    def manifest_path(self) -> pathlib.Path:
        return self.root / "manifest.json"

    @property
    def shards_dir(self) -> pathlib.Path:
        return self.root / "shards"

    @property
    def leases_dir(self) -> pathlib.Path:
        return self.root / "leases"

    @property
    def done_dir(self) -> pathlib.Path:
        return self.root / "done"

    @property
    def workers_dir(self) -> pathlib.Path:
        return self.root / "workers"

    def _shard_name(self, position: int) -> str:
        return f"p{position:04d}"

    # -- job lifecycle ---------------------------------------------------------

    def create_job(
        self,
        scenario: Scenario,
        lease_ttl: float = DEFAULT_LEASE_TTL,
        store_root: str | os.PathLike | None = None,
        store_max_entries: int | None = None,
    ) -> dict:
        """Lay the job out on disk; idempotent for an identical scenario.

        Re-creating over an existing manifest is the resume path: the
        shard files and any done markers are kept, so a fresh fleet picks
        up exactly where the crashed one stopped.  A *different* scenario
        in the same directory is refused — one directory, one job.
        """
        if lease_ttl <= 0:
            raise ValueError(f"lease_ttl must be > 0, got {lease_ttl}")
        existing = _read_json(self.manifest_path)
        description = scenario_to_dict(scenario)
        if existing is not None:
            if existing.get("scenario") != description:
                raise ValueError(
                    f"fabric dir {self.root} already holds a different "
                    f"sweep ({existing.get('scenario', {}).get('name')!r}); "
                    f"one directory carries one job"
                )
            return existing
        for directory in (
            self.root, self.shards_dir, self.leases_dir,
            self.done_dir, self.workers_dir,
        ):
            directory.mkdir(parents=True, exist_ok=True)
        manifest = {
            "scenario": description,
            "lease_ttl": lease_ttl,
            "store_root": (None if store_root is None else str(store_root)),
            "store_max_entries": store_max_entries,
            "created_at": time.time(),
        }
        for position, n in enumerate(scenario.sizes):
            _atomic_write(
                self.shards_dir / f"{self._shard_name(position)}.json",
                {"shard": self._shard_name(position), "position": position, "n": n},
            )
        _atomic_write(self.manifest_path, manifest)
        return manifest

    def manifest(self) -> dict:
        payload = _read_json(self.manifest_path)
        if payload is None:
            raise FileNotFoundError(
                f"no fabric job at {self.root} (missing or unreadable "
                f"manifest.json); create one with `repro sweep --fabric` "
                f"or FabricQueue.create_job"
            )
        return payload

    def scenario(self) -> Scenario:
        return scenario_from_dict(self.manifest()["scenario"])

    def lease_ttl(self) -> float:
        return float(self.manifest()["lease_ttl"])

    def store(self) -> ResultStore:
        """The job's result store (shared by every worker)."""
        manifest = self.manifest()
        root = manifest.get("store_root") or self.root / "results"
        return ResultStore(root, max_entries=manifest.get("store_max_entries"))

    # -- shards ----------------------------------------------------------------

    def shard_ids(self) -> list[str]:
        return sorted(p.stem for p in self.shards_dir.glob("p*.json"))

    def shard(self, shard_id: str) -> dict:
        payload = _read_json(self.shards_dir / f"{shard_id}.json")
        if payload is None:
            raise KeyError(f"unknown shard {shard_id!r} in {self.root}")
        return payload

    def pending_shards(self) -> list[str]:
        """Shards without a completion marker, in position order."""
        done = {p.stem for p in self.done_dir.glob("p*.json")}
        return [s for s in self.shard_ids() if s not in done]

    def all_done(self) -> bool:
        return not self.pending_shards()

    # -- workers ---------------------------------------------------------------

    def register_worker(self, worker_id: str) -> None:
        _atomic_write(
            self.workers_dir / f"{worker_id}.json",
            {
                "worker": worker_id,
                "pid": os.getpid(),
                "host": socket.gethostname(),
                "joined_at": time.time(),
            },
        )

    def touch_worker(self, worker_id: str, counters: dict | None = None) -> None:
        """Refresh the registration heartbeat (file mtime is the signal).

        With ``counters`` the registration document is rewritten to carry
        the worker's live counters and an explicit ``heartbeat_at`` — the
        enriched heartbeat ``repro fabric status`` derives per-worker
        throughput from.  Without counters it stays the cheap ``utime``.
        """
        path = self.workers_dir / f"{worker_id}.json"
        if counters is None:
            try:
                os.utime(path)
            except OSError:
                self.register_worker(worker_id)
            return
        record = _read_json(path)
        if record is None:
            self.register_worker(worker_id)
            record = _read_json(path) or {"worker": worker_id}
        record["heartbeat_at"] = time.time()
        record["counters"] = dict(counters)
        _atomic_write(path, record)

    def registered_workers(self) -> list[str]:
        return sorted(p.stem for p in self.workers_dir.glob("*.json"))

    def worker_record(self, worker_id: str) -> dict | None:
        """The worker's registration document (None when missing/torn)."""
        return _read_json(self.workers_dir / f"{worker_id}.json")

    def live_workers(self, now: float | None = None) -> list[str]:
        """Workers whose registration heartbeat is fresh (within 3 TTLs).

        Different workers may momentarily see different live sets while a
        death propagates; that only risks a duplicated shard execution,
        which the content-addressed store dedupes.
        """
        now = time.time() if now is None else now
        horizon = 3.0 * self.lease_ttl()
        alive = []
        for path in self.workers_dir.glob("*.json"):
            try:
                if now - path.stat().st_mtime <= horizon:
                    alive.append(path.stem)
            except OSError:
                continue
        return sorted(alive)

    # -- leases ----------------------------------------------------------------

    def _lease_path(self, shard_id: str) -> pathlib.Path:
        return self.leases_dir / f"{shard_id}.json"

    def claim(
        self, shard_id: str, worker_id: str, now: float | None = None
    ) -> bool:
        """Atomically claim a free shard (``O_CREAT | O_EXCL``)."""
        now = time.time() if now is None else now
        path = self._lease_path(shard_id)
        payload = {
            "shard": shard_id,
            "worker": worker_id,
            "pid": os.getpid(),
            "host": socket.gethostname(),
            "claimed_at": now,
            "heartbeat": now,
        }
        try:
            fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o644)
        except FileExistsError:
            return False
        with os.fdopen(fd, "w") as handle:
            json.dump(payload, handle, sort_keys=True)
        metrics_registry().counter("repro_fabric_claims_total").inc()
        return True

    def heartbeat(
        self, shard_id: str, worker_id: str, now: float | None = None
    ) -> None:
        """Refresh our lease (atomic replace; no-op if we lost it)."""
        now = time.time() if now is None else now
        lease = _read_json(self._lease_path(shard_id))
        if lease is None or lease.get("worker") != worker_id:
            return  # taken over (or corrupted) — the store dedupes the rest
        lease["heartbeat"] = now
        _atomic_write(self._lease_path(shard_id), lease)

    def release(self, shard_id: str, worker_id: str) -> None:
        """Drop our lease; leaves a takeover's lease untouched."""
        path = self._lease_path(shard_id)
        lease = _read_json(path)
        if lease is not None and lease.get("worker") != worker_id:
            return
        path.unlink(missing_ok=True)

    def lease_state(
        self, shard_id: str, now: float | None = None
    ) -> tuple[str, dict | None]:
        """``("free"|"live"|"expired"|"corrupt", lease_or_None)``.

        A corrupt lease carries no provable heartbeat; its file mtime
        stands in so a takeover still waits out the TTL (a torn write by
        a live owner heals on its next heartbeat).
        """
        now = time.time() if now is None else now
        path = self._lease_path(shard_id)
        if not path.exists():
            return "free", None
        lease = _read_json(path)
        if lease is None or "heartbeat" not in lease or "worker" not in lease:
            try:
                age = now - path.stat().st_mtime
            except OSError:
                return "free", None
            return ("expired" if age > self.lease_ttl() else "corrupt"), None
        age = now - float(lease["heartbeat"])
        return ("expired" if age > self.lease_ttl() else "live"), lease

    def break_lease(
        self, shard_id: str, worker_id: str, now: float | None = None
    ) -> bool:
        """Take over an expired/corrupt lease: unlink, then claim.

        Two breakers can race; at worst both run the shard and the store
        dedupes.  Returns True when our claim landed.
        """
        state, _ = self.lease_state(shard_id, now)
        if state not in ("expired", "corrupt"):
            return False
        self._lease_path(shard_id).unlink(missing_ok=True)
        if self.claim(shard_id, worker_id, now):
            metrics_registry().counter("repro_fabric_lease_breaks_total").inc()
            return True
        return False

    def may_reap(
        self,
        shard_id: str,
        worker_id: str,
        reaper: str | None,
        now: float | None = None,
    ) -> bool:
        """Is this worker allowed to break the shard's lease *now*?

        The elected reaper moves at expiry; everyone else waits an extra
        ``2 × ttl`` grace so the fleet does not stampede — but still
        converges if the reaper itself is the corpse.
        """
        now = time.time() if now is None else now
        state, lease = self.lease_state(shard_id, now)
        if state not in ("expired", "corrupt"):
            return False
        if worker_id == reaper or reaper is None:
            return True
        ttl = self.lease_ttl()
        if lease is None:
            try:
                age = now - self._lease_path(shard_id).stat().st_mtime
            except OSError:
                return True  # vanished: free to claim through claim()
        else:
            age = now - float(lease["heartbeat"])
        return age > ttl * (1.0 + _REAP_GRACE_TTLS)

    def reap_done_leases(self) -> int:
        """Unlink leases left behind on completed shards (crash between
        the done marker landing and the release)."""
        removed = 0
        done = {p.stem for p in self.done_dir.glob("p*.json")}
        for path in self.leases_dir.glob("p*.json"):
            if path.stem in done:
                path.unlink(missing_ok=True)
                removed += 1
        return removed

    # -- completion ------------------------------------------------------------

    def mark_done(self, shard_id: str, worker_id: str, payload: dict) -> None:
        """Write the completion marker; duplicate completions are merged
        (first marker wins — both describe byte-identical results)."""
        path = self.done_dir / f"{shard_id}.json"
        if path.exists():
            return
        record = {
            "shard": shard_id,
            "worker": worker_id,
            "completed_at": time.time(),
        }
        record.update(payload)
        try:
            fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o644)
        except FileExistsError:
            return
        with os.fdopen(fd, "w") as handle:
            json.dump(record, handle, sort_keys=True)
        metrics_registry().counter("repro_fabric_shards_done_total").inc()

    def done_record(self, shard_id: str) -> dict | None:
        return _read_json(self.done_dir / f"{shard_id}.json")

    # -- status ----------------------------------------------------------------

    def worker_detail(self, now: float | None = None) -> list[dict]:
        """Per-worker status rows with counter-derived throughput.

        Workers publishing enriched heartbeats (``touch_worker`` with
        counters) get ``trials_per_min``/``shards_per_min`` computed over
        their registered lifetime; legacy mtime-only heartbeats report
        ``counters: None`` and no rates.
        """
        now = time.time() if now is None else now
        live = set(self.live_workers(now))
        detail = []
        for worker_id in self.registered_workers():
            record = self.worker_record(worker_id) or {}
            counters = record.get("counters")
            joined_at = record.get("joined_at")
            heartbeat_at = record.get("heartbeat_at")
            row = {
                "worker": worker_id,
                "live": worker_id in live,
                "host": record.get("host"),
                "pid": record.get("pid"),
                "counters": counters,
                "trials_per_min": None,
                "shards_per_min": None,
                "age": (
                    None
                    if heartbeat_at is None
                    else round(now - float(heartbeat_at), 3)
                ),
            }
            if counters and joined_at is not None and heartbeat_at is not None:
                minutes = max(float(heartbeat_at) - float(joined_at), 1e-9) / 60.0
                row["trials_per_min"] = round(
                    counters.get("trials_executed", 0) / minutes, 3
                )
                row["shards_per_min"] = round(
                    counters.get("shards_completed", 0) / minutes, 3
                )
            detail.append(row)
        return detail

    def status(self, now: float | None = None) -> dict:
        """A JSON-ready snapshot for ``repro fabric status``."""
        now = time.time() if now is None else now
        manifest = self.manifest()
        shard_ids = self.shard_ids()
        done = {p.stem for p in self.done_dir.glob("p*.json")}
        leases = []
        for shard_id in shard_ids:
            state, lease = self.lease_state(shard_id, now)
            if state == "free":
                continue
            leases.append(
                {
                    "shard": shard_id,
                    "state": state,
                    "worker": None if lease is None else lease.get("worker"),
                    "age": (
                        None
                        if lease is None
                        else round(now - float(lease["heartbeat"]), 3)
                    ),
                }
            )
        return {
            "root": str(self.root),
            "scenario": manifest["scenario"]["name"],
            "protocol": manifest["scenario"]["protocol"],
            "sizes": manifest["scenario"]["sizes"],
            "trials": manifest["scenario"]["trials"],
            "lease_ttl": manifest["lease_ttl"],
            "shards": {
                "total": len(shard_ids),
                "done": len(done),
                "leased": len(leases),
                "pending": len(shard_ids) - len(done),
            },
            "workers": {
                "registered": self.registered_workers(),
                "live": self.live_workers(now),
                "detail": self.worker_detail(now),
            },
            "leases": leases,
        }

    def progress(self, now: float | None = None) -> dict:
        """A compact polling snapshot for ``repro serve`` job status.

        Cheaper than :meth:`status`: counts marker files instead of
        parsing every lease, and folds the workers' enriched heartbeat
        counters into a live trial total — the number a progress bar or
        SSE stream actually wants.
        """
        now = time.time() if now is None else now
        if _read_json(self.manifest_path) is None:
            return {
                "created": False,
                "shards": {"total": 0, "done": 0, "leased": 0, "pending": 0},
                "workers_live": 0,
                "trials_executed": 0,
            }
        shard_ids = self.shard_ids()
        done = {p.stem for p in self.done_dir.glob("p*.json")}
        leased = {p.stem for p in self.leases_dir.glob("p*.json")}
        trials = 0
        for worker_id in self.registered_workers():
            record = self.worker_record(worker_id) or {}
            counters = record.get("counters") or {}
            value = counters.get("trials_executed", 0)
            if isinstance(value, (int, float)):
                trials += int(value)
        return {
            "created": True,
            "shards": {
                "total": len(shard_ids),
                "done": len(done),
                "leased": len(leased - done),
                "pending": len(shard_ids) - len(done),
            },
            "workers_live": len(self.live_workers(now)),
            "trials_executed": trials,
        }

    def revalidate_done(self) -> int:
        """Drop done markers whose store entry has vanished; returns count.

        A done marker promises "the result is in the store", but the
        store is LRW-capped and shared — an eviction between runs can
        orphan the marker, and a resumed fleet would then collect a hole.
        Re-checking before spawning keeps :meth:`all_done` honest; the
        affected shards simply become pending again (recompute is always
        safe, the store is content-addressed).
        """
        scenario = self.scenario()
        store = self.store()
        removed = 0
        for marker in sorted(self.done_dir.glob("p*.json")):
            try:
                shard = self.shard(marker.stem)
            except KeyError:
                marker.unlink(missing_ok=True)
                removed += 1
                continue
            if store.load(scenario, int(shard["n"]), int(shard["position"])) is None:
                marker.unlink(missing_ok=True)
                removed += 1
        return removed


def list_jobs(root: str | os.PathLike) -> list[dict]:
    """One row per fabric job directory under ``root``, name-sorted.

    The ``repro serve`` job listing: each immediate subdirectory holding
    a readable manifest contributes its scenario identity plus a
    :meth:`FabricQueue.progress` snapshot.  Torn or foreign directories
    are skipped, not raised — the serve fabric root is long-lived.
    """
    root = pathlib.Path(root)
    rows: list[dict] = []
    if not root.is_dir():
        return rows
    for manifest_path in sorted(root.glob("*/manifest.json")):
        manifest = _read_json(manifest_path)
        if manifest is None:
            continue
        queue = FabricQueue(manifest_path.parent)
        scenario = manifest.get("scenario") or {}
        rows.append(
            {
                "job": manifest_path.parent.name,
                "dir": str(manifest_path.parent),
                "scenario": scenario.get("name"),
                "protocol": scenario.get("protocol"),
                "sizes": scenario.get("sizes"),
                "trials": scenario.get("trials"),
                "created_at": manifest.get("created_at"),
                "progress": queue.progress(),
            }
        )
    return rows
