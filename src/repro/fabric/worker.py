"""The fabric worker: pull shards, execute trials, push content-addressed
results.

A worker joins a fleet with nothing but the queue directory::

    repro worker /mnt/shared/sweep-42

Each shard is one grid position ``(scenario, n, seed-position)``.  The
worker re-derives the *exact* per-trial RNG streams the in-process runner
would use — the scenario root spawns one child per (size, trial) pair in
grid order, and the shard takes its contiguous slice — so a shard's
:class:`~repro.runtime.runner.TrialSet` is bit-identical no matter which
worker (or how many, or after how many crashes) executes it.  Results
land in the job's :class:`~repro.runtime.store.ResultStore` under the
same content-addressed keys (format v6) the cache layer uses, which makes
every shard idempotent: re-execution after a crash, a stale-lease
takeover, or a duplicated claim rewrites byte-identical files.

The worker heartbeats its lease once per trial.  A worker that dies
mid-shard simply stops heartbeating; the lease expires and the shard is
re-issued (see :mod:`repro.fabric.queue` for the reaping rules).

``SIGTERM`` is the *polite* stop: the worker finishes the trial it is
on, saves and marks the shard done if that trial was the last one,
releases its lease immediately (no TTL wait for the rest of the fleet),
and emits its ``worker_exit`` trace event with ``drained`` set.  Only
``SIGKILL`` still relies on lease expiry — that is the honest-crash
path :class:`FaultPlan` exercises.

:class:`FaultPlan` is the fault-injection harness for the fabric itself:
it lets tests and CI kill a worker mid-shard with a real ``SIGKILL`` (no
cleanup, no release — the honest crash) or scribble over its own lease
file, deterministically, after a fixed number of executed trials.
"""

from __future__ import annotations

import logging
import os
import signal
import socket
import threading
import time
from dataclasses import dataclass
from time import perf_counter

from repro.fabric.coordinator import elect_reaper, shard_preference
from repro.fabric.queue import FabricQueue
from repro.runtime.runner import TrialSet, aggregate_trials
from repro.runtime.scenario import Scenario
from repro.telemetry import current_profiler, current_tracer, metrics_registry
from repro.util.rng import RandomSource

logger = logging.getLogger(__name__)

__all__ = [
    "FaultPlan",
    "execute_shard",
    "run_worker",
    "shard_trial_rngs",
    "worker_entry",
]


class _DrainRequested(Exception):
    """Internal: SIGTERM asked us to stop after the trial that just ran."""


@dataclass(frozen=True)
class FaultPlan:
    """Deterministic fault injection for fabric workers (tests, CI smoke).

    Counters are cumulative over every trial the worker executes, so a
    plan composes with any shard assignment.
    """

    #: After this many executed trials, SIGKILL ourselves mid-shard: the
    #: lease survives un-released with a fresh heartbeat — exactly the
    #: footprint of a worker whose host died.
    kill_after_trials: int | None = None
    #: After this many executed trials, overwrite our own lease file with
    #: garbage (a torn write / bad NFS client): the shard must still
    #: complete, through us or through a takeover.
    corrupt_lease_after_trials: int | None = None

    def fire(self, queue: FabricQueue, shard_id: str, trials_done: int) -> None:
        if (
            self.corrupt_lease_after_trials is not None
            and trials_done == self.corrupt_lease_after_trials
        ):
            (queue.leases_dir / f"{shard_id}.json").write_text("{torn lease")
        if (
            self.kill_after_trials is not None
            and trials_done >= self.kill_after_trials
        ):
            os.kill(os.getpid(), signal.SIGKILL)


def shard_trial_rngs(scenario: Scenario, position: int) -> list[RandomSource]:
    """The per-trial RNGs of one grid position, exactly as ``run_scenario``
    derives them.

    The runner spawns one child per (size, trial) pair in grid order;
    ``SeedSequence`` spawning is a pure function of (seed, child index),
    so slicing the same flat sequence reproduces the streams bit for bit.
    """
    root = RandomSource(scenario.seed)
    children = root.spawn_many(len(scenario.sizes) * scenario.trials)
    start = position * scenario.trials
    return children[start : start + scenario.trials]


def execute_shard(
    scenario: Scenario, position: int, on_trial=None
) -> TrialSet:
    """Run one shard's trials serially and fold them into a trial set.

    ``on_trial(index)`` fires after each completed trial (1-based) — the
    worker loop hangs its lease heartbeat and fault plan there.
    """
    n = scenario.sizes[position]
    outcomes = []
    for index, rng in enumerate(shard_trial_rngs(scenario, position)):
        outcomes.append(scenario.run_trial(n, rng))
        if on_trial is not None:
            on_trial(index + 1)
    return aggregate_trials(n, outcomes)


def _claim_next(queue: FabricQueue, worker_id: str) -> tuple[str, str] | None:
    """The next ``(shard_id, mode)`` this worker should run, or None to wait.

    Two passes over the deterministic preference order: free shards
    first (``mode="claim"``), then expired/corrupt leases this worker is
    entitled to reap (``mode="steal"`` — the elected reaper immediately,
    everyone else after the grace).
    """
    pending = queue.pending_shards()
    if not pending:
        return None
    workers = queue.live_workers()
    reaper = elect_reaper(queue, workers)
    order = shard_preference(pending, worker_id, workers)
    for shard_id in order:
        state, _ = queue.lease_state(shard_id)
        if state == "free" and queue.claim(shard_id, worker_id):
            return shard_id, "claim"
    for shard_id in order:
        if queue.may_reap(shard_id, worker_id, reaper) and queue.break_lease(
            shard_id, worker_id
        ):
            return shard_id, "steal"
    return None


def run_worker(
    fabric_dir,
    worker_id: str | None = None,
    poll: float = 0.2,
    max_shards: int | None = None,
    fault_plan: FaultPlan | None = None,
    drain: threading.Event | None = None,
) -> dict:
    """Join the fleet at ``fabric_dir`` and work until the sweep is done.

    Returns a summary dict (worker id, completed shard ids, trials run,
    whether the exit was a drain).  The loop is crash-oriented: every
    step either completes a shard idempotently or leaves a lease that
    expires on its own — there is no state a ``SIGKILL`` at any
    instruction can corrupt.

    ``drain`` is the graceful-stop signal: when set (by SIGTERM — wired
    up automatically when running on the main thread — or by a caller),
    the worker finishes the trial in flight, abandons the rest of the
    shard, releases its lease, and exits cleanly.  A drain that lands on
    a shard's *last* trial lets the normal save + mark-done path finish
    first, so the work is never thrown away needlessly.
    """
    drain = threading.Event() if drain is None else drain
    installed = False
    previous_sigterm = None
    if threading.current_thread() is threading.main_thread():
        previous_sigterm = signal.signal(
            signal.SIGTERM, lambda signum, frame: drain.set()
        )
        installed = True
    try:
        return _run_worker_loop(
            fabric_dir, worker_id, poll, max_shards, fault_plan, drain
        )
    finally:
        if installed:
            signal.signal(
                signal.SIGTERM,
                signal.SIG_DFL if previous_sigterm is None else previous_sigterm,
            )


def _run_worker_loop(
    fabric_dir,
    worker_id: str | None,
    poll: float,
    max_shards: int | None,
    fault_plan: FaultPlan | None,
    drain: threading.Event,
) -> dict:
    queue = FabricQueue(fabric_dir)
    # The manifest parse is the worker's serialize cost — charged to its
    # phase breakdown so `repro profile`/status can show where slow
    # shared-filesystem startups go.
    t_serialize = perf_counter()
    scenario = queue.scenario()
    store = queue.store()
    serialize_seconds = perf_counter() - t_serialize
    if worker_id is None:
        worker_id = f"{socket.gethostname()}-{os.getpid()}"
    queue.register_worker(worker_id)
    tracer = current_tracer()
    prof = current_profiler()
    if prof is not None:
        prof.add("fabric.serialize", serialize_seconds)
    if tracer.enabled:
        tracer.emit("worker_start", worker=worker_id, fabric=str(fabric_dir))
    logger.info("worker %s joined fabric %s", worker_id, fabric_dir)
    registry = metrics_registry()
    #: Live counters published through the enriched worker heartbeat —
    #: `repro fabric status` derives shards/min and trials/min from them.
    counters: dict = {
        "trials_executed": 0,
        "shards_claimed": 0,
        "shards_stolen": 0,
        "shards_completed": 0,
        "store_hits": 0,
        "claim_seconds": 0.0,
        "serialize_seconds": round(serialize_seconds, 6),
        "execute_seconds": 0.0,
        "save_seconds": 0.0,
    }
    completed: list[str] = []
    trials_done = 0
    while (
        not drain.is_set()
        and (max_shards is None or len(completed) < max_shards)
    ):
        queue.touch_worker(worker_id, counters=counters)
        t_claim = perf_counter()
        claimed = _claim_next(queue, worker_id)
        claim_seconds = perf_counter() - t_claim
        counters["claim_seconds"] = round(
            counters["claim_seconds"] + claim_seconds, 6
        )
        if prof is not None:
            prof.add("fabric.claim", claim_seconds)
        if claimed is None:
            if queue.all_done():
                break
            time.sleep(poll)
            continue
        shard_id, mode = claimed
        counters["shards_stolen" if mode == "steal" else "shards_claimed"] += 1
        if tracer.enabled:
            tracer.emit(
                "shard_claim", worker=worker_id, shard=shard_id, mode=mode
            )
        if mode == "steal":
            logger.warning("worker %s stole expired lease on %s", worker_id, shard_id)
        shard = queue.shard(shard_id)
        position, n = int(shard["position"]), int(shard["n"])
        shard_trials = 0
        abandoned = False
        try:
            trial_set = store.load(scenario, n, position)
            if trial_set is None:

                def on_trial(index: int) -> None:
                    nonlocal trials_done, shard_trials
                    trials_done += 1
                    shard_trials += 1
                    counters["trials_executed"] += 1
                    queue.heartbeat(shard_id, worker_id)
                    queue.touch_worker(worker_id, counters=counters)
                    if fault_plan is not None:
                        fault_plan.fire(queue, shard_id, trials_done)
                    # A drain landing on the shard's last trial changes
                    # nothing — let the normal save/mark-done finish.
                    if drain.is_set() and index < scenario.trials:
                        raise _DrainRequested

                t_execute = perf_counter()
                try:
                    trial_set = execute_shard(scenario, position, on_trial)
                except _DrainRequested:
                    abandoned = True
                execute_seconds = perf_counter() - t_execute
                counters["execute_seconds"] = round(
                    counters["execute_seconds"] + execute_seconds, 6
                )
                if prof is not None:
                    prof.add("fabric.execute", execute_seconds)
                if abandoned:
                    logger.info(
                        "worker %s draining: abandoning %s after trial %d/%d",
                        worker_id, shard_id, shard_trials, scenario.trials,
                    )
                else:
                    registry.histogram("repro_fabric_shard_seconds").observe(
                        execute_seconds
                    )
                    t_save = perf_counter()
                    path = store.save(scenario, n, position, trial_set)
                    save_seconds = perf_counter() - t_save
                    counters["save_seconds"] = round(
                        counters["save_seconds"] + save_seconds, 6
                    )
                    if prof is not None:
                        prof.add("fabric.save", save_seconds)
            else:
                # Resume/dedup: the result is already content-addressed
                # in the store — only the done marker is missing.
                counters["store_hits"] += 1
                path = store.path_for(scenario, n, position)
            if not abandoned:
                queue.mark_done(
                    shard_id,
                    worker_id,
                    {"position": position, "n": n, "store_file": path.name},
                )
                completed.append(shard_id)
                counters["shards_completed"] += 1
                if tracer.enabled:
                    tracer.emit(
                        "shard_done",
                        worker=worker_id,
                        shard=shard_id,
                        trials=shard_trials,
                        n=n,
                        position=position,
                    )
                logger.info(
                    "worker %s completed %s (n=%d)", worker_id, shard_id, n
                )
        finally:
            # Releasing here is what makes the drain *graceful*: the
            # abandoned shard is free for the rest of the fleet right
            # now, not after a lease-TTL expiry.
            queue.release(shard_id, worker_id)
    queue.touch_worker(worker_id, counters=counters)
    queue.reap_done_leases()
    drained = drain.is_set()
    if tracer.enabled:
        tracer.emit(
            "worker_exit",
            worker=worker_id,
            shards=len(completed),
            trials=trials_done,
            drained=drained,
        )
    logger.info(
        "worker %s exiting%s: %d shards, %d trials",
        worker_id, " (drained)" if drained else "", len(completed), trials_done,
    )
    return {
        "worker": worker_id,
        "completed": completed,
        "trials": trials_done,
        "all_done": queue.all_done(),
        "drained": drained,
        "counters": dict(counters),
    }


def worker_entry(
    fabric_dir: str,
    worker_id: str | None = None,
    fault_plan: FaultPlan | None = None,
    poll: float = 0.2,
) -> None:
    """Module-level process target (picklable under any start method)."""
    run_worker(fabric_dir, worker_id=worker_id, poll=poll, fault_plan=fault_plan)
