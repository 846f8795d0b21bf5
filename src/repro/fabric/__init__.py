"""Distributed sweep fabric: a multi-host work-queue executor.

``fan_out`` saturates one box; the fabric saturates a fleet.  A sweep is
decomposed into shards — one per grid position ``(scenario, n,
seed-position)`` — published as files in a shared queue directory.
Workers (``repro worker DIR``) pull shards under heartbeat leases,
execute them through the existing ``run_scenario`` trial path with
bit-identical per-trial RNG derivation, and push results into the
content-addressed :class:`~repro.runtime.store.ResultStore` (key format
v6).  Idempotent shards + atomic lease files make any sweep resumable
after worker crashes: a dead worker's lease expires and the shard is
re-issued; duplicate completions write byte-identical files.

The fleet dogfoods the repo's own protocols: the lease reaper is elected
by simulating the registry's ring LCR over the live workers (see
:mod:`repro.fabric.coordinator`).

Serial, process-pool, and fabric execution of the same grid produce
identical :class:`~repro.runtime.runner.TrialSet` aggregates and
identical store contents — property-tested, and exercised under fault
injection (mid-shard SIGKILL, corrupted leases, double claims) in
``tests/fabric/``.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.fabric.coordinator": (
            "collect",
            "elect_reaper",
            "fabric_status",
            "run_fabric_sweep",
            "shard_preference",
        ),
        "repro.fabric.queue": (
            "DEFAULT_LEASE_TTL",
            "FabricQueue",
            "IncompleteSweepError",
            "list_jobs",
        ),
        "repro.fabric.serialize": (
            "adversary_from_dict",
            "scenario_from_dict",
            "scenario_to_dict",
        ),
        "repro.fabric.worker": (
            "FaultPlan",
            "execute_shard",
            "run_worker",
            "shard_trial_rngs",
            "worker_entry",
        ),
    },
)
