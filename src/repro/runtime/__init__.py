"""Unified protocol registry + scenario runtime with parallel trial execution.

Three layers:

* :mod:`repro.runtime.registry` — every protocol registers a
  :class:`ProtocolSpec`; consumers dispatch by name instead of if/elif;
* :mod:`repro.runtime.scenario` — frozen (protocol × topology × size-grid)
  bindings with deterministic per-trial seed derivation;
* :mod:`repro.runtime.runner` — fans trials over a process pool and
  aggregates :class:`TrialSet` statistics that feed the unchanged
  ``ScalingSeries``/``PowerLawFit`` pipeline.

The named sweeps live in :mod:`repro.runtime.catalog`.  Two caches make
repeated sweeps cheap without changing any result: a per-worker topology
memo (:meth:`TopologySpec.build_cached`) and the on-disk
:class:`~repro.runtime.store.ResultStore` that lets ``repro sweep`` resume
and extend grids incrementally.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.adversary.spec": ("AdversarySpec",),
        "repro.runtime.catalog": (
            "EXPERIMENT_SWEEPS",
            "SCENARIOS",
            "experiment_pair",
            "get_scenario",
        ),
        "repro.runtime.registry": (
            "ProtocolRegistry",
            "ProtocolSpec",
            "TrialOutcome",
            "default_registry",
            "register_builtin_protocols",
        ),
        "repro.runtime.runner": (
            "ScenarioRun",
            "TrialSet",
            "aggregate_trials",
            "fan_out",
            "resolve_jobs",
            "run_scenario",
        ),
        "repro.runtime.scenario": (
            "TOPOLOGY_FAMILIES",
            "Scenario",
            "TopologyFamily",
            "TopologySpec",
            "clear_topology_memo",
            "topology_family",
        ),
        "repro.runtime.store": ("DEFAULT_CACHE_DIR", "ResultStore"),
    },
)
