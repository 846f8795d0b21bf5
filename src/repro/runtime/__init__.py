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

from repro.adversary import AdversarySpec
from repro.runtime.catalog import (
    EXPERIMENT_SWEEPS,
    SCENARIOS,
    experiment_pair,
    get_scenario,
)
from repro.runtime.registry import (
    ProtocolRegistry,
    ProtocolSpec,
    TrialOutcome,
    default_registry,
    register_builtin_protocols,
)
from repro.runtime.runner import (
    ScenarioRun,
    TrialSet,
    aggregate_trials,
    fan_out,
    resolve_jobs,
    run_scenario,
)
from repro.runtime.scenario import (
    TOPOLOGY_FAMILIES,
    Scenario,
    TopologyFamily,
    TopologySpec,
    clear_topology_memo,
    topology_family,
)
from repro.runtime.store import DEFAULT_CACHE_DIR, ResultStore

__all__ = [
    "AdversarySpec",
    "DEFAULT_CACHE_DIR",
    "EXPERIMENT_SWEEPS",
    "ProtocolRegistry",
    "ProtocolSpec",
    "ResultStore",
    "SCENARIOS",
    "Scenario",
    "ScenarioRun",
    "TOPOLOGY_FAMILIES",
    "TopologyFamily",
    "TopologySpec",
    "TrialOutcome",
    "TrialSet",
    "aggregate_trials",
    "clear_topology_memo",
    "default_registry",
    "experiment_pair",
    "fan_out",
    "get_scenario",
    "register_builtin_protocols",
    "resolve_jobs",
    "run_scenario",
    "topology_family",
]
