"""End-to-end backend invariance: scenario aggregates don't depend on the
engine backend.  ``fast`` runs each protocol's array-native port and
``reference`` runs its scalar twin on the oracle loop, so these tests
check the ports against the oracle: E1 (complete-graph LE), E4
(diameter-2 LE), E7 (star search), and every batch-capable catalogue
scenario."""

import pytest

from repro.runtime import SCENARIOS, default_registry, experiment_pair, run_scenario

#: Small grids keeping the double (quantum + classical) runs test-speed.
_SMALL_GRIDS = {
    "E1": ((64, 128), 2),
    "E4": ((32, 48), 2),
    "E7": ((64, 128), 2),
}


@pytest.mark.parametrize("experiment", sorted(_SMALL_GRIDS))
def test_aggregates_are_backend_invariant(monkeypatch, experiment):
    quantum, classical = experiment_pair(experiment)
    sizes, trials = _SMALL_GRIDS[experiment]
    per_backend = {}
    for backend in ("fast", "reference"):
        monkeypatch.setenv("REPRO_ENGINE", backend)
        per_backend[backend] = (
            run_scenario(quantum, jobs=1, sizes=sizes, trials=trials).trial_sets,
            run_scenario(classical, jobs=1, sizes=sizes, trials=trials).trial_sets,
        )
    assert per_backend["fast"] == per_backend["reference"]


#: Catalogue scenarios whose protocol has an array-native port.
_BATCH_SCENARIOS = sorted(
    name
    for name, scenario in SCENARIOS.items()
    if "batch" in default_registry().get(scenario.protocol).supports
)


@pytest.mark.parametrize("name", _BATCH_SCENARIOS)
def test_port_matches_the_reference_oracle(monkeypatch, name):
    scenario = SCENARIOS[name]
    runs = {}
    for backend in ("fast", "reference"):
        monkeypatch.setenv("REPRO_ENGINE", backend)
        runs[backend] = run_scenario(
            scenario, jobs=1, sizes=scenario.sizes[:1], trials=1
        ).trial_sets
    assert runs["fast"] == runs["reference"]
