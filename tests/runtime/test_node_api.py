"""Tests for how the engine backend picks the node program: registry
capability tags, scenario plumbing, and the v7 result-store keys that
fast and reference runs share."""

import pytest

from repro.runtime import (
    ResultStore,
    Scenario,
    default_registry,
    get_scenario,
    run_scenario,
)
from repro.runtime.store import _FORMAT_VERSION


class TestRegistry:
    def test_describe_dict_lists_supports(self):
        payload = default_registry().get("le-ring/lcr").describe_dict()
        assert payload["supports"] == ["adaptive", "batch", "faults"]
        assert payload["name"] == "le-ring/lcr"


class TestScenario:
    def test_scenario_has_no_node_api(self):
        scenario = get_scenario("ring-le/lcr")
        assert not hasattr(scenario, "node_api")
        with pytest.raises(TypeError):
            scenario.with_overrides(node_api="scalar")

    def test_amp18_engine_scenario_runs(self):
        run = run_scenario(
            get_scenario("agreement-engine/classical"),
            jobs=1,
            sizes=[16],
            trials=2,
        )
        assert run.trial_sets[0].trials == 2


class TestStoreKeysV7:
    def test_identity_has_no_node_api(self):
        scenario = get_scenario("ring-le/lcr")
        identity = ResultStore.identity(scenario, 8, 0)
        assert identity["version"] == _FORMAT_VERSION == 7
        assert "node_api" not in identity

    def test_reference_run_is_served_from_a_fast_entry(
        self, tmp_path, monkeypatch
    ):
        store = ResultStore(root=tmp_path)
        scenario = get_scenario("ring-le/lcr").with_overrides(sizes=(8,), trials=1)
        monkeypatch.setenv("REPRO_ENGINE", "fast")
        run = run_scenario(scenario, jobs=1, store=store)

        def explode(self, n, rng, registry=None):
            raise AssertionError("cache miss: trial recomputed")

        monkeypatch.setenv("REPRO_ENGINE", "reference")
        monkeypatch.setattr(Scenario, "run_trial", explode)
        assert run_scenario(scenario, jobs=1, store=store).trial_sets == (
            run.trial_sets
        )
        assert len(list(tmp_path.glob("*.json"))) == 1

    def test_fault_free_keys_are_stable_across_runs(self, tmp_path):
        store = ResultStore(root=tmp_path)
        scenario = get_scenario("ring-le/lcr").with_overrides(
            sizes=(8,), trials=1
        )
        first = store.path_for(scenario, 8, 0)
        run_scenario(scenario, jobs=1, store=store)
        assert store.path_for(scenario, 8, 0) == first
        assert store.load(scenario, 8, 0) is not None
        assert ResultStore.identity(scenario, 8, 0)["adversary"] is None
