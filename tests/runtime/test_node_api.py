"""Tests for node-API selection: registry resolution, scenario plumbing,
and the v3 result-store keys that separate batch from scalar trial sets."""

import pytest

from repro.runtime import (
    ResultStore,
    Scenario,
    TopologySpec,
    default_registry,
    get_scenario,
    run_scenario,
)
from repro.runtime.store import _FORMAT_VERSION


class TestResolveNodeApi:
    def test_auto_prefers_batch_when_supported(self):
        registry = default_registry()
        assert registry.get("le-ring/lcr").resolve_node_api("auto") == "batch"
        assert (
            registry.get("le-complete/classical").resolve_node_api("auto")
            == "batch"
        )
        assert (
            registry.get("agreement/amp18-engine").resolve_node_api("auto")
            == "batch"
        )

    def test_auto_falls_back_to_scalar(self):
        assert (
            default_registry().get("le-general/classical").resolve_node_api("auto")
            == "scalar"
        )

    def test_explicit_requests_pass_through(self):
        spec = default_registry().get("le-ring/lcr")
        assert spec.resolve_node_api("scalar") == "scalar"
        assert spec.resolve_node_api("batch") == "batch"

    def test_batch_on_scalar_only_protocol_is_rejected(self):
        spec = default_registry().get("le-general/classical")
        with pytest.raises(ValueError, match="array-native"):
            spec.resolve_node_api("batch")

    def test_unknown_request_is_rejected(self):
        spec = default_registry().get("le-ring/lcr")
        with pytest.raises(ValueError, match="node_api"):
            spec.resolve_node_api("vector")

    def test_describe_dict_lists_supports(self):
        payload = default_registry().get("le-ring/lcr").describe_dict()
        assert payload["supports"] == ["adaptive", "batch", "faults"]
        assert payload["name"] == "le-ring/lcr"


class TestScenarioNodeApi:
    def test_default_is_auto(self):
        assert get_scenario("ring-le/lcr").node_api == "auto"
        assert get_scenario("ring-le/lcr").resolved_node_api == "batch"
        assert get_scenario("ring-le/hs").resolved_node_api == "batch"
        assert get_scenario("general-le/classical").resolved_node_api == "scalar"

    def test_with_overrides_swaps_node_api(self):
        scenario = get_scenario("ring-le/lcr").with_overrides(node_api="scalar")
        assert scenario.node_api == "scalar"
        assert scenario.resolved_node_api == "scalar"

    def test_invalid_node_api_rejected_at_construction(self):
        with pytest.raises(ValueError, match="node_api"):
            Scenario(
                name="bad",
                protocol="le-ring/lcr",
                topology=TopologySpec("cycle"),
                sizes=(8,),
                node_api="vector",
            )

    def test_batch_request_on_scalar_protocol_fails_the_trial(self):
        scenario = get_scenario("general-le/classical").with_overrides(
            node_api="batch"
        )
        with pytest.raises(ValueError, match="array-native"):
            run_scenario(scenario, jobs=1, sizes=[8], trials=1)

    def test_batch_and_scalar_aggregates_are_bit_identical(self):
        base = get_scenario("ring-le/lcr")
        batch = run_scenario(
            base.with_overrides(node_api="batch"), jobs=1, sizes=[8, 16], trials=2
        )
        scalar = run_scenario(
            base.with_overrides(node_api="scalar"), jobs=1, sizes=[8, 16], trials=2
        )
        assert batch.trial_sets == scalar.trial_sets

    def test_amp18_engine_scenario_runs(self):
        run = run_scenario(
            get_scenario("agreement-engine/classical"),
            jobs=1,
            sizes=[16],
            trials=2,
        )
        assert run.trial_sets[0].trials == 2


class TestStoreKeysV3:
    def test_identity_records_resolved_node_api(self):
        scenario = get_scenario("ring-le/lcr")
        identity = ResultStore.identity(scenario, 8, 0)
        assert identity["version"] == _FORMAT_VERSION == 6
        assert identity["node_api"] == "batch"

    def test_batch_and_scalar_keys_differ(self, tmp_path):
        store = ResultStore(root=tmp_path)
        base = get_scenario("ring-le/lcr")
        batch_path = store.path_for(base.with_overrides(node_api="batch"), 8, 0)
        scalar_path = store.path_for(base.with_overrides(node_api="scalar"), 8, 0)
        auto_path = store.path_for(base, 8, 0)
        assert batch_path != scalar_path
        # auto resolves to batch for this protocol, so the keys coincide.
        assert auto_path == batch_path

    def test_scalar_cache_never_serves_batch_runs(self, tmp_path):
        store = ResultStore(root=tmp_path)
        base = get_scenario("ring-le/lcr").with_overrides(sizes=(8,), trials=1)
        scalar = base.with_overrides(node_api="scalar")
        run = run_scenario(scalar, jobs=1, store=store)
        assert store.load(scalar, 8, 0) == run.trial_sets[0]
        assert store.load(base.with_overrides(node_api="batch"), 8, 0) is None

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
