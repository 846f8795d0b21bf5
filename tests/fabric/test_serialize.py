"""The manifest wire format round-trips every scenario exactly."""

import json

import pytest

from repro.fabric import adversary_from_dict, scenario_from_dict, scenario_to_dict
from repro.fabric.serialize import SERIAL_VERSION
from repro.runtime.catalog import SCENARIOS
from repro.runtime.store import ResultStore


class TestRoundTrip:
    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_every_catalogue_scenario_round_trips(self, name):
        scenario = SCENARIOS[name]
        # Through real JSON text, exactly as the manifest stores it.
        payload = json.loads(json.dumps(scenario_to_dict(scenario)))
        assert scenario_from_dict(payload) == scenario

    @pytest.mark.parametrize(
        "name",
        ["ring-le-lossy/lcr", "wheel-le-adaptive/classical",
         "complete-le-eavesdrop/classical"],
    )
    def test_round_trip_preserves_store_keys(self, name, tmp_path):
        # The deserialized scenario must hit the same content-addressed
        # cache entries — this is what makes fabric shards idempotent.
        scenario = SCENARIOS[name]
        rebuilt = scenario_from_dict(scenario_to_dict(scenario))
        store = ResultStore(tmp_path)
        for position, n in enumerate(scenario.sizes):
            assert store.path_for(rebuilt, n, position) == store.path_for(
                scenario, n, position
            )

    def test_adversary_none_round_trips(self):
        assert adversary_from_dict(None) is None

    def test_adversary_tuples_restored(self):
        scenario = SCENARIOS["ring-le-crash/hs"]
        rebuilt = adversary_from_dict(
            json.loads(json.dumps(scenario.adversary.key_dict()))
        )
        assert rebuilt == scenario.adversary
        assert isinstance(rebuilt.crashes, tuple)


class TestRefusals:
    def test_unknown_version_refused(self, make_scenario):
        payload = scenario_to_dict(make_scenario())
        payload["version"] = SERIAL_VERSION + 1
        with pytest.raises(ValueError, match="version"):
            scenario_from_dict(payload)

    def test_version_1_manifest_refused(self, make_scenario):
        # v1 manifests carried a node_api field; v2 derives the node
        # program from the engine backend and refuses the old layout.
        payload = scenario_to_dict(make_scenario())
        assert SERIAL_VERSION == 2 and "node_api" not in payload
        payload.update(version=1, node_api="auto")
        with pytest.raises(ValueError, match="version 1"):
            scenario_from_dict(payload)

    def test_missing_version_refused(self, make_scenario):
        payload = scenario_to_dict(make_scenario())
        del payload["version"]
        with pytest.raises(ValueError, match="version"):
            scenario_from_dict(payload)

    def test_non_scalar_param_refused(self, make_scenario):
        scenario = make_scenario(params=(("weights", [1, 2, 3]),))
        with pytest.raises(ValueError, match="non-JSON-scalar"):
            scenario_to_dict(scenario)
