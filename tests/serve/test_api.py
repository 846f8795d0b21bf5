"""Request validation and payload shapes (HTTP-free)."""

from __future__ import annotations

import json

import pytest

from repro.fabric.serialize import scenario_to_dict
from repro.runtime import SCENARIOS, get_scenario
from repro.serve.api import (
    ApiError,
    parse_run_request,
    protocols_payload,
    run_payload,
    scenario_entry,
    scenarios_payload,
)


def _body(payload: dict) -> bytes:
    return json.dumps(payload).encode()


class TestParseRunRequest:
    def test_catalogue_name_resolves(self):
        scenario = parse_run_request(_body({"scenario": "ring-le/lcr"}))
        assert scenario == get_scenario("ring-le/lcr")

    def test_serialized_scenario_round_trips(self, make_scenario):
        original = make_scenario()
        scenario = parse_run_request(
            _body({"scenario": scenario_to_dict(original)})
        )
        assert scenario == original

    def test_overrides_apply(self):
        scenario = parse_run_request(
            _body(
                {
                    "scenario": "ring-le/lcr",
                    "overrides": {"sizes": [8, 16], "trials": 1, "seed": 42},
                }
            )
        )
        assert scenario.sizes == (8, 16)
        assert scenario.trials == 1
        assert scenario.seed == 42

    def test_adversary_override_parses_spec_string(self):
        scenario = parse_run_request(
            _body(
                {
                    "scenario": "ring-le/lcr",
                    "overrides": {"adversary": "drop=0.05"},
                }
            )
        )
        assert scenario.adversary is not None
        assert scenario.adversary.drop_rate == pytest.approx(0.05)

    def test_adversary_null_strips_catalogue_faults(self):
        faulty = next(
            name
            for name, scenario in sorted(SCENARIOS.items())
            if scenario.adversary is not None
        )
        scenario = parse_run_request(
            _body({"scenario": faulty, "overrides": {"adversary": None}})
        )
        assert scenario.adversary is None

    @pytest.mark.parametrize(
        "body,code",
        [
            (b"{not json", "bad_json"),
            (_body(["a", "list"]), "bad_request"),
            (_body({}), "missing_scenario"),
            (_body({"scenario": 7}), "bad_request"),
            (_body({"scenario": "no-such-scenario"}), "unknown_scenario"),
            (_body({"scenario": {"name": "x"}}), "bad_scenario"),
            (
                _body({"scenario": "ring-le/lcr", "overrides": ["x"]}),
                "bad_overrides",
            ),
            (
                _body(
                    {"scenario": "ring-le/lcr", "overrides": {"bogus": 1}}
                ),
                "bad_overrides",
            ),
            (
                _body(
                    {"scenario": "ring-le/lcr", "overrides": {"sizes": []}}
                ),
                "bad_overrides",
            ),
            (
                _body(
                    {
                        "scenario": "ring-le/lcr",
                        "overrides": {"adversary": "drop=2.0"},
                    }
                ),
                "bad_adversary",
            ),
        ],
    )
    def test_structured_rejections(self, body, code):
        with pytest.raises(ApiError) as error:
            parse_run_request(body)
        assert error.value.code == code
        assert error.value.status == 400
        assert error.value.payload()["error"]["code"] == code

    def test_unsupported_adversary_combo_rejected(self):
        # search-star/classical carries no capability tags: a drop
        # adversary needs 'faults' and must be refused up front.
        with pytest.raises(ApiError) as error:
            parse_run_request(
                _body(
                    {
                        "scenario": "star-search/classical",
                        "overrides": {"adversary": "drop=0.1"},
                    }
                )
            )
        assert error.value.code == "unsupported_adversary"

    def test_node_api_override_is_unknown(self):
        # The engine backend picks the node program; no request can.
        with pytest.raises(ApiError) as error:
            parse_run_request(
                _body(
                    {
                        "scenario": "ring-le/lcr",
                        "overrides": {"node_api": "scalar"},
                    }
                )
            )
        assert error.value.code == "bad_overrides"
        assert "node_api" in error.value.message

    def test_negative_seed_override_is_refused(self):
        # Refused here, before a job exists: in a fabric worker,
        # RandomSource(-1) raises in every trial.
        with pytest.raises(ApiError) as error:
            parse_run_request(
                _body(
                    {
                        "scenario": "ring-le/lcr",
                        "overrides": {"sizes": [16], "trials": 1, "seed": -1},
                    }
                )
            )
        assert error.value.code == "bad_overrides"
        assert "ring-le/lcr" in error.value.message

    def test_negative_seed_in_serialized_scenario_is_refused(self, make_scenario):
        described = dict(scenario_to_dict(make_scenario()), seed=-1)
        with pytest.raises(ApiError) as error:
            parse_run_request(_body({"scenario": described}))
        assert error.value.code == "bad_scenario"


class TestCataloguePayloads:
    def test_scenarios_payload_matches_catalogue(self):
        payload = scenarios_payload()
        assert [entry["name"] for entry in payload] == sorted(SCENARIOS)
        for entry in payload:
            assert entry == scenario_entry(SCENARIOS[entry["name"]])
            json.dumps(entry)  # every entry must be JSON-clean

    def test_protocols_payload_has_capability_tags(self):
        payload = protocols_payload()
        by_name = {entry["name"]: entry for entry in payload}
        assert "faults" in by_name["le-ring/lcr"]["supports"]
        for entry in payload:
            assert {"name", "supports"} <= set(entry)
            assert "kernel" not in entry
            json.dumps(entry)


class TestRunPayload:
    def test_round_aggregates_survive(self, make_scenario, tmp_path):
        from repro.runtime import run_scenario

        run = run_scenario(make_scenario(), jobs=1, store=None)
        payload = run_payload(run)
        assert payload["sizes"] == [8, 12, 16]
        assert len(payload["trial_sets"]) == 3
        assert payload["trial_sets"][0]["n"] == 8
        json.dumps(payload, default=str)
