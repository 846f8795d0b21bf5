"""JSON round-tripping for :class:`~repro.runtime.scenario.Scenario`.

The fabric's queue directory must describe a sweep to workers that share
nothing but a filesystem, so the manifest carries the scenario as plain
JSON.  The round trip is exact: ``scenario_from_dict(scenario_to_dict(s))
== s`` for every catalogue scenario, including adversary specs — the
deserialized scenario derives the same per-trial RNG streams and the same
:class:`~repro.runtime.store.ResultStore` keys bit for bit.

Only JSON-scalar parameter values survive the trip (int/float/str/bool/
None).  Every catalogue scenario satisfies this; a scenario carrying an
exotic param value fails loudly at job-creation time rather than silently
on a worker.
"""

from __future__ import annotations

import json

from repro.adversary import AdversarySpec
from repro.runtime.scenario import Scenario, TopologySpec

__all__ = [
    "SERIAL_VERSION",
    "adversary_from_dict",
    "scenario_from_dict",
    "scenario_to_dict",
]

#: Bump when the wire layout changes; workers refuse unknown versions
#: instead of guessing (a fleet must never run a sweep it misparsed).
#: v2: the scenario no longer carries a node API (the engine backend
#: picks the program).
SERIAL_VERSION = 2

_SCALAR = (int, float, str, bool, type(None))


def _check_scalar_params(pairs, where: str) -> None:
    for key, value in pairs:
        if not isinstance(value, _SCALAR):
            raise ValueError(
                f"{where} parameter {key!r} has non-JSON-scalar value "
                f"{value!r} ({type(value).__name__}); fabric manifests only "
                f"carry int/float/str/bool/None parameter values"
            )


def scenario_to_dict(scenario: Scenario) -> dict:
    """A JSON-ready description that :func:`scenario_from_dict` inverts."""
    _check_scalar_params(scenario.params, f"scenario {scenario.name!r}")
    _check_scalar_params(
        scenario.topology.params, f"scenario {scenario.name!r} topology"
    )
    return {
        "version": SERIAL_VERSION,
        "name": scenario.name,
        "protocol": scenario.protocol,
        "topology": {
            "family": scenario.topology.family,
            "params": [list(item) for item in scenario.topology.params],
            "fixed_seed": scenario.topology.fixed_seed,
        },
        "sizes": list(scenario.sizes),
        "params": [list(item) for item in scenario.params],
        "trials": scenario.trials,
        "seed": scenario.seed,
        "normalize_by": scenario.normalize_by,
        "adversary": (
            scenario.adversary.key_dict()
            if scenario.adversary is not None
            else None
        ),
        "description": scenario.description,
    }


def adversary_from_dict(payload: dict | None) -> AdversarySpec | None:
    """Invert :meth:`AdversarySpec.key_dict` (lists back into tuples)."""
    if payload is None:
        return None
    return AdversarySpec(
        drop_rate=payload["drop_rate"],
        delay_rate=payload["delay_rate"],
        delay_rounds=payload["delay_rounds"],
        duplicate_rate=payload["duplicate_rate"],
        drop_schedule=tuple(tuple(e) for e in payload["drop_schedule"]),
        crashes=tuple(tuple(e) for e in payload["crashes"]),
        crash_count=payload["crash_count"],
        crash_by=payload["crash_by"],
        input_schedule=payload["input_schedule"],
        flip_fraction=payload["flip_fraction"],
        adaptive=payload["adaptive"],
        adaptive_rate=payload["adaptive_rate"],
        adaptive_after=payload["adaptive_after"],
        eavesdrop_rate=payload["eavesdrop_rate"],
        eavesdrop_edges=tuple(tuple(e) for e in payload["eavesdrop_edges"]),
        eavesdrop_drop_rate=payload["eavesdrop_drop_rate"],
        seed=payload["seed"],
    )


def scenario_from_dict(payload: dict) -> Scenario:
    """Rebuild the exact scenario a manifest describes."""
    version = payload.get("version")
    if version != SERIAL_VERSION:
        raise ValueError(
            f"fabric manifest version {version!r} is not the supported "
            f"version {SERIAL_VERSION}; refusing to guess at the layout"
        )
    topology = payload["topology"]
    return Scenario(
        name=payload["name"],
        protocol=payload["protocol"],
        topology=TopologySpec(
            family=topology["family"],
            params=tuple((k, v) for k, v in topology["params"]),
            fixed_seed=topology["fixed_seed"],
        ),
        sizes=tuple(payload["sizes"]),
        params=tuple((k, v) for k, v in payload["params"]),
        trials=payload["trials"],
        seed=payload["seed"],
        normalize_by=payload["normalize_by"],
        adversary=adversary_from_dict(payload["adversary"]),
        description=payload["description"],
    )


def scenario_json(scenario: Scenario) -> str:
    """Canonical JSON text (sorted keys) — manifest identity comparisons."""
    return json.dumps(scenario_to_dict(scenario), sort_keys=True)
