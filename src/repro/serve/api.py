"""Request/response shapes for the ``repro serve`` JSON API.

This module is deliberately HTTP-free: it turns request bodies into
validated :class:`~repro.runtime.scenario.Scenario` objects and runtime
objects into JSON-ready payloads, so both the server handler and the
tests drive exactly the same logic without a socket.

Validation is structural *and* semantic.  A request can name a
catalogue scenario or carry a full serialized scenario (the
:mod:`repro.fabric.serialize` shape that fabric manifests use), plus a
small override block; either way the resolved scenario must pass the
same checks a worker would apply — known protocol, an adversary the
protocol's capability tags support, and fabric-serializable params —
before it is allowed anywhere near the cache or the job table.
Failures raise :class:`ApiError`, which maps to a structured
``{"error": {"code", "message"}}`` body, never a bare 500.
"""

from __future__ import annotations

import dataclasses
import json

from repro.adversary import AdversarySpec
from repro.fabric.serialize import scenario_from_dict, scenario_to_dict
from repro.runtime import SCENARIOS, default_registry, get_scenario
from repro.runtime.runner import ScenarioRun
from repro.runtime.scenario import Scenario

__all__ = [
    "ApiError",
    "parse_run_request",
    "protocols_payload",
    "run_payload",
    "scenario_entry",
    "scenarios_payload",
]


class ApiError(Exception):
    """A structured request rejection: machine code + message + status."""

    def __init__(self, code: str, message: str, status: int = 400):
        super().__init__(message)
        self.code = code
        self.message = message
        self.status = status

    def payload(self) -> dict:
        return {"error": {"code": self.code, "message": self.message}}


# -- catalogue payloads (shared with the CLI --json dumps) ---------------------


def scenario_entry(scenario: Scenario) -> dict:
    """JSON-ready catalogue entry (``repro scenarios --json`` shape)."""
    from repro.network.kernels import resolve_kernel

    return {
        "name": scenario.name,
        "protocol": scenario.protocol,
        "topology": {
            "family": scenario.topology.family,
            "params": dict(scenario.topology.params),
            "fixed_seed": scenario.topology.fixed_seed,
        },
        "sizes": list(scenario.sizes),
        "params": dict(scenario.params),
        "trials": scenario.trials,
        "seed": scenario.seed,
        "normalize_by": scenario.normalize_by,
        "adversary": (
            scenario.adversary.key_dict() if scenario.adversary else None
        ),
        "kernel": resolve_kernel(),
        "description": scenario.description,
    }


def scenarios_payload() -> list[dict]:
    """Every catalogue scenario (``repro scenarios --json`` shape)."""
    return [
        scenario_entry(scenario) for _, scenario in sorted(SCENARIOS.items())
    ]


def protocols_payload() -> list[dict]:
    """Every registered protocol (``repro protocols --json`` shape)."""
    from repro.network.kernels import resolve_kernel

    kernel = resolve_kernel()
    return [
        dict(spec.describe_dict(), kernel=kernel)
        for spec in default_registry()
    ]


# -- run requests --------------------------------------------------------------

_OVERRIDE_KEYS = frozenset({"sizes", "trials", "seed", "adversary", "name"})


def _parse_overrides(raw: object) -> dict:
    if raw is None:
        return {}
    if not isinstance(raw, dict):
        raise ApiError("bad_overrides", "'overrides' must be a JSON object")
    unknown = set(raw) - _OVERRIDE_KEYS
    if unknown:
        raise ApiError(
            "bad_overrides",
            f"unknown override keys {sorted(unknown)}; "
            f"allowed: {sorted(_OVERRIDE_KEYS)}",
        )
    kwargs: dict = {}
    if "sizes" in raw:
        sizes = raw["sizes"]
        if (
            not isinstance(sizes, list)
            or not sizes
            or not all(isinstance(n, int) and n > 0 for n in sizes)
        ):
            raise ApiError(
                "bad_overrides", "'sizes' must be a non-empty list of ints > 0"
            )
        kwargs["sizes"] = tuple(sizes)
    for key in ("trials", "seed"):
        if key in raw:
            value = raw[key]
            if not isinstance(value, int) or isinstance(value, bool):
                raise ApiError("bad_overrides", f"{key!r} must be an int")
            kwargs[key] = value
    if "name" in raw:
        kwargs["name"] = str(raw["name"])
    if "adversary" in raw:
        spec_text = raw["adversary"]
        if spec_text is None:
            kwargs["adversary"] = None
        else:
            try:
                kwargs["adversary"] = AdversarySpec.parse(str(spec_text))
            except ValueError as exc:
                raise ApiError("bad_adversary", str(exc)) from exc
    return kwargs


def validate_scenario(scenario: Scenario) -> Scenario:
    """Semantic checks a request must pass before compute is committed."""
    registry = default_registry()
    try:
        spec = registry.get(scenario.protocol)
    except KeyError as exc:
        raise ApiError("unknown_protocol", str(exc)) from exc
    try:
        spec.check_adversary(scenario.adversary)
    except ValueError as exc:
        raise ApiError("unsupported_adversary", str(exc)) from exc
    try:
        # Fabric manifests must round-trip the scenario exactly; refuse
        # up front rather than failing inside a worker process.
        scenario_to_dict(scenario)
    except (TypeError, ValueError) as exc:
        raise ApiError("unserializable_scenario", str(exc)) from exc
    return scenario


def parse_run_request(body: bytes | str) -> Scenario:
    """Turn a ``POST /v1/runs`` body into a validated scenario.

    The body is ``{"scenario": <catalogue name | serialized scenario>,
    "overrides": {...}}``; overrides accept ``sizes``, ``trials``,
    ``seed``, ``adversary`` (a spec string such as
    ``"drop=0.05,crash=2"``, or null to strip one), and ``name``.
    """
    try:
        payload = json.loads(body or b"")
    except json.JSONDecodeError as exc:
        raise ApiError("bad_json", f"request body is not JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise ApiError("bad_request", "request body must be a JSON object")
    described = payload.get("scenario")
    if described is None:
        raise ApiError(
            "missing_scenario",
            "request needs 'scenario': a catalogue name or a serialized "
            "scenario object",
        )
    if isinstance(described, str):
        try:
            scenario = get_scenario(described)
        except KeyError as exc:
            raise ApiError(
                "unknown_scenario",
                f"no catalogue scenario named {described!r} "
                f"(see GET /v1/scenarios)",
            ) from exc
    elif isinstance(described, dict):
        try:
            scenario = scenario_from_dict(described)
        except (KeyError, TypeError, ValueError) as exc:
            raise ApiError(
                "bad_scenario", f"invalid serialized scenario: {exc}"
            ) from exc
    else:
        raise ApiError(
            "bad_request", "'scenario' must be a name string or an object"
        )
    kwargs = _parse_overrides(payload.get("overrides"))
    if kwargs:
        try:
            scenario = scenario.with_overrides(**kwargs)
        except (TypeError, ValueError) as exc:
            raise ApiError("bad_overrides", str(exc)) from exc
    return validate_scenario(scenario)


# -- run/job payloads ----------------------------------------------------------


def run_payload(run: ScenarioRun) -> dict:
    """JSON-ready body of a completed scenario run."""
    return {
        "scenario": scenario_to_dict(run.scenario),
        "sizes": list(run.sizes),
        "overall_success_rate": run.overall_success_rate(),
        "trial_sets": [dataclasses.asdict(ts) for ts in run.trial_sets],
        "meta": run.meta,
    }


def job_payload(job, progress: dict | None = None) -> dict:
    """JSON-ready status of a serve job (sans the run body)."""
    out = {
        "job": job.id,
        "state": job.state,
        "scenario": job.scenario.name,
        "attached": job.attached,
        "created_at": job.created_at,
        "started_at": job.started_at,
        "finished_at": job.finished_at,
        "error": job.error,
        "location": f"/v1/runs/{job.id}",
    }
    if progress is not None:
        out["progress"] = progress
    return out
