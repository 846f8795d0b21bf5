"""Property tests: telemetry observes, it never participates.

For any engine-driven scenario configuration — fault-free or
adversarial, on either engine backend and either node API (the
reference backend runs the scalar one) — running
with tracing and/or profiling enabled must leave every result artifact
bit-identical to the bare run: the ``TrialSet`` aggregates, the
content-addressed store keys (format v4), and the stored bytes.
Telemetry draws from wall clocks only, never from a run RNG stream.
"""

import contextlib
import dataclasses
import os
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.runtime import ResultStore, Scenario, TopologySpec, run_scenario
from repro.telemetry import reset_metrics, reset_telemetry, set_profiling, set_trace_path

#: (protocol, topology family, adversary spec text or None).  lcr is
#: batch-capable so node_api picks the dispatch path; hs is scalar-only.
CONFIGS = [
    ("le-ring/lcr", "cycle", None),
    ("le-ring/lcr", "cycle", "drop=0.05,seed=7"),
    ("le-ring/hs", "cycle", "crash=1@2,seed=3"),
    ("search-star/classical", "star", None),
]


@contextlib.contextmanager
def _clean_env(**overrides):
    """Scoped env manipulation usable inside ``@given`` bodies (Hypothesis
    forbids function-scoped fixtures, which do not reset between examples)."""
    saved = {
        key: os.environ.get(key)
        for key in ("REPRO_TRACE", "REPRO_PROFILE", "REPRO_ENGINE", *overrides)
    }
    for key in ("REPRO_TRACE", "REPRO_PROFILE"):
        os.environ.pop(key, None)
    for key, value in overrides.items():
        os.environ[key] = value
    reset_telemetry()
    reset_metrics()
    try:
        yield
    finally:
        for key, value in saved.items():
            if value is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = value
        reset_telemetry()
        reset_metrics()


def _scenario(config_index, seed, engine, node_api) -> Scenario:
    from repro.adversary import AdversarySpec

    protocol, family, spec_text = CONFIGS[config_index]
    return Scenario(
        name=f"trace-prop/{config_index}",
        protocol=protocol,
        topology=TopologySpec(family),
        sizes=(8, 12),
        trials=2,
        seed=seed,
        adversary=None if spec_text is None else AdversarySpec.parse(spec_text),
        node_api=node_api,
    )


def _artifacts(scenario, engine, traced, profiled):
    """(aggregates, {store key: bytes}) for one configuration."""
    with tempfile.TemporaryDirectory() as root:
        if traced:
            set_trace_path(f"{root}/trace.jsonl")
        if profiled:
            set_profiling(True)
        try:
            store = ResultStore(f"{root}/cache")
            run = run_scenario(scenario, jobs=1, store=store)
            files = {
                path.name: path.read_bytes()
                for path in store.root.glob("*.json")
            }
        finally:
            set_trace_path(None)
            set_profiling(False)
            reset_telemetry()
        trial_sets = tuple(
            dataclasses.asdict(trial_set) for trial_set in run.trial_sets
        )
        return trial_sets, files


class TestTelemetryInvariance:
    @given(
        config_index=st.integers(min_value=0, max_value=len(CONFIGS) - 1),
        seed=st.integers(min_value=0, max_value=2**16),
        engine=st.sampled_from(["fast", "reference"]),
        node_api=st.sampled_from(["auto", "scalar"]),
        traced=st.booleans(),
        profiled=st.booleans(),
    )
    @settings(max_examples=12, deadline=None)
    def test_traced_run_is_bit_identical(
        self, config_index, seed, engine, node_api, traced, profiled
    ):
        if engine == "reference":
            node_api = "scalar"  # the reference oracle runs node lists only
        with _clean_env(REPRO_ENGINE=engine):
            scenario = _scenario(config_index, seed, engine, node_api)
            bare = _artifacts(scenario, engine, traced=False, profiled=False)
            telemetered = _artifacts(
                scenario, engine, traced=traced, profiled=profiled
            )
        assert telemetered[0] == bare[0]  # aggregates, field for field
        assert telemetered[1].keys() == bare[1].keys()  # v4 store keys
        assert telemetered[1] == bare[1]  # stored bytes

    def test_profile_meta_attaches_without_touching_aggregates(self):
        with _clean_env(REPRO_ENGINE="fast"):
            scenario = _scenario(1, seed=5, engine="fast", node_api="auto")
            bare = _artifacts(scenario, "fast", traced=False, profiled=False)
            set_profiling(True)
            try:
                with tempfile.TemporaryDirectory() as root:
                    run = run_scenario(
                        scenario, jobs=1, store=ResultStore(f"{root}/cache")
                    )
            finally:
                set_profiling(False)
                reset_telemetry()
        assert "profile" in run.meta
        assert run.meta["profile"]  # phases recorded
        observed = tuple(
            dataclasses.asdict(trial_set) for trial_set in run.trial_sets
        )
        assert observed == bare[0]
