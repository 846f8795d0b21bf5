"""Fault-accounting reconciliation: trace counters ≡ adversary ledger.

Three independently derived accounting sources describe every faulty
run — the engine's per-round telemetry counters, the armed adversary's
ledger (``fault_stats``), and the undelivered-message classification.
The engine cross-checks them after every adversarial run
(``reconcile_accounting``); these tests additionally prove the *trace*
stream sums to the same ledger on real engine-driven protocols, and
that a tampered counter is caught loudly.
"""

from __future__ import annotations

import json

import pytest

from repro.adversary import AdversarySpec
from repro.network import graphs
from repro.network.engine import SynchronousEngine
from repro.network.message import Message
from repro.network.metrics import MetricsRecorder
from repro.network.node import Node
from repro.runtime import get_scenario
from repro.telemetry import reset_telemetry
from repro.util.rng import RandomSource

#: Engine-driven catalogue scenarios covering the loss classes and both
#: program kinds on the batch core (lcr runs its array-native port, hs
#: its scalar nodes through ScalarAdapter).
SCENARIOS = [
    ("ring-le-lossy/lcr", 16, 5),
    ("ring-le-crash/hs", 16, 5),
    ("complete-le-lossy/classical", 24, 7),
    ("wheel-le-adaptive/classical", 24, 3),
]


def _traced_trial(tmp_path, monkeypatch, name, n, seed):
    trace = tmp_path / "trial.jsonl"
    monkeypatch.setenv("REPRO_TRACE", str(trace))
    reset_telemetry()
    outcome = get_scenario(name).run_trial(n, RandomSource(seed))
    reset_telemetry()  # flush/close the descriptor
    records = [
        json.loads(line) for line in trace.read_text().splitlines() if line
    ]
    return outcome, records


class TestTraceMatchesLedger:
    @pytest.mark.parametrize("name,n,seed", SCENARIOS)
    def test_round_events_sum_to_fault_stats(
        self, tmp_path, monkeypatch, name, n, seed
    ):
        outcome, records = _traced_trial(tmp_path, monkeypatch, name, n, seed)
        rounds = [r for r in records if r["event"] == "round"]
        assert rounds, "engine emitted no round events"
        for cls in ("dropped", "delayed", "duplicated"):
            assert sum(r[cls] for r in rounds) == outcome.extra[
                f"fault_messages_{cls}"
            ], f"{name}: trace {cls} sum diverges from the adversary ledger"

    @pytest.mark.parametrize("name,n,seed", SCENARIOS)
    def test_crash_events_match_ledger(
        self, tmp_path, monkeypatch, name, n, seed
    ):
        outcome, records = _traced_trial(tmp_path, monkeypatch, name, n, seed)
        crashes = [r for r in records if r["event"] == "crash"]
        assert len(crashes) == outcome.extra["fault_nodes_crashed"]

    @pytest.mark.parametrize("name,n,seed", SCENARIOS)
    def test_engine_end_matches_undelivered_detail(
        self, tmp_path, monkeypatch, name, n, seed
    ):
        outcome, records = _traced_trial(tmp_path, monkeypatch, name, n, seed)
        (end,) = [r for r in records if r["event"] == "engine_end"]
        assert end["dropped_adversary"] == outcome.extra[
            "undelivered_dropped_adversary"
        ]
        assert end["dropped_protocol"] == outcome.extra[
            "undelivered_dropped_protocol"
        ]
        assert end["in_flight"] == outcome.extra["undelivered_in_flight"]


class _Chatter(Node):
    """Floods every port for a few rounds — plenty of faultable traffic."""

    def step(self, round_index, inbox):
        if round_index >= 4:
            self.halt()
            return []
        return [
            (port, Message("m", payload=round_index))
            for port in range(self.degree)
        ]


def _run_engine(backend="fast", spec_text="drop=0.2,seed=9"):
    topology = graphs.cycle(8)
    rng = RandomSource(3)
    spec = AdversarySpec.parse(spec_text)
    armed = spec.arm(spec.derive_rng(rng), topology.n)
    nodes = [
        _Chatter(v, topology.degree(v), rng.spawn()) for v in range(topology.n)
    ]
    engine = SynchronousEngine(
        topology, nodes, MetricsRecorder(), backend=backend, adversary=armed
    )
    engine.run(max_rounds=10)
    return engine


class TestReconcileAccounting:
    @pytest.mark.parametrize("backend", ["fast", "reference"])
    def test_clean_run_reconciles(self, backend):
        engine = _run_engine(backend=backend)
        agreed = engine.reconcile_accounting()
        assert agreed["messages_dropped"] == engine.adversary.messages_dropped
        assert agreed["messages_dropped"] > 0  # the check has teeth

    def test_tampered_counter_is_caught(self):
        engine = _run_engine()
        engine._adv_dropped += 1
        with pytest.raises(RuntimeError, match="fault accounting drift"):
            engine.reconcile_accounting()

    def test_tampered_crash_ledger_is_caught(self):
        engine = _run_engine(spec_text="crash=2@3,seed=9")
        engine.adversary.nodes_crashed += 1
        with pytest.raises(RuntimeError, match="nodes_crashed"):
            engine.reconcile_accounting()

    def test_faultless_engine_reconciles_to_empty(self):
        topology = graphs.cycle(4)
        rng = RandomSource(0)
        nodes = [
            _Chatter(v, topology.degree(v), rng.spawn())
            for v in range(topology.n)
        ]
        engine = SynchronousEngine(topology, nodes, MetricsRecorder())
        engine.run(max_rounds=10)
        assert engine.reconcile_accounting() == {}
