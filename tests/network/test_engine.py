"""Tests for the synchronous engine."""

import pytest

from repro.network import graphs
from repro.network.engine import CongestViolation, SynchronousEngine
from repro.network.message import Message, congest_capacity_bits
from repro.network.metrics import MetricsRecorder
from repro.network.node import Node
from repro.util.ledger import LedgerEntry
from repro.util.rng import RandomSource


class _Flooder(Node):
    """Sends one ping on every port in round 0, then halts."""

    def step(self, round_index, inbox):
        if round_index == 0:
            return [(p, Message("ping")) for p in range(self.degree)]
        self.received = [m.payload for _, m in inbox]
        self.halt()
        return []


class _Echo(Node):
    """Replies to everything it receives; halts after round 2."""

    def __init__(self, *args):
        super().__init__(*args)
        self.log = []

    def step(self, round_index, inbox):
        out = []
        for port, message in inbox:
            self.log.append((round_index, port, message.kind))
            if message.kind == "ping":
                out.append((port, Message("pong")))
        if round_index >= 2:
            self.halt()
        return out


class _DoubleSender(Node):
    def step(self, round_index, inbox):
        if round_index == 0:
            return [(0, Message("a")), (0, Message("b"))]
        return []


def _build(topology, cls):
    rng = RandomSource(0)
    metrics = MetricsRecorder()
    nodes = [cls(v, topology.degree(v), rng.spawn()) for v in range(topology.n)]
    return SynchronousEngine(topology, nodes, metrics), metrics, nodes


class TestEngine:
    def test_message_counting(self):
        t = graphs.cycle(6)
        engine, metrics, _ = _build(t, _Flooder)
        engine.run(max_rounds=3)
        # round 0: every node sends 2 messages -> 12 total
        assert metrics.messages == 12

    def test_round_counting_stops_when_halted(self):
        t = graphs.cycle(4)
        engine, metrics, _ = _build(t, _Flooder)
        used = engine.run(max_rounds=10)
        assert used == 2  # send round + receive/halt round
        assert metrics.rounds == 2

    def test_delivery_port_mapping(self):
        t = graphs.path(3)
        engine, _, nodes = _build(t, _Echo)
        nodes[0].halted = nodes[2].halted = False

        # node 1 pings both neighbours in round 0 via a custom node
        class Pinger(Node):
            def step(self, round_index, inbox):
                if round_index == 0 and self.uid == 1:
                    return [(p, Message("ping")) for p in range(self.degree)]
                self.inbox_kinds = [m.kind for _, m in inbox]
                if round_index >= 2:
                    self.halt()
                return []

        engine, metrics, nodes = _build(t, Pinger)
        engine.run(max_rounds=4)
        assert metrics.messages == 2  # only node 1 sent

    def test_congest_violation_detected(self):
        t = graphs.path(2)
        engine, _, _ = _build(t, _DoubleSender)
        with pytest.raises(CongestViolation):
            engine.run(max_rounds=2)

    def test_large_payload_counts_multiple_units(self):
        t = graphs.path(2)
        cap = congest_capacity_bits(2)

        class BigSender(Node):
            def step(self, round_index, inbox):
                if round_index == 0 and self.uid == 0:
                    return [(0, Message("blob", bits=3 * cap))]
                self.halt()
                return []

        rng = RandomSource(0)
        metrics = MetricsRecorder()
        nodes = [BigSender(v, 1, rng.spawn()) for v in range(2)]
        SynchronousEngine(t, nodes, metrics).run(max_rounds=3)
        assert metrics.messages == 3

    def test_sender_stamped_on_delivery(self):
        t = graphs.path(2)

        class Recorder(Node):
            def step(self, round_index, inbox):
                if round_index == 0 and self.uid == 0:
                    return [(0, Message("hello"))]
                if inbox:
                    self.seen = inbox[0][1]
                    self.halt()
                return []

        rng = RandomSource(0)
        metrics = MetricsRecorder()
        nodes = [Recorder(v, 1, rng.spawn()) for v in range(2)]
        SynchronousEngine(t, nodes, metrics).run(max_rounds=3)
        assert nodes[1].seen.sender == 0

    def test_node_count_mismatch_rejected(self):
        t = graphs.cycle(4)
        rng = RandomSource(0)
        with pytest.raises(ValueError):
            SynchronousEngine(t, [Node(0, 2, rng)], MetricsRecorder())

    def test_ping_pong_roundtrip(self):
        t = graphs.star(4)

        class LeafPinger(Node):
            def __init__(self, *args):
                super().__init__(*args)
                self.got_pong = False

            def step(self, round_index, inbox):
                for _, m in inbox:
                    if m.kind == "pong":
                        self.got_pong = True
                if round_index == 0 and self.uid != 0:
                    return [(0, Message("ping"))]
                if round_index == 1 and self.uid == 0:
                    return [(port, Message("pong")) for port, m in inbox]
                if round_index >= 2:
                    self.halt()
                return []

        rng = RandomSource(0)
        metrics = MetricsRecorder()
        nodes = [LeafPinger(v, t.degree(v), rng.spawn()) for v in range(4)]
        SynchronousEngine(t, nodes, metrics).run(max_rounds=5)
        assert all(nodes[v].got_pong for v in range(1, 4))
        assert metrics.messages == 6  # 3 pings + 3 pongs


class TestUndelivered:
    def test_zero_when_protocol_drains(self):
        t = graphs.cycle(4)
        rng = RandomSource(0)
        metrics = MetricsRecorder()
        nodes = [Node(v, 2, rng.spawn()) for v in range(4)]  # silent nodes
        engine = SynchronousEngine(t, nodes, metrics)
        engine.run(max_rounds=3)
        assert engine.undelivered() == 0

    def test_counts_messages_cut_off_by_round_budget(self):
        t = graphs.cycle(4)

        class Chatter(Node):
            def step(self, round_index, inbox):
                return [(0, Message("token"))]

        rng = RandomSource(0)
        metrics = MetricsRecorder()
        nodes = [Chatter(v, 2, rng.spawn()) for v in range(4)]
        engine = SynchronousEngine(t, nodes, metrics)
        engine.run(max_rounds=2)
        # Every node sent in the last executed round; none were consumed.
        assert engine.undelivered() == 4

    def test_counts_messages_to_halted_receivers(self):
        t = graphs.path(2)

        class Sender(Node):
            def step(self, round_index, inbox):
                if round_index == 0:
                    return [(0, Message("late"))]
                self.halt()
                return []

        class EarlyHalter(Node):
            def step(self, round_index, inbox):
                self.halt()
                return []

        rng = RandomSource(0)
        metrics = MetricsRecorder()
        nodes = [Sender(0, 1, rng.spawn()), EarlyHalter(1, 1, rng.spawn())]
        engine = SynchronousEngine(t, nodes, metrics)
        engine.run(max_rounds=5)
        # node 1 halted in round 0; node 0's round-0 message was never read.
        assert engine.undelivered() == 1


class TestLedger:
    @pytest.mark.parametrize("backend", ["fast", "reference"])
    def test_one_entry_per_run(self, backend):
        t = graphs.cycle(6)
        rng = RandomSource(0)
        metrics = MetricsRecorder()
        nodes = [_Flooder(v, 2, rng.spawn()) for v in range(6)]
        engine = SynchronousEngine(
            t, nodes, metrics, label="flood", backend=backend
        )
        engine.run(max_rounds=1)  # round 0: 12 pings
        engine.run(max_rounds=5)  # round 1: every node halts, silent
        engine.run(max_rounds=5)  # nothing alive: zero rounds, no entry
        assert metrics.ledger.entries == [
            LedgerEntry("flood", messages=12, rounds=1),
            LedgerEntry("flood", messages=0, rounds=1),
        ]
        assert (metrics.messages, metrics.rounds) == (12, 2)
