"""Unit tests for the array-native protocol contract and batch dispatch path."""

import json

import numpy as np
import pytest

from repro.network import graphs
from repro.network.batch import (
    STATUS_ELECTED,
    BatchProtocol,
    MessageBatch,
    ScalarAdapter,
)
from repro.network.engine import CongestViolation, SynchronousEngine
from repro.network.message import Message, congest_capacity_bits
from repro.network.metrics import MetricsRecorder
from repro.network.node import Node, Status
from repro.network.porttable import CSRPortTable, CompletePortTable, CyclePortTable
from repro.telemetry.trace import JsonlTracer
from repro.util.rng import RandomSource


class _EchoNode(Node):
    """Round 0: send payload=uid on every port; round 1: record and halt."""

    def __init__(self, uid, degree, rng):
        super().__init__(uid, degree, rng)
        self.received = []

    def step(self, round_index, inbox):
        self.received.extend((port, m.sender, m.payload) for port, m in inbox)
        if round_index == 0:
            return [(p, Message("echo", payload=self.uid)) for p in range(self.degree)]
        self.halt()
        return []


def _run_echo(topology, mode, backend="fast"):
    rng = RandomSource(3)
    nodes = [
        _EchoNode(v, topology.degree(v), rng.spawn()) for v in range(topology.n)
    ]
    metrics = MetricsRecorder()
    program = ScalarAdapter(nodes) if mode == "batch" else nodes
    engine = SynchronousEngine(
        topology, program, metrics, label="echo", backend=backend
    )
    rounds = engine.run(max_rounds=5)
    return rounds, metrics.messages, [node.received for node in nodes]


class TestMessageBatch:
    def test_empty_has_no_rows(self):
        batch = MessageBatch.empty()
        assert len(batch) == 0
        assert batch.kinds is not None and batch.payloads is None
        assert len(MessageBatch.empty(object_mode=True).payloads) == 0

    def test_take_gathers_every_column(self):
        batch = MessageBatch(
            senders=[0, 1, 2],
            ports=[5, 6, 7],
            kinds=[1, 2, 3],
            values=[10, 20, 30],
            bits=[0, 8, 16],
            receivers=[3, 4, 5],
        )
        taken = batch.take(np.asarray([2, 0]))
        assert taken.senders.tolist() == [2, 0]
        assert taken.ports.tolist() == [7, 5]
        assert taken.kinds.tolist() == [3, 1]
        assert taken.values.tolist() == [30, 10]
        assert taken.bits.tolist() == [16, 0]
        assert taken.receivers.tolist() == [5, 3]

    def test_columns_coerced_to_int64(self):
        batch = MessageBatch(senders=[0], ports=[1], kinds=[2], values=[3])
        for column in (batch.senders, batch.ports, batch.kinds, batch.values):
            assert column.dtype == np.int64


class TestBatchProtocolBase:
    class _Silent(BatchProtocol):
        def step_batch(self, round_index, inbox):
            return None

    def test_state_views(self):
        program = self._Silent(4)
        assert program.alive_count() == 4
        program.force_halt(2)
        assert program.alive_count() == 3
        assert program.halted_mask().tolist() == [False, False, True, False]
        program.status_codes[1] = STATUS_ELECTED
        program.sync_columns()  # array-native: the columns are the state
        assert program.status_codes[1] == STATUS_ELECTED
        program.decisions[0] = 1
        assert program.decisions_dict() == {0: 1, 1: None, 2: None, 3: None}

    def test_rejects_empty_network(self):
        with pytest.raises(ValueError, match="n >= 1"):
            self._Silent(0)

    def test_engine_rejects_size_mismatch(self):
        with pytest.raises(ValueError, match="batch program"):
            SynchronousEngine(
                graphs.cycle(4), self._Silent(3), MetricsRecorder()
            )


class TestScalarAdapter:
    @pytest.mark.parametrize(
        "build", [graphs.cycle, graphs.complete, graphs.star, graphs.wheel]
    )
    def test_adapter_matches_both_scalar_backends(self, build):
        topology = build(6)
        fast = _run_echo(topology, "scalar", "fast")
        reference = _run_echo(topology, "scalar", "reference")
        batch = _run_echo(topology, "batch")
        assert fast == reference == batch

    def test_adapter_syncs_status_and_decision(self):
        class _Decider(Node):
            def step(self, round_index, inbox):
                self.status = Status.ELECTED
                self.decision = 1
                self.halt()
                return []

        rng = RandomSource(0)
        nodes = [_Decider(v, 2, rng.spawn()) for v in range(3)]
        adapter = ScalarAdapter(nodes)
        engine = SynchronousEngine(graphs.cycle(3), adapter, MetricsRecorder())
        engine.run(max_rounds=2)
        assert adapter.status_codes.tolist() == [STATUS_ELECTED] * 3
        assert adapter.decisions_dict() == {0: 1, 1: 1, 2: 1}

    def test_pre_halted_nodes_never_step(self):
        rng = RandomSource(0)
        nodes = [_EchoNode(v, 2, rng.spawn()) for v in range(4)]
        nodes[2].halted = True
        adapter = ScalarAdapter(nodes)
        engine = SynchronousEngine(graphs.cycle(4), adapter, MetricsRecorder())
        engine.run(max_rounds=4)
        assert nodes[2].received == []


class TestDeprecationShim:
    def test_missing_program_is_an_error(self):
        with pytest.raises(TypeError, match="node program"):
            SynchronousEngine(graphs.cycle(3), metrics=MetricsRecorder())

    def test_reference_backend_with_batch_program_is_an_error(self):
        with pytest.raises(ValueError, match="node_api='scalar'"):
            SynchronousEngine(
                graphs.cycle(3),
                TestBatchProtocolBase._Silent(3),
                MetricsRecorder(),
                backend="reference",
            )

    def test_node_list_runs_on_the_batch_core(self, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_ENGINE", raising=False)
        trace = tmp_path / "trace.jsonl"
        tracer = JsonlTracer(trace)
        rng = RandomSource(0)
        nodes = [_EchoNode(v, 2, rng.spawn()) for v in range(3)]
        engine = SynchronousEngine(
            graphs.cycle(3), nodes, MetricsRecorder(), tracer=tracer
        )
        engine.run(max_rounds=3)
        tracer.close()
        records = [json.loads(line) for line in trace.read_text().splitlines()]
        starts = [r["path"] for r in records if r["event"] == "engine_start"]
        assert starts == ["batch"]
        assert isinstance(engine.program, ScalarAdapter)


class _Planned(BatchProtocol):
    """Emits one fixed outbox at round 0 and halts at round 1."""

    def __init__(self, n, senders, ports, bits=None):
        super().__init__(n)
        self._outbox = MessageBatch(
            senders=senders,
            ports=ports,
            kinds=np.zeros(len(senders), dtype=np.int64),
            values=np.zeros(len(senders), dtype=np.int64),
            bits=bits,
        )
        self.seen = []

    def step_batch(self, round_index, inbox):
        self.seen.append(
            (inbox.receivers.tolist(), inbox.ports.tolist(), inbox.senders.tolist())
        )
        if round_index == 0:
            return self._outbox
        self.halted[:] = True
        return None


class TestBatchDispatchValidation:
    def test_canonical_order_violation_raises(self):
        program = _Planned(4, [2, 0], [0, 0])
        engine = SynchronousEngine(graphs.cycle(4), program, MetricsRecorder())
        with pytest.raises(ValueError, match="canonical sender order"):
            engine.run(max_rounds=2)

    def test_invalid_port_raises(self):
        program = _Planned(4, [0], [7])
        engine = SynchronousEngine(graphs.cycle(4), program, MetricsRecorder())
        with pytest.raises(ValueError, match="invalid"):
            engine.run(max_rounds=2)

    def test_congest_violation_raises(self):
        program = _Planned(4, [0, 0], [1, 1])
        engine = SynchronousEngine(graphs.cycle(4), program, MetricsRecorder())
        with pytest.raises(CongestViolation):
            engine.run(max_rounds=2)

    def test_congest_violation_found_when_not_adjacent(self):
        # Ports out of order: the slot column is not strictly rising, so
        # the check sorts it and reports the duplicated slot.
        program = _Planned(4, [0, 0, 0], [1, 0, 1])
        engine = SynchronousEngine(graphs.cycle(4), program, MetricsRecorder())
        with pytest.raises(
            CongestViolation, match="node 0 sent two messages on port 1 "
        ):
            engine.run(max_rounds=2)

    def test_descending_senders_reported_before_invalid_port(self):
        # Slots 3·2 + 0 = 6 and 2·2 + 7 = 11 rise, but port 7 is invalid
        # and the senders descend: sender order is reported first.
        program = _Planned(4, [3, 2], [0, 7])
        engine = SynchronousEngine(graphs.cycle(4), program, MetricsRecorder())
        with pytest.raises(ValueError, match="canonical sender order"):
            engine.run(max_rounds=2)

    def test_invalid_port_reported_before_congest_violation(self):
        # The (0, 7) pair repeats, but the port is invalid first.
        program = _Planned(4, [0, 0], [7, 7])
        engine = SynchronousEngine(graphs.cycle(4), program, MetricsRecorder())
        with pytest.raises(ValueError, match="node 0 sent on invalid port 7"):
            engine.run(max_rounds=2)

    def test_out_of_order_distinct_ports_pass(self):
        program = _Planned(4, [0, 0], [1, 0])
        metrics = MetricsRecorder()
        engine = SynchronousEngine(graphs.cycle(4), program, metrics)
        engine.run(max_rounds=2)
        assert metrics.messages == 2

    def test_bits_column_charges_multi_unit_messages(self):
        n = 8
        bits = 2 * congest_capacity_bits(n)
        program = _Planned(
            n, [0, 1], [0, 0], bits=np.asarray([bits, 0], dtype=np.int64)
        )
        metrics = MetricsRecorder()
        engine = SynchronousEngine(graphs.cycle(n), program, metrics)
        engine.run(max_rounds=3)
        assert metrics.messages == 3  # one 2-unit message + one 1-unit

    def test_delivery_is_grouped_and_sorted_by_receiver(self):
        # Node 0 and 2 of a 4-cycle both send both ways; receivers see
        # arrival rows sorted by receiver with canonical in-group order.
        program = _Planned(4, [0, 0, 2, 2], [0, 1, 0, 1])
        engine = SynchronousEngine(graphs.cycle(4), program, MetricsRecorder())
        engine.run(max_rounds=3)
        receivers, _, senders = program.seen[1]
        assert receivers == sorted(receivers)
        assert sorted(zip(receivers, senders)) == list(zip(receivers, senders))


class _ListOutbox(BatchProtocol):
    """Round 0: every node sends on port 0, columns given as Python lists
    plus an int32 extras column; round 1: keeps its inbox and halts."""

    def __init__(self, n):
        super().__init__(n)
        self.inbox = None

    def step_batch(self, round_index, inbox):
        if round_index == 0:
            nodes = list(range(self.n))
            return MessageBatch(
                senders=nodes,
                ports=[0] * self.n,
                kinds=[1] * self.n,
                values=nodes,
                bits=[0] * self.n,
                extras={"tag": np.asarray(nodes, dtype=np.int32)},
            )
        self.inbox = inbox
        self.halted[:] = True
        return None


class TestInboxColumns:
    @pytest.mark.parametrize(
        "build, table",
        [
            (graphs.cycle, CyclePortTable),
            (graphs.complete, CompletePortTable),
            (graphs.wheel, CSRPortTable),
        ],
    )
    def test_inbox_columns_keep_their_types(self, build, table):
        topology = build(6)
        assert isinstance(topology.port_table(), table)
        program = _ListOutbox(topology.n)
        SynchronousEngine(topology, program, MetricsRecorder()).run(max_rounds=3)
        inbox = program.inbox
        assert len(inbox) == topology.n
        for column in (
            inbox.senders,
            inbox.ports,
            inbox.kinds,
            inbox.values,
            inbox.bits,
            inbox.receivers,
        ):
            assert column.dtype == np.int64
            assert column.flags.c_contiguous
        tag = inbox.extras["tag"]
        assert tag.dtype == np.int32
        assert tag.flags.c_contiguous
        assert inbox.values.tolist() == inbox.senders.tolist()
        assert tag.tolist() == inbox.senders.tolist()
        assert inbox.receivers.tolist() == sorted(inbox.receivers.tolist())


class TestHaltSemantics:
    def test_halted_receiver_drops_inbound_in_all_three_paths(self):
        # Node 1 halts at round 0 *after* sending; node 0 keeps sending to
        # node 1, whose inbound messages must count as dropped_protocol
        # identically on every dispatch path.
        class _Stubborn(Node):
            def step(self, round_index, inbox):
                if self.uid == 1:
                    self.halt()
                    return [(0, Message("bye"))]
                if round_index < 3:
                    return [(0, Message("ping"))]
                self.halt()
                return []

        def run(mode, backend="fast"):
            rng = RandomSource(0)
            topology = graphs.path(2)
            nodes = [_Stubborn(v, 1, rng.spawn()) for v in range(2)]
            program = ScalarAdapter(nodes) if mode == "batch" else nodes
            metrics = MetricsRecorder()
            engine = SynchronousEngine(
                topology, program, metrics, backend=backend
            )
            engine.run(max_rounds=10)
            return metrics.messages, metrics.rounds, engine.undelivered_detail()

        fast = run("scalar", "fast")
        reference = run("scalar", "reference")
        batch = run("batch")
        assert fast == reference == batch
        assert fast[2]["dropped_protocol"] > 0
