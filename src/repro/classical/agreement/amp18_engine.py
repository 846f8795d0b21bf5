"""Engine-driven [AMP18] shared-coin agreement on K_n — scalar and array-native.

:mod:`repro.classical.agreement.amp18` charges the [AMP18] protocol's cost
analytically (sampling estimates drawn from a binomial, detection modelled
as a hit probability).  This module *runs* it: every sample request,
informing message, and detection probe is a real CONGEST message routed by
the :class:`~repro.network.engine.SynchronousEngine`, which makes the
protocol engine-fault-injectable (drop/delay/duplicate/crash) — the first
agreement protocol in the library that is — and gives the batch dispatch
path a second problem family beyond leader election.

The round schedule is fixed (every node can compute it locally), with
T = ⌈log₅(4n)⌉ iterations of the [AMP18] loop:

* round 0 — candidates send ``sample`` requests to k random nodes;
* round 1 — sampled nodes reply with their input bit; candidates fold the
  replies into an estimate q̂ of the ones-fraction;
* round 2+2j (decide) — undecided candidates first consume any detection
  replies (adopting the first informed value heard), then compare q̂
  against the shared coin rⱼ: decide 0 if q̂ < rⱼ−ε, 1 if q̂ > rⱼ+ε.
  Deciders inform their s ring-successors; still-undecided candidates
  probe ``probes`` random nodes;
* round 3+2j (serve) — nodes record informing values, then answer each
  probe with their currently-held informed value (⊥ if none);
* round 2T+2 — last detection replies are consumed; everyone halts.

The parameter schedule is the "lean" counterpart of the analytical
module's (the convention :func:`repro.runtime.registry.lean_qwle_params`
set): ε is clamped to [0.1, 0.45] so sample counts k = O(log n / ε²) fit
the CONGEST degree bound k ≤ n−1, and all fan-outs are capped at n−1.
Cost shape is preserved — estimation Θ(k) per candidate, informing Θ(s),
detection Θ((n/s)·log n) per undecided candidate per iteration.

Two trace-identical implementations share the schedule: scalar
:class:`_AMP18Node` (per-node ``step``) and array-native
:class:`_AMP18Batch` (one ``step_batch`` over SoA columns).  The engine
backend picks one — the port under ``"fast"``, the scalar twin under
``"reference"`` — and the parity property tests assert bit-for-bit
equality across both.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.core.candidates import draw_candidates
from repro.core.results import AgreementResult
from repro.network.batch import BatchProtocol, MessageBatch
from repro.network.engine import SynchronousEngine, wants_batch_dispatch
from repro.network.message import Message
from repro.network.metrics import MetricsRecorder
from repro.network.node import Node
from repro.network.topology import CompleteTopology
from repro.util.rng import RandomSource, SharedCoin

__all__ = [
    "classical_agreement_engine",
    "default_epsilon_engine",
    "default_inform_width_engine",
    "default_probes_engine",
    "default_samples_engine",
]

#: Wire vocabulary shared by the scalar and array-native implementations.
_SAMPLE, _REPLY, _INFORM, _PROBE, _PREPLY = 0, 1, 2, 3, 4
_KINDS = {
    _SAMPLE: "sample",
    _REPLY: "reply",
    _INFORM: "inform",
    _PROBE: "probe",
    _PREPLY: "preply",
}
_CODES = {name: code for code, name in _KINDS.items()}


def default_epsilon_engine(n: int) -> float:
    """ε = n^{−1/5} clamped to [0.1, 0.45] (keeps k = O(log n/ε²) ≤ n−1)."""
    return float(min(0.45, max(0.1, n ** (-1.0 / 5.0))))


def default_inform_width_engine(n: int) -> int:
    """s = n^{2/5} capped at the degree bound n−1."""
    return max(1, min(n - 1, round(n ** (2.0 / 5.0))))


def default_samples_engine(n: int, epsilon: float) -> int:
    """Hoeffding sample count for ±ε estimates at failure rate 1/(4n²)."""
    return max(1, min(n - 1, math.ceil(math.log(8.0 * n * n) / (2.0 * epsilon**2))))


def default_probes_engine(n: int, inform_width: int) -> int:
    """Detection probes Θ((n/s)·log n) at failure rate 1/(4n), capped at n−1."""
    return max(
        1, min(n - 1, math.ceil((n / inform_width) * math.log(4.0 * n)))
    )


@dataclass(frozen=True)
class _Schedule:
    """The run's shared constants — every node computes these locally."""

    n: int
    epsilon: float
    inform_width: int
    samples: int
    probes: int
    iterations: int
    coins: tuple[float, ...]

    @property
    def final_round(self) -> int:
        return 2 * self.iterations + 2

    @classmethod
    def build(
        cls,
        n: int,
        shared_coin: SharedCoin,
        epsilon: float | None,
        inform_width: int | None,
    ) -> "_Schedule":
        if epsilon is None:
            epsilon = default_epsilon_engine(n)
        if inform_width is None:
            inform_width = default_inform_width_engine(n)
        if not 1 <= inform_width <= n - 1:
            raise ValueError(
                f"inform_width must be in [1, {n - 1}], got {inform_width}"
            )
        iterations = max(1, math.ceil(math.log(4.0 * n) / math.log(5.0)))
        return cls(
            n=n,
            epsilon=epsilon,
            inform_width=inform_width,
            samples=default_samples_engine(n, epsilon),
            probes=default_probes_engine(n, inform_width),
            iterations=iterations,
            coins=tuple(shared_coin.next_uniform() for _ in range(iterations)),
        )


class _AMP18Node(Node):
    """Scalar per-node implementation of the engine-driven [AMP18] loop."""

    def __init__(self, uid, degree, rng, schedule: _Schedule, input_bit: int,
                 is_candidate: bool):
        super().__init__(uid, degree, rng)
        self.schedule = schedule
        self.input_bit = input_bit
        self.is_candidate = is_candidate
        self.estimate = 0.0
        self.informed = -1

    def _serve(self, inbox) -> list[tuple[int, Message]]:
        # Informs first (this round's informers count for this round's
        # probes), then one reply per distinct probing port.
        for _, message in inbox:
            if message.kind == "inform":
                self.informed = message.payload
        out: list[tuple[int, Message]] = []
        seen: set[int] = set()
        for port, message in inbox:
            if message.kind == "probe" and port not in seen:
                seen.add(port)
                out.append(
                    (port, Message("preply", payload=self.informed + 1))
                )
        return out

    def _consume_replies(self, inbox) -> None:
        """Adopt the first informed value a detection probe brought back."""
        if self.decision is not None:
            return
        for _, message in inbox:
            if message.kind == "preply" and message.payload > 0:
                self.decision = message.payload - 1
                return

    def step(self, round_index: int, inbox):
        cfg = self.schedule
        if round_index == 0:
            if not self.is_candidate:
                return []
            ports = self.rng.sample_without_replacement(self.degree, cfg.samples)
            return [(int(p), Message("sample")) for p in ports]
        if round_index == 1:
            out = []
            seen: set[int] = set()
            for port, message in inbox:
                if message.kind == "sample" and port not in seen:
                    seen.add(port)
                    out.append((port, Message("reply", payload=self.input_bit)))
            return out
        if round_index == cfg.final_round:
            self._consume_replies(inbox)
            self.halt()
            return []
        if round_index % 2 == 1:
            return self._serve(inbox)
        # Decide round 2+2j.
        j = (round_index - 2) // 2
        if j >= cfg.iterations:
            return []
        if not self.is_candidate:
            return []
        if j == 0:
            hits = count = 0
            for _, message in inbox:
                if message.kind == "reply":
                    hits += message.payload
                    count += 1
            self.estimate = hits / count if count else 0.0
        else:
            self._consume_replies(inbox)
        if self.decision is not None:
            return []
        r = cfg.coins[j]
        if self.estimate < r - cfg.epsilon:
            self.decision = 0
        elif self.estimate > r + cfg.epsilon:
            self.decision = 1
        if self.decision is not None:
            return [
                (p, Message("inform", payload=self.decision))
                for p in range(cfg.inform_width)
            ]
        ports = self.rng.sample_without_replacement(self.degree, cfg.probes)
        return [(int(p), Message("probe")) for p in ports]


class _AMP18Batch(BatchProtocol):
    """Array-native implementation: SoA columns, one numpy pass per round.

    Column state: ``inputs``, ``is_candidate``, ``estimate``, ``informed``
    plus the inherited ``decisions``/``halted``.  Private draws (referee
    samples, detection probes) loop only over the Θ(log n) candidates,
    each on the same stream as its scalar :class:`_AMP18Node`; everything
    message-shaped is grouped reductions on the inbox batch.
    """

    def __init__(
        self,
        schedule: _Schedule,
        streams: dict[int, RandomSource],
        inputs,
        is_candidate,
    ):
        n = schedule.n
        super().__init__(n)
        self.schedule = schedule
        self.streams = streams
        self.inputs = np.asarray(inputs, dtype=np.int64)
        self.is_candidate = np.asarray(is_candidate, dtype=bool)
        self.estimate = np.zeros(n, dtype=np.float64)
        self.informed = np.full(n, -1, dtype=np.int64)

    @staticmethod
    def _dedup_first_port(rows: np.ndarray, inbox, n: int) -> np.ndarray:
        """First row per (receiver, port) among ``rows`` in inbox order."""
        key = inbox.receivers[rows] * np.int64(n) + inbox.ports[rows]
        _, first = np.unique(key, return_index=True)
        first.sort()
        return rows[first]

    def _serve(self, inbox) -> MessageBatch | None:
        informs = np.nonzero(inbox.kinds == _INFORM)[0]
        if len(informs):
            # Last inform in inbox order wins, as in the scalar loop.
            last = np.full(self.n, -1, dtype=np.int64)
            np.maximum.at(last, inbox.receivers[informs], informs)
            touched = np.nonzero(last >= 0)[0]
            self.informed[touched] = inbox.values[last[touched]]
        probes = np.nonzero(inbox.kinds == _PROBE)[0]
        if not len(probes):
            return None
        probes = self._dedup_first_port(probes, inbox, self.n)
        rec = inbox.receivers[probes]
        return MessageBatch(
            senders=rec,
            ports=inbox.ports[probes],
            kinds=np.full(len(probes), _PREPLY, dtype=np.int64),
            values=self.informed[rec] + 1,
        )

    def _consume_replies(self, inbox) -> None:
        replies = np.nonzero(
            (inbox.kinds == _PREPLY) & (inbox.values > 0)
        )[0]
        if not len(replies):
            return
        first = np.full(self.n, np.iinfo(np.int64).max, dtype=np.int64)
        np.minimum.at(first, inbox.receivers[replies], replies)
        undecided = self.decisions < 0
        hit = np.nonzero((first < np.iinfo(np.int64).max) & undecided)[0]
        self.decisions[hit] = inbox.values[first[hit]] - 1

    def step_batch(self, round_index, inbox):
        cfg = self.schedule
        n = self.n
        alive = ~self.halted
        if round_index == 0:
            cands = np.nonzero(self.is_candidate & alive)[0]
            if not len(cands):
                return None
            chunks = [
                self.streams[v].sample_without_replacement(n - 1, cfg.samples)
                for v in cands.tolist()
            ]
            senders = np.repeat(cands, cfg.samples)
            return MessageBatch(
                senders=senders,
                ports=np.concatenate(chunks),
                kinds=np.full(len(senders), _SAMPLE, dtype=np.int64),
                values=np.zeros(len(senders), dtype=np.int64),
            )
        if round_index == 1:
            samples = np.nonzero(inbox.kinds == _SAMPLE)[0]
            if not len(samples):
                return None
            samples = self._dedup_first_port(samples, inbox, n)
            rec = inbox.receivers[samples]
            return MessageBatch(
                senders=rec,
                ports=inbox.ports[samples],
                kinds=np.full(len(samples), _REPLY, dtype=np.int64),
                values=self.inputs[rec],
            )
        if round_index == cfg.final_round:
            self._consume_replies(inbox)
            self.halted |= alive
            return None
        if round_index % 2 == 1:
            return self._serve(inbox)
        j = (round_index - 2) // 2
        if j >= cfg.iterations:
            return None
        if j == 0:
            replies = np.nonzero(inbox.kinds == _REPLY)[0]
            hits = np.zeros(n, dtype=np.int64)
            count = np.zeros(n, dtype=np.int64)
            if len(replies):
                np.add.at(hits, inbox.receivers[replies], inbox.values[replies])
                np.add.at(count, inbox.receivers[replies], 1)
            self.estimate = hits / np.maximum(count, 1)
        else:
            self._consume_replies(inbox)
        undecided = self.is_candidate & alive & (self.decisions < 0)
        r = cfg.coins[j]
        decide0 = undecided & (self.estimate < r - cfg.epsilon)
        decide1 = undecided & (self.estimate > r + cfg.epsilon)
        self.decisions[decide0] = 0
        self.decisions[decide1] = 1
        informers = decide0 | decide1
        probers = undecided & ~informers
        active = np.nonzero(informers | probers)[0]
        if not len(active):
            return None
        sender_chunks: list[np.ndarray] = []
        port_chunks: list[np.ndarray] = []
        kind_chunks: list[np.ndarray] = []
        value_chunks: list[np.ndarray] = []
        inform_ports = np.arange(cfg.inform_width, dtype=np.int64)
        for v in active.tolist():
            if informers[v]:
                sender_chunks.append(
                    np.full(cfg.inform_width, v, dtype=np.int64)
                )
                port_chunks.append(inform_ports)
                kind_chunks.append(
                    np.full(cfg.inform_width, _INFORM, dtype=np.int64)
                )
                value_chunks.append(
                    np.full(cfg.inform_width, self.decisions[v], dtype=np.int64)
                )
            else:
                ports = self.streams[v].sample_without_replacement(
                    n - 1, cfg.probes
                )
                sender_chunks.append(np.full(cfg.probes, v, dtype=np.int64))
                port_chunks.append(ports)
                kind_chunks.append(np.full(cfg.probes, _PROBE, dtype=np.int64))
                value_chunks.append(np.zeros(cfg.probes, dtype=np.int64))
        return MessageBatch(
            senders=np.concatenate(sender_chunks),
            ports=np.concatenate(port_chunks),
            kinds=np.concatenate(kind_chunks),
            values=np.concatenate(value_chunks),
        )


def classical_agreement_engine(
    inputs: list[int],
    rng: RandomSource,
    shared_coin: SharedCoin | None = None,
    epsilon: float | None = None,
    inform_width: int | None = None,
    adversary=None,
    node_api: str | None = None,
) -> AgreementResult:
    """Run the engine-driven [AMP18] shared-coin agreement on K_n.

    Candidacy comes from one :func:`draw_candidates` lottery on a child
    of ``rng``; only the candidates, which go on to sample and probe, get
    private streams (``rng.spawn_many`` in ascending candidate order).

    ``adversary`` (an optional :class:`~repro.adversary.AdversarySpec`)
    injects engine-level message/crash faults — input schedules are
    applied by the caller when building ``inputs``.  The engine backend
    picks the program: the array-native :class:`_AMP18Batch` under
    ``"fast"``, the scalar :class:`_AMP18Node` twins under
    ``"reference"``; both are bit-identical under the same seeds and
    adversary specs.  ``node_api="batch"``/``"scalar"`` pins one of them.
    """
    n = len(inputs)
    if n < 3:
        raise ValueError(f"need n >= 3 nodes, got {n}")
    if any(b not in (0, 1) for b in inputs):
        raise ValueError("inputs must be 0/1")
    metrics = MetricsRecorder()
    topology = CompleteTopology(n)
    armed = (
        adversary.arm(adversary.derive_rng(rng), n)
        if adversary is not None and adversary.required_capabilities() & {"faults"}
        else None
    )
    if shared_coin is None:
        shared_coin = SharedCoin(rng.spawn())
    schedule = _Schedule.build(n, shared_coin, epsilon, inform_width)
    draw = draw_candidates(n, rng.spawn())
    streams = dict(zip(draw.candidates, rng.spawn_many(draw.count)))
    is_candidate = np.zeros(n, dtype=bool)
    is_candidate[draw.candidates] = True
    if wants_batch_dispatch(node_api):
        program = _AMP18Batch(schedule, streams, inputs, is_candidate)
    else:
        program = [
            _AMP18Node(
                v, n - 1, streams.get(v), schedule, inputs[v],
                bool(is_candidate[v]),
            )
            for v in range(n)
        ]
    engine = SynchronousEngine(
        topology, program, metrics, label="amp18-engine", adversary=armed
    )
    engine.run(max_rounds=schedule.final_round + 2)
    decisions = engine.program.decisions_dict()
    meta = {
        "candidates": draw.count,
        "epsilon": schedule.epsilon,
        "inform_width": schedule.inform_width,
        "samples": schedule.samples,
        "probes": schedule.probes,
        "iterations": schedule.iterations,
        "undecided_at_end": sum(
            1 for v in draw.candidates if decisions[v] is None
        ),
    }
    meta.update(engine.accounting_meta())
    return AgreementResult(
        n=n,
        inputs={v: inputs[v] for v in range(n)},
        decisions=decisions,
        metrics=metrics,
        meta=meta,
    )
