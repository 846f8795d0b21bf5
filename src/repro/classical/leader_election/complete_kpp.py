"""Classical leader election in complete networks — [KPP+15b], Θ̃(√n) messages.

The birthday-paradox protocol the paper's QuantumLE is measured against
(Section 1.2, "Leader election and handshake"): every candidate sends its
rank to Θ(√(n·log n)) uniformly random *referees*; any two candidates' referee
sets collide with high probability, so every referee that heard from several
candidates can tell the losers apart.  A candidate that hears of no higher
rank becomes the leader.

Θ̃(√n) is *tight* classically (even for Monte Carlo algorithms with constant
success probability), which is precisely the bound QuantumLE's Õ(n^{1/3})
breaches.

Runs on the real synchronous engine: three rounds, messages counted
port-to-port.
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.candidates import CandidateDraw, draw_candidates
from repro.core.results import LeaderElectionResult
from repro.network.batch import (
    STATUS_ELECTED,
    STATUS_NON_ELECTED,
    BatchProtocol,
    MessageBatch,
)
from repro.network.engine import SynchronousEngine, wants_batch_dispatch
from repro.network.kernels import get_kernels
from repro.network.message import Message
from repro.network.metrics import MetricsRecorder
from repro.network.node import Node, Status
from repro.network.topology import CompleteTopology
from repro.util.rng import RandomSource

__all__ = ["classical_le_complete", "default_referees_complete"]


def default_referees_complete(n: int) -> int:
    """Referee-set size Θ(√(n·ln n)) giving w.h.p. pairwise collisions."""
    return max(1, min(n - 1, math.ceil(2.0 * math.sqrt(n * math.log(max(n, 2))))))


class _KPPNode(Node):
    """Engine node for the three-round birthday protocol."""

    def __init__(
        self,
        uid: int,
        degree: int,
        rng: RandomSource | None,
        referees: int,
        rank: int | None,
    ):
        super().__init__(uid, degree, rng)
        self.referees = referees
        self.is_candidate = rank is not None
        self.rank = rank or 0
        self.best_seen = 0  # highest rank this node heard of as a referee
        self.senders: list[int] = []  # ports that sent us a rank
        if not self.is_candidate:
            self.status = Status.NON_ELECTED

    def step(self, round_index: int, inbox):
        if round_index == 0:
            if not self.is_candidate:
                return []
            ports = self.rng.sample_without_replacement(self.degree, self.referees)
            return [
                (int(port), Message("rank", payload=self.rank)) for port in ports
            ]
        if round_index == 1:
            for port, message in inbox:
                self.best_seen = max(self.best_seen, message.payload)
                self.senders.append(port)
            return [
                (port, Message("best", payload=self.best_seen))
                for port in self.senders
            ]
        if round_index == 2:
            if self.is_candidate:
                # A candidate may itself have served as a referee; its own
                # best_seen knowledge counts toward the decision.
                highest_reply = max(
                    (message.payload for _, message in inbox),
                    default=0,
                )
                highest_reply = max(highest_reply, self.best_seen)
                if highest_reply > self.rank:
                    self.status = Status.NON_ELECTED
                else:
                    self.status = Status.ELECTED
            self.halt()
            return []
        return []


#: KPP wire vocabulary shared by the scalar and array-native implementations.
_KPP_RANK, _KPP_BEST = 0, 1


class _KPPBatch(BatchProtocol):
    """Array-native three-round birthday protocol.

    Column state: ``is_candidate``, ``rank``, ``best_seen``, filled from
    the candidate lottery.  ``rank`` holds each candidate's dense rank
    level (:meth:`~repro.core.candidates.CandidateDraw.rank_levels`):
    ranks outgrow int64 from n = 55,109, levels compare the same, and 0
    stays free for "no rank heard".  Round 0 draws each candidate's
    referee ports from the *same* per-candidate streams as the scalar
    :class:`_KPPNode` (a short Python loop over the Θ(log n) candidates);
    rounds 1 and 2 are pure numpy — the referee replies of round 1 are
    literally the inbox batch turned around (``senders = receivers``)
    with the group-maximum level gathered in.
    """

    def __init__(
        self,
        n: int,
        draw: CandidateDraw,
        streams: dict[int, RandomSource],
        referees: int,
    ):
        super().__init__(n)
        self.streams = streams
        self.referees = referees
        self.kernels = get_kernels()
        self.is_candidate = np.zeros(n, dtype=bool)
        self.rank = np.zeros(n, dtype=np.int64)
        self.best_seen = np.zeros(n, dtype=np.int64)
        candidates = np.asarray(draw.candidates, dtype=np.int64)
        self.is_candidate[candidates] = True
        self.rank[candidates] = draw.rank_levels()
        self.status_codes[~self.is_candidate] = STATUS_NON_ELECTED

    def step_batch(self, round_index, inbox):
        n = self.n
        if round_index == 0:
            candidates = np.nonzero(self.is_candidate & ~self.halted)[0]
            port_chunks = [
                self.streams[v].sample_without_replacement(n - 1, self.referees)
                for v in candidates.tolist()
            ]
            if not port_chunks:
                return None
            senders = np.repeat(candidates, self.referees)
            return MessageBatch(
                senders=senders,
                ports=np.concatenate(port_chunks),
                kinds=np.full(len(senders), _KPP_RANK, dtype=np.int64),
                values=self.rank[senders],
            )
        if round_index == 1:
            if not len(inbox):
                return None
            rec = inbox.receivers
            self.kernels.scatter_max(self.best_seen, rec, inbox.values)
            return MessageBatch(
                senders=rec,
                ports=inbox.ports,
                kinds=np.full(len(inbox), _KPP_BEST, dtype=np.int64),
                values=self.best_seen[rec],
            )
        if round_index == 2:
            highest = self.best_seen.copy()
            if len(inbox):
                self.kernels.scatter_max(highest, inbox.receivers, inbox.values)
            alive = ~self.halted
            candidate = self.is_candidate & alive
            self.status_codes[candidate & (highest > self.rank)] = (
                STATUS_NON_ELECTED
            )
            self.status_codes[candidate & (highest <= self.rank)] = STATUS_ELECTED
            self.halted |= alive
        return None


def classical_le_complete(
    n: int,
    rng: RandomSource,
    referees: int | None = None,
    adversary=None,
    node_api: str | None = None,
) -> LeaderElectionResult:
    """Run the [KPP+15b]-style classical LE protocol on K_n.

    Candidacy and ranks come from one :func:`draw_candidates` lottery on
    a child of ``rng``; only the candidates, which go on to sample
    referees, get private streams (``rng.spawn_many`` in ascending
    candidate order).

    ``adversary`` is an optional
    :class:`~repro.adversary.AdversarySpec` applied at the engine level
    (message drop/delay/duplicate, crash-stop schedules).  Its random
    stream derives from ``rng`` before the lottery, so a null (or
    absent) spec leaves the run bit-identical to the fault-free path.

    The engine backend picks the program: the array-native
    :class:`_KPPBatch` under ``"fast"``, the scalar :class:`_KPPNode`
    twins under ``"reference"`` — identical messages, rounds and statuses
    under the same seeds and adversary specs (the port's in-flight values
    are rank levels rather than ranks).  ``node_api="batch"``/``"scalar"``
    pins one of them.
    """
    if n < 2:
        raise ValueError(f"need n >= 2 nodes, got {n}")
    if referees is None:
        referees = default_referees_complete(n)
    if not 1 <= referees <= n - 1:
        raise ValueError(f"referees must be in [1, {n - 1}], got {referees}")

    topology = CompleteTopology(n)
    metrics = MetricsRecorder()
    armed = (
        adversary.arm(adversary.derive_rng(rng), n)
        if adversary is not None and not adversary.is_null
        else None
    )
    draw = draw_candidates(n, rng.spawn())
    streams = dict(zip(draw.candidates, rng.spawn_many(draw.count)))
    if wants_batch_dispatch(node_api):
        program = _KPPBatch(n, draw, streams, referees)
    else:
        program = [
            _KPPNode(v, n - 1, streams.get(v), referees, draw.ranks.get(v))
            for v in range(n)
        ]
    engine = SynchronousEngine(
        topology, program, metrics, label="kpp-le", adversary=armed
    )
    engine.run(max_rounds=4)
    # Candidates that never heard anything higher may tie only on rank
    # collisions (probability ≤ 1/n² — Fact C.2).
    meta = {"candidates": draw.count, "referees": referees}
    meta.update(engine.accounting_meta())
    return LeaderElectionResult(
        n=n,
        status_codes=engine.program.status_codes,
        metrics=metrics,
        meta=meta,
        crashed=engine.crashed_nodes,
    )
