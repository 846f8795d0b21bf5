"""Classic ring leader election — Chang–Roberts (LCR) and Hirschberg–Sinclair.

Not part of the paper's headline results, but the canonical substrate
protocols for oriented rings, used to exercise (and regression-test) the
synchronous engine with genuinely multi-round message-passing behaviour:

* **LCR** — unidirectional, O(n²) worst-case / O(n·log n) expected messages;
* **Hirschberg–Sinclair** — bidirectional doubling probes, O(n·log n)
  worst-case messages.

Identifiers come from private randomness (ranks in {1, …, n⁴}), matching the
library-wide anonymous-network convention: one column of n independent
draws from a child of the trial's stream
(:meth:`~repro.util.rng.RandomSource.uniform_ints`).
"""

from __future__ import annotations

import numpy as np

from repro.core.candidates import rank_space
from repro.core.results import LeaderElectionResult
from repro.network.batch import (
    STATUS_ELECTED,
    STATUS_NON_ELECTED,
    STATUS_UNDECIDED,
    BatchProtocol,
    MessageBatch,
)
from repro.network.engine import SynchronousEngine, wants_batch_dispatch
from repro.network.graphs import cycle
from repro.network.message import Message
from repro.network.metrics import MetricsRecorder
from repro.network.node import Node, Status
from repro.util.rng import RandomSource

__all__ = ["lcr_ring", "hirschberg_sinclair_ring"]


def _ring_ports(topology, v: int) -> tuple[int, int]:
    """(clockwise_port, counterclockwise_port) of node v on cycle(n).

    The oriented-ring assumption: every node knows which port is clockwise.
    """
    n = topology.n
    cw = topology.port_to(v, (v + 1) % n)
    ccw = topology.port_to(v, (v - 1) % n)
    return cw, ccw


def _ring_port_columns(topology) -> tuple[np.ndarray, np.ndarray]:
    """:func:`_ring_ports` of every node as two int64 columns.

    One gather through the topology's port table: a node's clockwise port
    is 0 when port 0 reaches ``v + 1``, else 1, and the other of its two
    ports is counterclockwise.
    """
    n = topology.n
    nodes = np.arange(n, dtype=np.int64)
    at_port0 = topology.port_table().receivers(nodes, np.zeros(n, dtype=np.int64))
    cw = (at_port0 != (nodes + 1) % n).astype(np.int64)
    return cw, 1 - cw


class _LCRNode(Node):
    """Chang–Roberts: forward larger ids clockwise; own id returning wins."""

    def __init__(self, uid, degree, ring_id: int, cw_port: int):
        super().__init__(uid, degree, None)
        self.ring_id = ring_id
        self.cw_port = cw_port
        self.outbox: list[tuple[int, Message]] = []
        self.started = False

    def step(self, round_index: int, inbox):
        out: list[tuple[int, Message]] = []
        if not self.started:
            self.started = True
            out.append((self.cw_port, Message("probe", payload=self.ring_id)))
        halting = False
        best_probe = None
        for _, message in inbox:
            if message.kind == "probe":
                if message.payload == self.ring_id:
                    self.status = Status.ELECTED
                    out.append((self.cw_port, Message("halt", payload=self.ring_id)))
                elif message.payload > self.ring_id:
                    if best_probe is None or message.payload > best_probe:
                        best_probe = message.payload
                # smaller ids are swallowed
            elif message.kind == "halt":
                if self.status is Status.ELECTED:
                    halting = True  # own halt token came full circle
                else:
                    self.status = Status.NON_ELECTED
                    out.append((self.cw_port, message))
                    halting = True
        if best_probe is not None and self.status is not Status.ELECTED:
            out.append((self.cw_port, Message("probe", payload=best_probe)))
        # CONGEST: collapse to one message per port per round (keep the most
        # important: halt > probe with the largest id).
        per_port: dict[int, Message] = {}
        for port, message in out:
            current = per_port.get(port)
            if current is None:
                per_port[port] = message
            elif message.kind == "halt" or (
                current.kind == "probe"
                and message.kind == "probe"
                and message.payload > current.payload
            ):
                per_port[port] = message
        if halting:
            self.halt()
        return list(per_port.items())


#: LCR wire vocabulary shared by the scalar and array-native implementations.
_LCR_PROBE, _LCR_HALT = 0, 1


class _LCRBatch(BatchProtocol):
    """Array-native Chang–Roberts: the whole ring advances per numpy call.

    State is three columns (``ring_id``, ``cw_port``, inherited
    ``status_codes``/``halted``); each round reduces the inbox groups with
    ``np.maximum.at`` and emits at most one message per node — the same
    per-port collapse the scalar :class:`_LCRNode` performs, expressed
    once over all nodes.  Trace-identical to the scalar implementation
    (same ids, same canonical send order, same CONGEST collapse
    priorities), which the parity property tests assert bit-for-bit.
    """

    def __init__(self, topology, ring_ids: np.ndarray):
        n = topology.n
        super().__init__(n)
        self.ring_id = np.asarray(ring_ids, dtype=np.int64)
        self.cw_port, _ = _ring_port_columns(topology)

    def step_batch(self, round_index, inbox):
        n = self.n
        if round_index == 0:
            # Every alive node opens with its own id clockwise ("started").
            senders = np.nonzero(~self.halted)[0]
            return MessageBatch(
                senders=senders,
                ports=self.cw_port[senders],
                kinds=np.full(len(senders), _LCR_PROBE, dtype=np.int64),
                values=self.ring_id[senders],
            )
        if not len(inbox):
            return None
        rec = inbox.receivers
        probe = inbox.kinds == _LCR_PROBE
        halt = inbox.kinds == _LCR_HALT
        own = probe & (inbox.values == self.ring_id[rec])
        any_own = np.zeros(n, dtype=bool)
        any_own[rec[own]] = True
        any_halt = np.zeros(n, dtype=bool)
        any_halt[rec[halt]] = True
        greater = probe & (inbox.values > self.ring_id[rec])
        best = np.full(n, -1, dtype=np.int64)
        np.maximum.at(best, rec[greater], inbox.values[greater])
        # The scalar per-port collapse keeps the *last* halt a node
        # appended; track each receiver's last inbound halt position.
        last_halt = np.full(n, -1, dtype=np.int64)
        np.maximum.at(last_halt, rec[halt], np.arange(len(inbox))[halt])
        entering_elected = self.status_codes == STATUS_ELECTED
        # Status transitions (ELECTED absorbs within a round, exactly as
        # the scalar message loop behaves for any inbox interleaving).
        self.status_codes[any_own] = STATUS_ELECTED
        self.status_codes[any_halt & ~entering_elected & ~any_own] = (
            STATUS_NON_ELECTED
        )
        # Outgoing message per node after the CONGEST collapse: a halt
        # with the node's own id when its probe returned, else the last
        # forwarded halt, else the strongest bigger probe — and an
        # already-elected node only ever re-announces its own halt.
        halt_own = any_own
        halt_fwd = ~any_own & ~entering_elected & any_halt
        probe_out = (
            ~any_own & ~entering_elected & ~any_halt & (best >= 0)
        )
        senders = np.nonzero(halt_own | halt_fwd | probe_out)[0]
        self.halted |= any_halt
        if not len(senders):
            return None
        kinds = np.where(probe_out[senders], _LCR_PROBE, _LCR_HALT)
        values = np.where(
            halt_own[senders],
            self.ring_id[senders],
            np.where(
                halt_fwd[senders],
                inbox.values[last_halt[senders]],
                best[senders],
            ),
        )
        return MessageBatch(
            senders=senders,
            ports=self.cw_port[senders],
            kinds=kinds,
            values=values,
        )


def lcr_ring(
    n: int, rng: RandomSource, adversary=None, node_api: str | None = None
) -> LeaderElectionResult:
    """Run Chang–Roberts on an oriented ring of n nodes.

    ``adversary`` (an optional :class:`~repro.adversary.AdversarySpec`)
    injects engine-level faults; a dropped winning probe or halt token
    makes the ring run out its round budget undecided — exactly the
    resilience behaviour fault sweeps measure.

    The engine backend picks the program: ``"fast"`` runs the
    array-native :class:`_LCRBatch`, ``"reference"`` steps the scalar
    :class:`_LCRNode` twins one by one — bit-identical under the same
    seeds and adversary specs.  ``node_api="batch"``/``"scalar"`` pins
    one of them (:func:`~repro.network.engine.wants_batch_dispatch`).
    """
    if n < 3:
        raise ValueError(f"ring needs n >= 3 nodes, got {n}")
    topology = cycle(n)
    metrics = MetricsRecorder()
    armed = (
        adversary.arm(adversary.derive_rng(rng), n)
        if adversary is not None and not adversary.is_null
        else None
    )
    ids = rng.spawn().uniform_ints(1, rank_space(n), n)
    if wants_batch_dispatch(node_api):
        program = _LCRBatch(topology, ids)
    else:
        program = [
            _LCRNode(v, 2, ring_id, _ring_ports(topology, v)[0])
            for v, ring_id in enumerate(ids.tolist())
        ]
    engine = SynchronousEngine(
        topology, program, metrics, label="lcr", adversary=armed
    )
    engine.run(max_rounds=3 * n + 4)
    status = engine.program.status_codes
    # Anyone still undecided (duplicate-id pathology) ends non-elected.
    status[status == STATUS_UNDECIDED] = STATUS_NON_ELECTED
    meta = {"unique_ids": len(np.unique(ids)) == n}
    meta.update(engine.accounting_meta())
    return LeaderElectionResult(
        n=n, status_codes=status, metrics=metrics, meta=meta,
        crashed=engine.crashed_nodes,
    )


class _HSNode(Node):
    """Hirschberg–Sinclair: doubling bidirectional probes."""

    def __init__(self, uid, degree, ring_id: int, cw_port: int, ccw_port: int):
        super().__init__(uid, degree, None)
        self.ring_id = ring_id
        self.ports = {"cw": cw_port, "ccw": ccw_port}
        self.opposite = {cw_port: ccw_port, ccw_port: cw_port}
        self.phase = 0
        self.replies = 0
        self.competing = True
        self.started = False

    def _probes(self) -> list[tuple[int, Message]]:
        hops = 1 << self.phase
        return [
            (
                self.ports[direction],
                Message("probe", payload=(self.ring_id, hops)),
            )
            for direction in ("cw", "ccw")
        ]

    def step(self, round_index: int, inbox):
        out: list[tuple[int, Message]] = []
        if not self.started:
            self.started = True
            out.extend(self._probes())
        halting = False
        for port, message in inbox:
            if message.kind == "probe":
                probe_id, hops = message.payload
                if probe_id == self.ring_id:
                    if self.started and self.status is not Status.ELECTED:
                        # Our own probe circled the whole ring: we win.
                        self.status = Status.ELECTED
                        out.append(
                            (self.ports["cw"], Message("halt", payload=self.ring_id))
                        )
                elif probe_id > self.ring_id:
                    self.competing = False
                    if hops > 1:
                        out.append(
                            (
                                self.opposite[port],
                                Message("probe", payload=(probe_id, hops - 1)),
                            )
                        )
                    else:
                        out.append((port, Message("reply", payload=probe_id)))
                # probes with smaller ids are swallowed
            elif message.kind == "reply":
                if message.payload == self.ring_id:
                    self.replies += 1
                    if self.replies == 2:
                        self.replies = 0
                        self.phase += 1
                        out.extend(self._probes())
                else:
                    out.append((self.opposite[port], message))
            elif message.kind == "halt":
                if self.status is Status.ELECTED:
                    halting = True
                else:
                    self.status = Status.NON_ELECTED
                    out.append((self.ports["cw"], message))
                    halting = True
        # CONGEST: at most one message per port per round; prioritize halt,
        # then replies, then the strongest probe.
        rank = {"halt": 3, "reply": 2, "probe": 1}
        per_port: dict[int, Message] = {}
        for port, message in out:
            current = per_port.get(port)
            if current is None or rank[message.kind] > rank[current.kind] or (
                message.kind == "probe"
                and current.kind == "probe"
                and message.payload[0] > current.payload[0]
            ):
                per_port[port] = message
        if halting:
            self.halt()
        return list(per_port.items())


#: HS wire vocabulary shared by the scalar and array-native implementations.
#: Probes carry (id, hops-remaining) — id in ``values``, hops in the typed
#: ``extras["hops"]`` column; replies/halts carry an id and hops = 0.
_HS_PROBE, _HS_REPLY, _HS_HALT = 0, 1, 2


class _HSBatch(BatchProtocol):
    """Array-native Hirschberg–Sinclair: doubling probes, whole ring per call.

    The scalar :class:`_HSNode` processes its inbox *sequentially* — a
    reply may bump the phase whose new probes then outrank earlier
    emissions in the per-port CONGEST collapse.  The batch form replays
    that exactly: inbox rows are processed in per-receiver passes (pass k
    handles every node's k-th message, so state updates from pass k are
    visible in pass k+1), and emissions land in per-(node, port) outbox
    *slots* carrying the scalar collapse priorities (halt 3 > reply 2 >
    probe 1, probes tie-break on larger id, first write wins otherwise).
    Slot fill sequence numbers reproduce the scalar dict's insertion
    order, giving the identical canonical send order.
    """

    def __init__(self, topology, ring_ids: np.ndarray):
        n = topology.n
        super().__init__(n)
        self.ring_id = np.asarray(ring_ids, dtype=np.int64)
        self.cw_port, self.ccw_port = _ring_port_columns(topology)
        self.phase = np.zeros(n, dtype=np.int64)
        self.replies = np.zeros(n, dtype=np.int64)
        # Per-(node, port) outbox slots: slot 2v + p is v's message on
        # port p this round.  Ring nodes have ports 0 and 1, so a message
        # passed on through a node leaves on the port it did not arrive on,
        # ``p ^ 1``.
        self.slot_rank = np.zeros(2 * n, dtype=np.int64)
        self.slot_kind = np.zeros(2 * n, dtype=np.int64)
        self.slot_value = np.zeros(2 * n, dtype=np.int64)
        self.slot_hops = np.zeros(2 * n, dtype=np.int64)
        self.slot_seq = np.zeros(2 * n, dtype=np.int64)
        self._touched: list[np.ndarray] = []
        self._seq = 0

    # -- outbox slot machinery ---------------------------------------------

    def _emit(self, nodes, ports, kind, values, hops, rank) -> None:
        """Offer one message per node to its (node, port) slot.

        Mirrors the scalar per-port collapse: higher rank replaces, equal
        probe ranks tie-break on larger id, everything else keeps the
        incumbent.  ``hops`` may be a scalar or an array.
        """
        seq = self._seq
        self._seq += 1
        slots = 2 * nodes + ports
        cur = self.slot_rank[slots]
        # First fill records the insertion position (scalar dict order);
        # replacements keep it, exactly like overwriting a dict key.
        if not np.count_nonzero(cur):
            self.slot_seq[slots] = seq
        else:
            if rank == 1:
                replace = (cur == 0) | (
                    (cur == 1) & (values > self.slot_value[slots])
                )
            else:
                replace = cur < rank
            if not np.count_nonzero(replace):
                return
            slots, cur, values = slots[replace], cur[replace], values[replace]
            if isinstance(hops, np.ndarray):
                hops = hops[replace]
            self.slot_seq[slots[cur == 0]] = seq
        self.slot_kind[slots] = kind
        self.slot_value[slots] = values
        self.slot_hops[slots] = hops
        self.slot_rank[slots] = rank
        self._touched.append(slots)

    def _flush(self):
        touched = self._touched
        if not touched:
            return None
        # One _emit fills distinct nodes in ascending order, so its slots
        # are already in canonical send order.  Several may fill a slot
        # twice (dedup) or one sender's two slots: order those by fill
        # sequence, the scalar dict's insertion order (one _emit fills at
        # most one slot per sender, so a sender's two sequences differ).
        if len(touched) == 1:
            slots = touched[0]
        else:
            slots = np.unique(np.concatenate(touched))
            senders = slots >> 1
            if np.count_nonzero(senders[1:] == senders[:-1]):
                slots = slots[np.lexsort((self.slot_seq[slots], senders))]
        self._touched = []
        self.slot_rank[slots] = 0
        return MessageBatch.from_coerced(
            senders=slots >> 1,
            ports=slots & 1,
            kinds=self.slot_kind[slots],
            values=self.slot_value[slots],
            extras={"hops": self.slot_hops[slots]},
        )

    # -- per-pass protocol logic -------------------------------------------

    def _pass(self, v, port, kind, val, hop) -> None:
        """Process each selected node's next inbox message (≤ 1 per node).

        One count per kind gates the three branches, and a pass of one
        kind hands its rows over unmasked.  The branches touch disjoint
        nodes, and each keeps the scalar order of its _emit calls, which
        fixes the slot sequence numbers and so the canonical send order.
        """
        branches = (self._probes_in, self._replies_in, self._halts_in)
        for code, count in enumerate(np.bincount(kind, minlength=3).tolist()):
            if count == len(v):
                branches[code](v, port, val, hop)
            elif count:
                sel = np.nonzero(kind == code)[0]
                branches[code](v[sel], port[sel], val[sel], hop[sel])

    def _probes_in(self, v, port, val, hop) -> None:
        my_id = self.ring_id[v]
        bigger = val > my_id
        n_bigger = np.count_nonzero(bigger)
        if n_bigger < len(v):
            # Own probe circled the whole ring: we win (idempotent per
            # round).  Probes with smaller ids are swallowed.
            own = (val == my_id) & (self.status_codes[v] != STATUS_ELECTED)
            if np.count_nonzero(own):
                w = v[own]
                self.status_codes[w] = STATUS_ELECTED
                self._emit(w, self.cw_port[w], _HS_HALT, val[own], 0, 3)
            if not n_bigger:
                return
            v, port, val, hop = v[bigger], port[bigger], val[bigger], hop[bigger]
        # A bigger probe travels on while it has hops left, else it turns
        # back as a reply.
        fwd = hop > 1
        n_fwd = np.count_nonzero(fwd)
        if n_fwd == len(v):
            self._emit(v, port ^ 1, _HS_PROBE, val, hop - 1, 1)
            return
        if n_fwd:
            self._emit(
                v[fwd], port[fwd] ^ 1, _HS_PROBE, val[fwd], hop[fwd] - 1, 1
            )
        turn = ~fwd
        self._emit(v[turn], port[turn], _HS_REPLY, val[turn], 0, 2)

    def _replies_in(self, v, port, val, hop) -> None:
        mine = val == self.ring_id[v]
        n_mine = np.count_nonzero(mine)
        if n_mine:
            w = v if n_mine == len(v) else v[mine]
            self.replies[w] += 1
            up = w[self.replies[w] == 2]
            if len(up):
                self.replies[up] = 0
                self.phase[up] += 1
                new_hops = np.int64(1) << self.phase[up]
                ids = self.ring_id[up]
                self._emit(up, self.cw_port[up], _HS_PROBE, ids, new_hops, 1)
                self._emit(up, self.ccw_port[up], _HS_PROBE, ids, new_hops, 1)
            if n_mine == len(v):
                return
            fwd = ~mine
            v, port, val = v[fwd], port[fwd], val[fwd]
        self._emit(v, port ^ 1, _HS_REPLY, val, 0, 2)

    def _halts_in(self, v, port, val, hop) -> None:
        # A halting node still processes its remaining inbox (and its
        # same-round sends go out), matching scalar halt semantics.
        elected = self.status_codes[v] == STATUS_ELECTED
        n_elected = np.count_nonzero(elected)
        if n_elected:
            self.halted[v[elected]] = True
            if n_elected == len(v):
                return
            lose = ~elected
            v, val = v[lose], val[lose]
        self.status_codes[v] = STATUS_NON_ELECTED
        self._emit(v, self.cw_port[v], _HS_HALT, val, 0, 3)
        self.halted[v] = True

    def step_batch(self, round_index, inbox):
        self._seq = 0
        if round_index == 0:
            alive = np.nonzero(~self.halted)[0]
            ones = np.ones(len(alive), dtype=np.int64)  # hops = 1 << phase 0
            ids = self.ring_id[alive]
            self._emit(alive, self.cw_port[alive], _HS_PROBE, ids, ones, 1)
            self._emit(alive, self.ccw_port[alive], _HS_PROBE, ids, ones, 1)
            return self._flush()
        if not len(inbox):
            return None
        rec = inbox.receivers
        hops = inbox.extras["hops"]
        repeat = rec[1:] == rec[:-1]
        if not np.count_nonzero(repeat):
            self._pass(rec, inbox.ports, inbox.kinds, inbox.values, hops)
            return self._flush()
        # Pass k processes every node's k-th inbox row, so sequential
        # per-node state updates land before the node's next message.
        first = np.ones(len(rec), dtype=bool)
        first[1:] = ~repeat
        starts = np.nonzero(first)[0]
        sizes = np.diff(np.append(starts, len(rec)))
        k_rank = np.arange(len(rec)) - np.repeat(starts, sizes)
        for k in range(int(sizes.max())):
            sel = np.nonzero(k_rank == k)[0]
            self._pass(
                rec[sel],
                inbox.ports[sel],
                inbox.kinds[sel],
                inbox.values[sel],
                hops[sel],
            )
        return self._flush()


def hirschberg_sinclair_ring(
    n: int, rng: RandomSource, adversary=None, node_api: str | None = None
) -> LeaderElectionResult:
    """Run Hirschberg–Sinclair on an oriented ring of n nodes.

    ``adversary`` injects engine-level faults, as in :func:`lcr_ring`.

    The engine backend picks the program, as in :func:`lcr_ring`: the
    array-native :class:`_HSBatch` under ``"fast"``, the scalar
    :class:`_HSNode` twins under ``"reference"``.
    """
    if n < 3:
        raise ValueError(f"ring needs n >= 3 nodes, got {n}")
    topology = cycle(n)
    metrics = MetricsRecorder()
    armed = (
        adversary.arm(adversary.derive_rng(rng), n)
        if adversary is not None and not adversary.is_null
        else None
    )
    ids = rng.spawn().uniform_ints(1, rank_space(n), n)
    if wants_batch_dispatch(node_api):
        program = _HSBatch(topology, ids)
    else:
        program = [
            _HSNode(v, 2, ring_id, *_ring_ports(topology, v))
            for v, ring_id in enumerate(ids.tolist())
        ]
    engine = SynchronousEngine(
        topology, program, metrics, label="hs", adversary=armed
    )
    engine.run(max_rounds=12 * n + 16)
    status = engine.program.status_codes
    status[status == STATUS_UNDECIDED] = STATUS_NON_ELECTED
    meta = {"unique_ids": len(np.unique(ids)) == n}
    meta.update(engine.accounting_meta())
    return LeaderElectionResult(
        n=n, status_codes=status, metrics=metrics, meta=meta,
        crashed=engine.crashed_nodes,
    )
