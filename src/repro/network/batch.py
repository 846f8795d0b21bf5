"""Array-native protocol contract: struct-of-arrays node state, one call per round.

The scalar :class:`~repro.network.node.Node` API crosses the numpy/Python
boundary once per node per round — ``step`` takes and returns ``(port,
Message)`` tuple lists, so every round still materializes Θ(messages)
Python objects even though *routing* is fully vectorized.  This module is
the array-native alternative: a :class:`BatchProtocol` owns its whole
network's state as numpy arrays (struct-of-arrays) and advances one
synchronous round with a single call

    ``step_batch(round_index, inbox) -> outbox``

over *all alive nodes at once*, where inbox and outbox use the engine's
batched :class:`MessageBatch` representation — parallel ``(senders, ports,
kinds, values)`` int64 columns, the same arrays the engine's routing
gathers operate on.  No per-node dispatch, no tuple materialization, no
``Message`` objects on the wire.

Contracts a ``step_batch`` implementation must honour (the engine checks
the cheap ones):

* **canonical send order** — outbox rows sorted by sender ascending, and
  within one sender in the node's emission order.  This is the exact
  order the reference oracle flattens each round's sends into, so fault
  masks drawn by an :class:`~repro.adversary.armed.ArmedAdversary`
  consume identical random streams and batch trials stay bit-identical
  to scalar ones;
* **halted nodes are silent** — a row may be emitted in the same round a
  node halts (matching a scalar ``step`` that sends and then calls
  ``halt()``), but a node halted *before* the round must not appear as a
  sender;
* **one message per port per round** — the CONGEST constraint, validated
  by the engine exactly as on the reference oracle.

Inbox batches arrive sorted by ``receivers`` ascending with the canonical
order preserved inside each receiver's group — identical to the per-inbox
append order of the reference oracle — and never contain rows addressed
to halted nodes (the engine drops those first, with the same accounting
as the oracle; see :meth:`~repro.network.node.Node.halt`).

:class:`ScalarAdapter` closes the loop in the other direction: it wraps
a list of :class:`~repro.network.node.Node` instances behind the
``step_batch`` contract (arrays → tuples → ``step`` → tuples → arrays).
The engine wraps every node list in one, so scalar and array-native
programs share one dispatch core.  The registry's ``--node-api batch``
remains an explicit request for an array-native port and is rejected
for protocols without one (``auto``/``scalar`` pick the node list there).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from itertools import chain
from typing import ClassVar

import numpy as np

from repro.network.node import Status

__all__ = [
    "BatchProtocol",
    "MessageBatch",
    "ScalarAdapter",
    "STATUS_CODES",
    "STATUS_ELECTED",
    "STATUS_NON_ELECTED",
    "STATUS_UNDECIDED",
    "wants_batch_dispatch",
]

#: Integer codes for the leader-election ``status`` variable in SoA state.
STATUS_UNDECIDED, STATUS_ELECTED, STATUS_NON_ELECTED = 0, 1, 2

#: Code → :class:`~repro.network.node.Status` (the scalar enum).
STATUS_CODES: dict[int, Status] = {
    STATUS_UNDECIDED: Status.UNDECIDED,
    STATUS_ELECTED: Status.ELECTED,
    STATUS_NON_ELECTED: Status.NON_ELECTED,
}


#: Status enum → integer code (inverse of :data:`STATUS_CODES`).
_STATUS_TO_CODE = {status: code for code, status in STATUS_CODES.items()}


def wants_batch_dispatch(node_api: str) -> bool:
    """True when a ``node_api`` request selects the array-native path.

    The shared triage every dual-implementation protocol driver uses:
    ``"batch"``/``"auto"`` pick the :class:`BatchProtocol` program,
    ``"scalar"`` the legacy node list, anything else is an error.
    (Registry consumers resolve ``"auto"`` against capability tags first
    — :meth:`repro.runtime.registry.ProtocolSpec.resolve_node_api` — so
    here ``"auto"`` only ever reaches a protocol that has a port.)
    """
    if node_api in ("batch", "auto"):
        return True
    if node_api == "scalar":
        return False
    raise ValueError(
        f"node_api must be 'auto', 'batch', or 'scalar', got {node_api!r}"
    )


def _as_i64(values) -> np.ndarray:
    return np.ascontiguousarray(values, dtype=np.int64)


@dataclass
class MessageBatch:
    """One round's messages as parallel columns (struct-of-arrays).

    Outbox flavour (returned by ``step_batch``): ``senders`` are the
    emitting nodes (ascending), ``ports`` the sender-side ports.  Inbox
    flavour (handed to ``step_batch``): ``receivers`` is set (ascending),
    ``ports`` holds the *arrival* ports, and ``senders`` the original
    origins — the array analogue of ``Message.sender``.

    Payload channels come in two flavours:

    * array-native: ``kinds`` (protocol-defined small-int message tags)
      and ``values`` (one int64 payload column), with optional ``bits``
      wire sizes for CONGEST accounting (None ⇒ every row is one unit)
      and optional typed ``extras`` columns — a dict of extra payload
      arrays (any numeric dtype) for protocols whose messages carry more
      than one field (HS hop counters, Borůvka edge triples).  A protocol
      that uses extras must put the *same* column names, zero-filled
      where unused, on every outbox so the engine's delay queue keeps a
      consistent schema;
    * object mode (:class:`ScalarAdapter` only): ``payloads`` is a list of
      :class:`~repro.network.message.Message` aligned with the columns.
    """

    senders: np.ndarray
    ports: np.ndarray
    kinds: np.ndarray | None = None
    values: np.ndarray | None = None
    bits: np.ndarray | None = None
    payloads: list | None = None
    extras: dict[str, np.ndarray] | None = None
    receivers: np.ndarray | None = None

    def __post_init__(self) -> None:
        self.senders = _as_i64(self.senders)
        self.ports = _as_i64(self.ports)
        if self.kinds is not None:
            self.kinds = _as_i64(self.kinds)
        if self.values is not None:
            self.values = _as_i64(self.values)
        if self.bits is not None:
            self.bits = _as_i64(self.bits)
        if self.extras is not None:
            self.extras = {
                name: np.ascontiguousarray(column)
                for name, column in self.extras.items()
            }
        if self.receivers is not None:
            self.receivers = _as_i64(self.receivers)

    def __len__(self) -> int:
        return len(self.senders)

    @classmethod
    def from_coerced(
        cls,
        senders: np.ndarray,
        ports: np.ndarray,
        kinds: np.ndarray | None = None,
        values: np.ndarray | None = None,
        bits: np.ndarray | None = None,
        payloads: list | None = None,
        extras: dict[str, np.ndarray] | None = None,
        receivers: np.ndarray | None = None,
    ) -> "MessageBatch":
        """A batch over columns already in the constructor's coerced form.

        The caller guarantees what ``__post_init__`` would enforce: the
        index and payload columns are C-contiguous int64 and every extras
        column is C-contiguous.  Columns gathered from a batch that was
        already coerced satisfy this, so sparse rounds skip a second
        coercion pass.
        """
        batch = cls.__new__(cls)
        batch.senders = senders
        batch.ports = ports
        batch.kinds = kinds
        batch.values = values
        batch.bits = bits
        batch.payloads = payloads
        batch.extras = extras
        batch.receivers = receivers
        return batch

    #: Cached zero-row batches keyed by mode; empty batches are immutable
    #: by convention (every consumer only reads), so the per-quiet-round
    #: column allocations collapse into two shared instances.
    _EMPTY_CACHE: ClassVar[dict[bool, "MessageBatch"]] = {}

    @classmethod
    def empty(cls, object_mode: bool = False) -> "MessageBatch":
        """A zero-row batch (the inbox of a silent round); shared, read-only."""
        cached = cls._EMPTY_CACHE.get(object_mode)
        if cached is None:
            zero = np.empty(0, dtype=np.int64)
            if object_mode:
                cached = cls(senders=zero, ports=zero, payloads=[], receivers=zero)
            else:
                cached = cls(
                    senders=zero, ports=zero, kinds=zero, values=zero,
                    receivers=zero,
                )
            cls._EMPTY_CACHE[object_mode] = cached
        return cached

    def take(self, indices: np.ndarray) -> "MessageBatch":
        """A new batch with every present column gathered at ``indices``.

        Absent optional columns (``bits``, ``payloads``, ``extras``) are
        never touched, and gathering nothing returns the shared empty
        batch instead of allocating fresh zero-length columns.
        """
        idx = np.asarray(indices, dtype=np.int64)
        if len(idx) == 0:
            return MessageBatch.empty(self.payloads is not None)
        return MessageBatch.from_coerced(
            senders=self.senders[idx],
            ports=self.ports[idx],
            kinds=None if self.kinds is None else self.kinds[idx],
            values=None if self.values is None else self.values[idx],
            bits=None if self.bits is None else self.bits[idx],
            payloads=(
                None
                if self.payloads is None
                else [self.payloads[i] for i in idx.tolist()]
            ),
            extras=(
                None
                if self.extras is None
                else {
                    name: column[idx] for name, column in self.extras.items()
                }
            ),
            receivers=None if self.receivers is None else self.receivers[idx],
        )


class BatchProtocol(ABC):
    """Base class for array-native protocols: SoA state, one step per round.

    Subclasses keep all node state in numpy arrays indexed by node id and
    implement :meth:`step_batch`.  The base class owns the three pieces of
    state every engine dispatch path shares: the ``halted`` mask (the SoA
    counterpart of ``Node.halted``; the engine reads it after every step
    and crash-stops nodes through :meth:`force_halt`), the
    ``status_codes`` array mirroring the leader-election ``status``
    variable, and ``decisions`` mirroring the agreement ``decision`` field
    (−1 encodes ⊥).
    """

    #: True when outboxes carry ``Message`` payloads instead of columns.
    uses_messages = False

    def __init__(self, n: int):
        if n < 1:
            raise ValueError(f"need n >= 1 nodes, got {n}")
        self.n = n
        self.halted = np.zeros(n, dtype=bool)
        self.status_codes = np.full(n, STATUS_UNDECIDED, dtype=np.int8)
        self.decisions = np.full(n, -1, dtype=np.int64)

    @abstractmethod
    def step_batch(
        self, round_index: int, inbox: MessageBatch
    ) -> MessageBatch | None:
        """Advance every alive node one round; return the round's sends.

        ``inbox`` is sorted by ``receivers`` ascending (canonical order
        within each group) and contains no rows for halted nodes.  Return
        None (or an empty batch) for a silent round.
        """

    # -- engine-facing state ---------------------------------------------------

    def halted_mask(self) -> np.ndarray:
        """The boolean halted-per-node view the engine filters inboxes by."""
        return self.halted

    def force_halt(self, v: int) -> None:
        """Crash-stop node ``v`` (the engine's adversary hook)."""
        self.halted[v] = True

    def alive_count(self) -> int:
        return int(self.n - np.count_nonzero(self.halted))

    # -- result helpers --------------------------------------------------------

    def sync_columns(self) -> None:
        """Bring ``status_codes`` and ``decisions`` up to date; the engine
        calls this once at the end of every run.  An array-native
        program's columns *are* its state, so this is a no-op here."""

    def decisions_dict(self) -> dict[int, int | None]:
        """``decisions`` as the agreement result convention (None for ⊥)."""
        return {
            v: (None if value < 0 else int(value))
            for v, value in enumerate(self.decisions.tolist())
        }


class ScalarAdapter(BatchProtocol):
    """Drive legacy :class:`~repro.network.node.Node` lists through
    :meth:`~BatchProtocol.step_batch`.

    The engine wraps every node list in one, so scalar programs share the
    batch dispatch core.  Each round the adapter hands every alive node
    its ``(port, Message)`` inbox, calls ``step`` in ascending node order
    (the reference oracle's schedule, so RNG consumption and send order
    are preserved), and flattens the outboxes back into one batch in
    canonical order.  Per-node Python dispatch still happens here;
    array-native protocols subclass :class:`BatchProtocol` to skip it.
    """

    uses_messages = True

    def __init__(self, nodes: list):
        super().__init__(len(nodes))
        self.nodes = nodes
        for v, node in enumerate(nodes):
            if node.halted:
                self.halted[v] = True
        self._boxes: list[list] = [[] for _ in nodes]
        self._filled: list[int] = []

    def force_halt(self, v: int) -> None:
        self.nodes[v].halted = True
        self.halted[v] = True

    def step_batch(
        self, round_index: int, inbox: MessageBatch
    ) -> MessageBatch | None:
        boxes = self._boxes
        for v in self._filled:
            boxes[v] = []
        count = len(inbox)
        if count:
            # The inbox is sorted by receiver: cut it at receiver changes
            # and hand each receiver its run of (port, message) pairs.
            pairs = list(zip(inbox.ports.tolist(), inbox.payloads))
            receivers = inbox.receivers
            cuts = (np.flatnonzero(receivers[1:] != receivers[:-1]) + 1).tolist()
            starts = [0, *cuts]
            self._filled = receivers[starts].tolist()
            for v, start, stop in zip(self._filled, starts, [*cuts, count]):
                boxes[v] = pairs[start:stop]
        else:
            self._filled = []
        halted = self.halted
        senders: list[int] = []
        sizes: list[int] = []
        port_chunks: list[tuple] = []
        message_chunks: list[tuple] = []
        for v, node in enumerate(self.nodes):
            if node.halted:
                continue
            outbox = node.step(round_index, boxes[v])
            if node.halted:
                halted[v] = True
            if outbox:
                ports, messages = zip(*outbox)
                senders.append(v)
                sizes.append(len(ports))
                port_chunks.append(ports)
                message_chunks.append(messages)
        if not senders:
            return None
        total = sum(sizes)
        return MessageBatch(
            senders=np.repeat(np.asarray(senders, dtype=np.int64), sizes),
            ports=np.fromiter(
                chain.from_iterable(port_chunks), dtype=np.int64, count=total
            ),
            payloads=list(chain.from_iterable(message_chunks)),
        )

    def sync_columns(self) -> None:
        # Mirrored from the wrapped nodes once per run, so the engine hot
        # loop never pays for a per-node sync.
        nodes = self.nodes
        self.status_codes[:] = np.fromiter(
            (_STATUS_TO_CODE[node.status] for node in nodes),
            dtype=np.int8,
            count=len(nodes),
        )
        self.decisions[:] = np.fromiter(
            (-1 if node.decision is None else node.decision for node in nodes),
            dtype=np.int64,
            count=len(nodes),
        )
