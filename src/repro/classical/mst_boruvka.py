"""Classical distributed MST — Borůvka/GHS style, Θ(m·log n) messages.

Two comparators for QuantumMST live here:

* :func:`classical_mst` — the original *cost-model* analysis: identical
  Borůvka merging with centrally-computed cluster minima, message/round
  charges applied per phase.  Its per-phase best-edge scan is vectorized
  through the cached port table (one CSR-style flat edge list built once,
  per-cluster lexicographic argmin per phase) instead of a Python loop
  over every (node, port) pair.
* :func:`boruvka_mst_engine` — the same algorithm actually *executed* on
  the synchronous engine, message by message, with scalar and
  array-native implementations (the engine backend picks one) that are
  bit-identical under the same seeds and adversary specs.

Each node finds its minimum-weight outgoing edge by probing *every* port
(weight and cluster-id exchange over each edge, both directions) — Θ(m)
per phase, the cost [KPP+15a]'s Ω(m) bound says is unavoidable
classically.
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.leader_election.clusters import ClusterState
from repro.core.leader_election.mst import MSTResult, edge_key
from repro.network.batch import BatchProtocol, MessageBatch
from repro.network.engine import SynchronousEngine, wants_batch_dispatch
from repro.network.kernels import get_kernels
from repro.network.message import Message
from repro.network.metrics import MetricsRecorder
from repro.network.node import Node
from repro.network.topology import Topology
from repro.util.rng import RandomSource

__all__ = ["boruvka_mst_engine", "classical_mst"]


def _flat_edge_arrays(topology: Topology):
    """(degrees, offsets, sender, port, neighbour) flat port-major arrays.

    One vectorized pass through the cached port table — no per-node
    topology queries, no edge materialization beyond the O(m) rows the
    protocol itself needs.
    """
    n = topology.n
    table = topology.port_table()
    degrees = table.degrees_of(np.arange(n))
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(degrees, out=offsets[1:])
    total = int(offsets[-1])
    flat_sender = np.repeat(np.arange(n), degrees)
    flat_port = np.arange(total, dtype=np.int64) - np.repeat(
        offsets[:-1], degrees
    )
    flat_nbr = table.receivers(flat_sender, flat_port)
    return degrees, offsets, flat_sender, flat_port, flat_nbr


def _flat_weights(
    weights: dict[tuple[int, int], float], flat_a, flat_b
) -> np.ndarray:
    flat_w = np.empty(len(flat_a), dtype=np.float64)
    for i, (a, b) in enumerate(zip(flat_a.tolist(), flat_b.tolist())):
        flat_w[i] = weights[(a, b)]
    return flat_w


def classical_mst(
    topology: Topology,
    weights: dict[tuple[int, int], float],
    rng: RandomSource,
) -> MSTResult:
    """Compute the MST classically by probe-all-ports Borůvka merging."""
    n = topology.n
    if n < 2:
        raise ValueError(f"need n >= 2 nodes, got {n}")
    for u, v in topology.edges():
        if (u, v) not in weights:
            raise ValueError(f"missing weight for edge ({u}, {v})")
    m = topology.edge_count()

    metrics = MetricsRecorder()
    state = ClusterState(n)
    mst_edges: list[tuple[int, int]] = []
    phase_limit = 4 * max(1, math.ceil(math.log2(n))) + 8
    phases = 0

    # Flat (node, port) rows once, reused every phase.  Row order is node
    # ascending then port ascending — the same iteration order the old
    # nested Python loop used, so first-wins argmin ties are preserved.
    _, _, flat_sender, _, flat_nbr = _flat_edge_arrays(topology)
    flat_a = np.minimum(flat_sender, flat_nbr)
    flat_b = np.maximum(flat_sender, flat_nbr)
    flat_w = _flat_weights(weights, flat_a, flat_b)
    kernels = get_kernels()

    while state.count > 1 and phases < phase_limit:
        phases += 1

        # Every node probes every port: weight + cluster id out, echo back.
        metrics.charge("classical-mst.probe-all-ports", messages=4 * m, rounds=2)

        cids = np.fromiter(
            (state.cluster_id(v) for v in range(n)), dtype=np.int64, count=n
        )
        valid = np.nonzero(cids[flat_sender] != cids[flat_nbr])[0]
        pos = kernels.group_argmin_lex3(
            cids[flat_sender[valid]],
            flat_w[valid],
            flat_a[valid],
            flat_b[valid],
            n,
        )
        best_clusters = np.nonzero(pos >= 0)[0]

        metrics.charge(
            "classical-mst.convergecast",
            messages=state.total_tree_edges(),
            rounds=max(1, state.max_height()),
        )

        if not len(best_clusters):
            break

        merged_any = False
        for cid in best_clusters.tolist():
            row = int(valid[pos[cid]])
            v, w = int(flat_sender[row]), int(flat_nbr[row])
            ca, cb = state.cluster_id(v), state.cluster_id(w)
            if ca == cb:
                continue
            state.merge(ca, cb, (v, w))
            a, b = (v, w) if v < w else (w, v)
            mst_edges.append((a, b))
            merged_any = True
        metrics.charge(
            "classical-mst.merge-broadcast",
            messages=n,
            rounds=max(1, state.max_height()),
        )
        if not merged_any:
            break

    total = sum(weights[e] for e in mst_edges)
    return MSTResult(
        n=n,
        edges=mst_edges,
        total_weight=total,
        metrics=metrics,
        meta={"phases": phases, "m": m, "clusters_remaining": state.count},
    )


# ---------------------------------------------------------------------------
# Engine-executed Borůvka
# ---------------------------------------------------------------------------

#: Borůvka wire vocabulary shared by the scalar and batch implementations.
#: ANNOUNCE carries the sender's cluster label; GATHER carries a candidate
#: minimum outgoing edge (w, a, b) — a in ``values``, w/b in the typed
#: extras columns; MERGEREQ is a bare token; MERGE carries a cluster label.
_BV_ANNOUNCE, _BV_GATHER, _BV_MERGEREQ, _BV_MERGE = 0, 1, 2, 3


def _window_length(n: int) -> int:
    """Rounds per Borůvka phase: announce (1) + gather flood (n + 1) +
    merge requests (1) + label flood (n)."""
    return 2 * n + 3


def _phase_budget(n: int) -> int:
    return max(1, math.ceil(math.log2(n))) + 2


class _BoruvkaNode(Node):
    """Engine node: one Borůvka phase per fixed window of 2n + 3 rounds.

    Window schedule (t = round mod window):
      t = 0        reset; ANNOUNCE(cluster) on every port
      t = 1        record announces; local min outgoing edge; start the
                   gather flood over the current tree edges
      t = 2 … n+1  fold GATHER minima, re-flood on improvement
      t = n+1      (after the final fold) the node owning the cluster
                   minimum sends MERGEREQ on it and adopts it as a tree edge
      t = n+2      MERGEREQ arrivals become tree edges; flood MERGE(cluster)
      t = n+3 … 2n+2  fold MERGE label minima, re-flood on improvement;
                   at t = 2n+2 adopt the label (and halt if the cluster saw
                   no outgoing edge — it already spans its component)
    """

    def __init__(
        self,
        uid: int,
        degree: int,
        rng: RandomSource,
        n_total: int,
        neighbor_ids: list[int],
        port_weights: list[float],
    ):
        super().__init__(uid, degree, rng)
        self.n_total = n_total
        self.neighbor_ids = neighbor_ids
        self.port_weights = port_weights
        self.cluster = uid
        self.tree_ports: set[int] = set()
        self.chosen: list[tuple[int, int]] = []
        self.neighbor_cluster: list[int | None] = [None] * degree
        self.best: tuple[float, int, int] | None = None
        self.sent_best: tuple[float, int, int] | None = None
        self.local_best: tuple[float, int, int] | None = None
        self.local_port: int | None = None
        self.no_outgoing = False
        self.merge_value = uid
        self.sent_merge = uid

    def _edge_triple(self, port: int) -> tuple[float, int, int]:
        u = self.neighbor_ids[port]
        a, b = (self.uid, u) if self.uid < u else (u, self.uid)
        return (self.port_weights[port], a, b)

    def _gather_if_changed(self) -> list[tuple[int, Message]]:
        if self.best is None or self.best == self.sent_best:
            return []
        out = [
            (port, Message("gather", payload=self.best))
            for port in sorted(self.tree_ports)
        ]
        self.sent_best = self.best
        return out

    def _merge_if_changed(self) -> list[tuple[int, Message]]:
        if self.merge_value == self.sent_merge:
            return []
        out = [
            (port, Message("merge", payload=self.merge_value))
            for port in sorted(self.tree_ports)
        ]
        self.sent_merge = self.merge_value
        return out

    def step(self, round_index: int, inbox):
        n = self.n_total
        t = round_index % _window_length(n)
        if t == 0:
            self.neighbor_cluster = [None] * self.degree
            self.best = None
            self.sent_best = None
            self.local_best = None
            self.local_port = None
            self.no_outgoing = False
            return [
                (port, Message("announce", payload=self.cluster))
                for port in range(self.degree)
            ]
        if t == 1:
            for port, message in inbox:
                if message.kind == "announce":
                    self.neighbor_cluster[port] = message.payload
            for port in range(self.degree):
                nc = self.neighbor_cluster[port]
                if nc is None or nc == self.cluster:
                    continue
                triple = self._edge_triple(port)
                if self.local_best is None or triple < self.local_best:
                    self.local_best = triple
                    self.local_port = port
            self.best = self.local_best
            return self._gather_if_changed()
        if 2 <= t <= n + 1:
            for _, message in inbox:
                if message.kind == "gather" and (
                    self.best is None or message.payload < self.best
                ):
                    self.best = message.payload
            if t < n + 1:
                return self._gather_if_changed()
            # t == n + 1: the gather flood has converged cluster-wide.
            if self.best is None:
                self.no_outgoing = True
                return []
            if self.local_best == self.best:
                self.tree_ports.add(self.local_port)
                self.chosen.append((self.best[1], self.best[2]))
                return [(self.local_port, Message("merge-req"))]
            return []
        if t == n + 2:
            for port, message in inbox:
                if message.kind == "merge-req":
                    self.tree_ports.add(port)
            self.merge_value = self.cluster
            self.sent_merge = self.cluster
            return [
                (port, Message("merge", payload=self.merge_value))
                for port in sorted(self.tree_ports)
            ]
        # n + 3 <= t <= 2n + 2: minimum-label flood over the merged tree.
        for _, message in inbox:
            if message.kind == "merge" and message.payload < self.merge_value:
                self.merge_value = message.payload
        if t < 2 * n + 2:
            return self._merge_if_changed()
        self.cluster = self.merge_value
        if self.no_outgoing:
            self.halt()
        return []


class _BoruvkaBatch(BatchProtocol):
    """Array-native Borůvka: the same window schedule, whole graph per call.

    All adjacency lives in flat port-major rows (sender, port, neighbour,
    normalized endpoints, weight) built once from the cached port table;
    tree membership is a boolean over those rows.  Gather folds use the
    kernel tier's lexicographic scatter-min, announce recording and
    merge-label folds its plain scatters — every fold commutative, so
    vector order matches the scalar node's sequential inbox loop exactly.
    """

    def __init__(self, topology, flat, flat_a, flat_b, flat_w):
        n = topology.n
        super().__init__(n)
        self.kernels = get_kernels()
        degrees, offsets, flat_sender, flat_port, _ = flat
        self.offsets = offsets
        self.flat_sender = flat_sender
        self.flat_port = flat_port
        self.flat_a = flat_a
        self.flat_b = flat_b
        self.flat_w = flat_w
        total = len(flat_sender)
        self.tree_flat = np.zeros(total, dtype=bool)
        self.cluster = np.arange(n, dtype=np.int64)
        self._ncl = np.full(total, -1, dtype=np.int64)
        inf = np.inf
        self.best_w = np.full(n, inf)
        self.best_a = np.full(n, -1, dtype=np.int64)
        self.best_b = np.full(n, -1, dtype=np.int64)
        self.sent_w = np.full(n, inf)
        self.sent_a = np.full(n, -1, dtype=np.int64)
        self.sent_b = np.full(n, -1, dtype=np.int64)
        self.lc_w = np.full(n, inf)
        self.lc_a = np.full(n, -1, dtype=np.int64)
        self.lc_b = np.full(n, -1, dtype=np.int64)
        self.lc_port = np.full(n, -1, dtype=np.int64)
        self.no_outgoing = np.zeros(n, dtype=bool)
        self.merge_value = np.arange(n, dtype=np.int64)
        self.sent_merge = np.arange(n, dtype=np.int64)
        self.chosen: list[tuple[int, int]] = []

    def _rows_batch(self, rows, kind, values, w, e2):
        senders = self.flat_sender[rows]
        return MessageBatch(
            senders=senders,
            ports=self.flat_port[rows],
            kinds=np.full(len(rows), kind, dtype=np.int64),
            values=values,
            extras={"w": w, "e2": e2},
        )

    def _tree_rows(self, mask):
        """Flat row indices of tree edges whose owner is in ``mask``.

        Row-major flat order is sender ascending then port ascending —
        the scalar node's ``sorted(tree_ports)`` emission order.
        """
        return np.nonzero(self.tree_flat & mask[self.flat_sender])[0]

    def _gather_batch(self, upd):
        rows = self._tree_rows(upd)
        if not len(rows):
            return None
        s = self.flat_sender[rows]
        return self._rows_batch(
            rows, _BV_GATHER, self.best_a[s], self.best_w[s], self.best_b[s]
        )

    def _gather_if_changed(self):
        changed = (
            (self.best_w != self.sent_w)
            | (self.best_a != self.sent_a)
            | (self.best_b != self.sent_b)
        )
        upd = (self.best_w < np.inf) & changed & ~self.halted
        batch = self._gather_batch(upd)
        self.sent_w[upd] = self.best_w[upd]
        self.sent_a[upd] = self.best_a[upd]
        self.sent_b[upd] = self.best_b[upd]
        return batch

    def _merge_if_changed(self):
        changed = (self.merge_value != self.sent_merge) & ~self.halted
        rows = self._tree_rows(changed)
        self.sent_merge[changed] = self.merge_value[changed]
        if not len(rows):
            return None
        s = self.flat_sender[rows]
        zeros = np.zeros(len(rows))
        return self._rows_batch(
            rows,
            _BV_MERGE,
            self.merge_value[s],
            zeros,
            np.zeros(len(rows), dtype=np.int64),
        )

    def _fold_gather(self, inbox) -> None:
        if not len(inbox):
            return
        mask = inbox.kinds == _BV_GATHER
        if not mask.any():
            return
        self.kernels.scatter_min_lex3(
            self.best_w,
            self.best_a,
            self.best_b,
            inbox.receivers[mask],
            inbox.extras["w"][mask],
            inbox.values[mask],
            inbox.extras["e2"][mask],
        )

    def _fold_merge(self, inbox) -> None:
        if not len(inbox):
            return
        mask = inbox.kinds == _BV_MERGE
        if not mask.any():
            return
        self.kernels.scatter_min(
            self.merge_value, inbox.receivers[mask], inbox.values[mask]
        )

    def step_batch(self, round_index, inbox):
        n = self.n
        t = round_index % _window_length(n)
        alive = ~self.halted
        if t == 0:
            self._ncl[:] = -1
            self.best_w[:] = np.inf
            self.best_a[:] = -1
            self.best_b[:] = -1
            self.sent_w[:] = np.inf
            self.sent_a[:] = -1
            self.sent_b[:] = -1
            self.lc_w[:] = np.inf
            self.lc_a[:] = -1
            self.lc_b[:] = -1
            self.lc_port[:] = -1
            self.no_outgoing[:] = False
            rows = np.nonzero(alive[self.flat_sender])[0]
            if not len(rows):
                return None
            return self._rows_batch(
                rows,
                _BV_ANNOUNCE,
                self.cluster[self.flat_sender[rows]],
                np.zeros(len(rows)),
                np.zeros(len(rows), dtype=np.int64),
            )
        if t == 1:
            if len(inbox):
                mask = inbox.kinds == _BV_ANNOUNCE
                slots = self.offsets[inbox.receivers[mask]] + inbox.ports[mask]
                self._ncl[slots] = inbox.values[mask]
            valid = np.nonzero(
                (self._ncl >= 0) & (self._ncl != self.cluster[self.flat_sender])
            )[0]
            pos = self.kernels.group_argmin_lex3(
                self.flat_sender[valid],
                self.flat_w[valid],
                self.flat_a[valid],
                self.flat_b[valid],
                n,
            )
            has = np.nonzero(pos >= 0)[0]
            rows = valid[pos[has]]
            self.lc_w[has] = self.flat_w[rows]
            self.lc_a[has] = self.flat_a[rows]
            self.lc_b[has] = self.flat_b[rows]
            self.lc_port[has] = self.flat_port[rows]
            self.best_w[:] = self.lc_w
            self.best_a[:] = self.lc_a
            self.best_b[:] = self.lc_b
            return self._gather_if_changed()
        if 2 <= t <= n + 1:
            self._fold_gather(inbox)
            if t < n + 1:
                return self._gather_if_changed()
            # t == n + 1: flood converged; choose the cluster minima.
            self.no_outgoing = alive & (self.best_w == np.inf)
            chooser = (
                alive
                & (self.best_w < np.inf)
                & (self.lc_w == self.best_w)
                & (self.lc_a == self.best_a)
                & (self.lc_b == self.best_b)
            )
            ch = np.nonzero(chooser)[0]
            if not len(ch):
                return None
            self.tree_flat[self.offsets[ch] + self.lc_port[ch]] = True
            self.chosen.extend(
                zip(self.best_a[ch].tolist(), self.best_b[ch].tolist())
            )
            return MessageBatch(
                senders=ch,
                ports=self.lc_port[ch],
                kinds=np.full(len(ch), _BV_MERGEREQ, dtype=np.int64),
                values=np.zeros(len(ch), dtype=np.int64),
                extras={
                    "w": np.zeros(len(ch)),
                    "e2": np.zeros(len(ch), dtype=np.int64),
                },
            )
        if t == n + 2:
            if len(inbox):
                mask = inbox.kinds == _BV_MERGEREQ
                self.tree_flat[
                    self.offsets[inbox.receivers[mask]] + inbox.ports[mask]
                ] = True
            self.merge_value = self.cluster.copy()
            self.sent_merge = self.cluster.copy()
            rows = self._tree_rows(alive)
            if not len(rows):
                return None
            s = self.flat_sender[rows]
            return self._rows_batch(
                rows,
                _BV_MERGE,
                self.merge_value[s],
                np.zeros(len(rows)),
                np.zeros(len(rows), dtype=np.int64),
            )
        # n + 3 <= t <= 2n + 2
        self._fold_merge(inbox)
        if t < 2 * n + 2:
            return self._merge_if_changed()
        self.cluster[alive] = self.merge_value[alive]
        self.halted |= self.no_outgoing & alive
        return None


def boruvka_mst_engine(
    topology: Topology,
    weights: dict[tuple[int, int], float],
    rng: RandomSource,
    adversary=None,
    node_api: str | None = None,
) -> MSTResult:
    """Run Borůvka/GHS on the synchronous engine, message by message.

    ``adversary`` is an optional
    :class:`~repro.adversary.AdversarySpec` applied at the engine level;
    under faults the run stays deterministic (and scalar/batch
    bit-identical) but may leave the forest unfinished — exactly the
    degradation fault sweeps measure.  The engine backend picks the
    program: the array-native :class:`_BoruvkaBatch` under ``"fast"``,
    the scalar :class:`_BoruvkaNode` twins under ``"reference"``;
    ``node_api="batch"``/``"scalar"`` pins one of them.
    """
    n = topology.n
    if n < 2:
        raise ValueError(f"need n >= 2 nodes, got {n}")
    for u, v in topology.edges():
        if (u, v) not in weights:
            raise ValueError(f"missing weight for edge ({u}, {v})")
    m = topology.edge_count()

    metrics = MetricsRecorder()
    armed = (
        adversary.arm(adversary.derive_rng(rng), n)
        if adversary is not None and not adversary.is_null
        else None
    )
    flat = _flat_edge_arrays(topology)
    _, offsets, flat_sender, _, flat_nbr = flat
    flat_a = np.minimum(flat_sender, flat_nbr)
    flat_b = np.maximum(flat_sender, flat_nbr)
    flat_w = _flat_weights(weights, flat_a, flat_b)

    window = _window_length(n)
    max_rounds = _phase_budget(n) * window
    if wants_batch_dispatch(node_api):
        program = _BoruvkaBatch(topology, flat, flat_a, flat_b, flat_w)
    else:
        # The protocol itself draws no randomness: nodes share the driver
        # rng handle (never consumed), keeping scalar/batch streams equal.
        program = [
            _BoruvkaNode(
                v,
                int(flat[0][v]),
                rng,
                n,
                flat_nbr[offsets[v] : offsets[v + 1]].tolist(),
                flat_w[offsets[v] : offsets[v + 1]].tolist(),
            )
            for v in range(n)
        ]
    engine = SynchronousEngine(
        topology, program, metrics, label="boruvka", adversary=armed
    )
    engine.run(max_rounds=max_rounds)

    if isinstance(program, BatchProtocol):
        chosen = program.chosen
        clusters = len(set(program.cluster.tolist()))
    else:
        chosen = [edge for node in program for edge in node.chosen]
        clusters = len({node.cluster for node in program})
    edges = sorted(set(chosen))
    total = sum(weights[e] for e in edges)
    meta = {
        "phases": math.ceil(metrics.rounds / window),
        "m": m,
        "clusters_remaining": clusters,
        "crashed": sorted(engine.crashed_nodes),
    }
    meta.update(engine.accounting_meta())
    return MSTResult(
        n=n,
        edges=edges,
        total_weight=total,
        metrics=metrics,
        meta=meta,
    )
