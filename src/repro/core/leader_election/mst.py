"""QuantumMST — Section 5.4's stated extension to minimum spanning trees.

"Our presented algorithm generalizes straightforwardly to the minimum
spanning tree (MST) problem with the same complexities."  The generalization
swaps step (1)'s *arbitrary* outgoing-edge search for **minimum** outgoing-
edge search — distributed Dürr–Høyer minimum finding over each node's ports
(:mod:`repro.core.minimum`) — and merges Borůvka-style along the chosen
minimum edges.  With distinct edge weights (ties broken lexicographically,
the classic trick) the merged edge set is exactly the MST.

Message complexity is the same Õ(√(mn)) envelope as QuantumGeneralLE:
Dürr–Høyer costs O(√deg·log) per node per phase, as Grover search did.

Each node sorts its neighbours by edge weight once per run; a phase's
outgoing edges are a filter of that list, so they stay sorted and the
node's search runs on ranks (:func:`~repro.core.minimum.minimum_stage`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.core.leader_election.clusters import ClusterState
from repro.core.minimum import minimum_stage
from repro.core.procedures import uniform_charge
from repro.network.metrics import MetricsRecorder
from repro.network.topology import Topology
from repro.util.fault import FaultInjector
from repro.util.rng import RandomSource

__all__ = ["MSTResult", "quantum_mst"]

#: Checking for the weight-threshold oracle: id+threshold out, bit back.
CHECKING_MESSAGES = 2
CHECKING_ROUNDS = 2


@dataclass
class MSTResult:
    """Outcome of one QuantumMST run."""

    n: int
    edges: list[tuple[int, int]]
    total_weight: float
    metrics: MetricsRecorder
    meta: dict = field(default_factory=dict)

    @property
    def is_spanning(self) -> bool:
        return len(self.edges) == self.n - 1

    @property
    def messages(self) -> int:
        return self.metrics.messages

    @property
    def rounds(self) -> int:
        return self.metrics.rounds


def edge_key(weights: dict, u: int, v: int) -> tuple[float, int, int]:
    """Total order on edges: weight with lexicographic tie-breaking."""
    a, b = (u, v) if u < v else (v, u)
    return (weights[(a, b)], a, b)


def quantum_mst(
    topology: Topology,
    weights: dict[tuple[int, int], float],
    rng: RandomSource,
    alpha: float | None = None,
    faults: FaultInjector | None = None,
) -> MSTResult:
    """Compute the MST via quantum-assisted Borůvka merging.

    ``weights`` maps each edge (u, v) with u < v to its weight; all edges of
    the topology must be present.
    """
    n = topology.n
    if n < 2:
        raise ValueError(f"need n >= 2 nodes, got {n}")
    for u, v in topology.edges():
        if (u, v) not in weights:
            raise ValueError(f"missing weight for edge ({u}, {v})")
    if alpha is None:
        alpha = 1.0 / n**3

    metrics = MetricsRecorder()
    state = ClusterState(n)
    mst_edges: list[tuple[int, int]] = []
    phase_limit = 4 * max(1, math.ceil(math.log2(n))) + 8
    phases = 0

    nodes = [v for v in range(n) if topology.degree(v) > 0]
    # Each node's neighbours, lightest edge first: its search domain.
    by_weight = [
        (v, sorted(topology.neighbors(v), key=lambda w, v=v: edge_key(weights, v, w)))
        for v in nodes
    ]
    checking = uniform_charge(
        CHECKING_MESSAGES, CHECKING_ROUNDS, "mst.durr-hoyer.checking"
    )
    while state.count > 1 and phases < phase_limit:
        phases += 1

        cluster = state.cluster_of
        found = minimum_stage(
            metrics,
            "mst.minimum-search",
            (
                ([w for w in ranked if cluster[w] != cluster[v]], len(ranked))
                for v, ranked in by_weight
            ),
            alpha,
            checking,
            rng,
            faults=faults,
        )

        # Convergecast the per-cluster minimum outgoing edge to each center.
        metrics.charge(
            "mst.convergecast",
            messages=state.total_tree_edges(),
            rounds=max(1, state.max_height()),
        )
        best_edge: dict[int, tuple[int, int]] = {}
        for v, w in zip(nodes, found):
            if w is None:
                continue
            cid = state.cluster_id(v)
            current = best_edge.get(cid)
            if current is None or edge_key(weights, v, w) < edge_key(
                weights, *current
            ):
                best_edge[cid] = (v, w)

        if not best_edge:
            continue  # all searches failed this phase (probability ≤ n·α)

        # Borůvka merge along the chosen minimum edges.
        merged_any = False
        for cid in sorted(best_edge):
            v, w = best_edge[cid]
            ca, cb = state.cluster_id(v), state.cluster_id(w)
            if ca == cb:
                continue  # already merged through another cluster's edge
            state.merge(ca, cb, (v, w))
            a, b = (v, w) if v < w else (w, v)
            mst_edges.append((a, b))
            merged_any = True
        metrics.charge(
            "mst.merge-broadcast",
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
        meta={
            "phases": phases,
            "alpha": alpha,
            "clusters_remaining": state.count,
            "m": topology.edge_count(),
        },
    )
