"""Classical leader election in general graphs — GHS-style, Θ(m·log n).

The classical comparator for QuantumGeneralLE: identical cluster-merging
structure (find outgoing edges → maximal matching → merge), but the outgoing-
edge search probes *every* port classically — 2 messages per incident edge
per phase, i.e. Θ(m) per phase and Θ(m·log n) total.  [KPP+15a] proves Ω(m)
is unavoidable classically (for graphs of diameter ≥ 3), which is the bound
the quantum protocol's Õ(√(mn)) breaches.
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.leader_election.clusters import ClusterState, log_star, maximal_matching
from repro.core.results import LeaderElectionResult
from repro.network.batch import STATUS_ELECTED, STATUS_NON_ELECTED
from repro.network.metrics import MetricsRecorder
from repro.network.topology import Topology
from repro.util.rng import RandomSource

__all__ = ["classical_le_general"]


def classical_le_general(
    topology: Topology,
    rng: RandomSource,
) -> LeaderElectionResult:
    """Run the classical Θ(m·log n) tree-merging LE (explicit variant)."""
    n = topology.n
    if n < 2:
        raise ValueError(f"need n >= 2 nodes, got {n}")
    m = topology.edge_count()

    metrics = MetricsRecorder()
    state = ClusterState(n)
    phase_limit = 4 * max(1, math.ceil(math.log2(n))) + 8
    phases = 0

    while state.count > 1 and phases < phase_limit:
        phases += 1

        # Classical outgoing-edge search: every node probes all its ports
        # (cluster-id exchange: probe + reply over every edge, both ways).
        metrics.charge(
            "ghs-le.probe-all-ports",
            messages=4 * m,
            rounds=2,
        )
        proposals: dict[int, tuple[int, tuple[int, int]]] = {}
        for v in range(n):
            for w in topology.neighbors(v):
                if not state.same_cluster(v, w):
                    cid = state.cluster_id(v)
                    if cid not in proposals:
                        proposals[cid] = (state.cluster_id(w), (v, w))
                    break

        metrics.charge(
            "ghs-le.convergecast",
            messages=state.total_tree_edges(),
            rounds=max(1, state.max_height()),
        )

        if not proposals:
            break

        cv = log_star(n)
        metrics.charge("ghs-le.matching", messages=n * cv, rounds=n * cv)
        pairs, attachments = maximal_matching(proposals)

        id_map = {cid: cid for cid in state.clusters}
        for cid_a, cid_b, edge in pairs:
            survivor = state.merge(id_map[cid_a], id_map[cid_b], edge)
            id_map[cid_a] = id_map[cid_b] = survivor
        for cid, target in attachments.items():
            source, destination = id_map[cid], id_map[target]
            if source == destination:
                continue
            _, edge = proposals[cid]
            survivor = state.merge(source, destination, edge)
            for key, value in list(id_map.items()):
                if value in (source, destination):
                    id_map[key] = survivor
        metrics.charge(
            "ghs-le.merge-broadcast",
            messages=n,
            rounds=max(1, state.max_height()),
        )

    status = np.full(n, STATUS_NON_ELECTED, dtype=np.int8)
    known_leader = None
    if state.count == 1:
        final = next(iter(state.clusters.values()))
        status[final.center] = STATUS_ELECTED
        metrics.charge(
            "ghs-le.leader-broadcast",
            messages=n - 1,
            rounds=max(1, final.height()),
        )
        known_leader = {v: final.center for v in range(n)}

    return LeaderElectionResult(
        n=n,
        status_codes=status,
        metrics=metrics,
        known_leader=known_leader,
        meta={"phases": phases, "m": m, "clusters_remaining": state.count},
    )
