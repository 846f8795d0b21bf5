"""QuantumGeneralLE — Section 5.4: explicit leader election in general graphs.

GHS-style cluster merging where the per-phase search for *outgoing* edges —
the Ω(m)-message bottleneck of every classical algorithm [KPP+15a] — is
replaced by per-node Grover searches:

1. every node v runs GroverSearch(1/deg(v), α_inner) over its ports for a
   neighbour outside v's cluster (Checking: send the cluster id, get a
   comparison bit back — 2 messages, 2 rounds); found edges convergecast up
   the cluster tree (Lemma 5.8: O(√(mn)·log n) messages per phase by
   Cauchy–Schwarz);
2. clusters compute a maximal matching of the fragment graph (Cole–Vishkin
   style; O(n·log* n) messages/rounds — Lemma 5.9);
3. matched clusters merge; unmatched clusters attach to their (necessarily
   matched) proposal target — at most half the clusters survive a phase.

After O(log n) phases one cluster remains; its center becomes the leader and
broadcasts its id (explicit leader election).  Theorem 5.10: Õ(√(mn))
messages, Õ(n) rounds — beating the classical Θ(m) bound.
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.grover import grover_stage
from repro.core.leader_election.clusters import ClusterState, log_star, maximal_matching
from repro.core.procedures import uniform_charge
from repro.core.results import LeaderElectionResult
from repro.network.batch import STATUS_ELECTED, STATUS_NON_ELECTED
from repro.network.metrics import MetricsRecorder
from repro.network.topology import Topology
from repro.util.fault import FaultInjector
from repro.util.rng import RandomSource

__all__ = ["quantum_general_le"]

#: Checking for the outgoing-edge search: cluster id out, comparison bit back.
CHECKING_MESSAGES = 2
CHECKING_ROUNDS = 2


def _port_columns(topology: Topology) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(offsets, senders, receivers) of every port, in port order."""
    table = topology.port_table()
    nodes = np.arange(topology.n, dtype=np.int64)
    degrees = table.degrees_of(nodes)
    offsets = np.zeros(topology.n + 1, dtype=np.int64)
    np.cumsum(degrees, out=offsets[1:])
    senders = np.repeat(nodes, degrees)
    ports = np.arange(senders.size, dtype=np.int64) - offsets[senders]
    return offsets, senders, table.receivers(senders, ports)


def _find_outgoing_edges(
    ports: tuple[np.ndarray, np.ndarray, np.ndarray],
    state: ClusterState,
    alpha: float,
    metrics: MetricsRecorder,
    rng: RandomSource,
    faults: FaultInjector | None,
) -> dict[int, tuple[int, tuple[int, int]]]:
    """Step (1): per-node Grover searches + per-cluster convergecast.

    ``ports`` are the topology's :func:`_port_columns`.  Node v searches
    its ports for one leading out of its cluster: its marked fraction is
    its outgoing ports over its degree, counted for every node at once
    from the cluster column.  Returns cluster id -> (target cluster id,
    connecting edge).
    """
    offsets, senders, receivers = ports
    cluster = np.asarray(state.cluster_of)
    leaving = cluster[senders] != cluster[receivers]
    outgoing = np.bincount(senders[leaving], minlength=state.n)
    degrees = np.diff(offsets)
    nodes = np.flatnonzero(degrees).tolist()
    counts = outgoing[nodes].tolist()

    found = grover_stage(
        metrics,
        "general-le.outgoing-search",
        (
            (count / degree, count, 1.0 / degree)
            for count, degree in zip(counts, degrees[nodes].tolist())
        ),
        alpha,
        uniform_charge(CHECKING_MESSAGES, CHECKING_ROUNDS, "general-le.grover.checking"),
        rng,
        faults=faults,
    )
    found_per_cluster: dict[int, tuple[int, int]] = {}
    for v, index in zip(nodes, found):
        if index is None:
            continue
        cid = state.cluster_id(v)
        if cid not in found_per_cluster:
            # The index-th of v's outgoing ports, in port order.
            start = offsets[v]
            port = np.flatnonzero(leaving[start : offsets[v + 1]])[index]
            found_per_cluster[cid] = (v, int(receivers[start + port]))

    # Convergecast any found edge to the cluster center (arbitrary pick).
    convergecast_messages = state.total_tree_edges()
    convergecast_rounds = max(1, state.max_height())
    metrics.charge(
        "general-le.convergecast",
        messages=convergecast_messages,
        rounds=convergecast_rounds,
    )

    proposals: dict[int, tuple[int, tuple[int, int]]] = {}
    for cid, (v, w) in found_per_cluster.items():
        proposals[cid] = (state.cluster_id(w), (v, w))
    return proposals


def quantum_general_le(
    topology: Topology,
    rng: RandomSource,
    alpha: float | None = None,
    faults: FaultInjector | None = None,
) -> LeaderElectionResult:
    """Run QuantumGeneralLE; returns an *explicit* leader-election result."""
    n = topology.n
    if n < 2:
        raise ValueError(f"need n >= 2 nodes, got {n}")
    if alpha is None:
        alpha = 1.0 / n**3  # Lemma 5.8's per-search budget

    metrics = MetricsRecorder()
    state = ClusterState(n)
    phase_limit = 4 * max(1, math.ceil(math.log2(n))) + 8
    phases = 0

    ports = _port_columns(topology)
    while state.count > 1 and phases < phase_limit:
        phases += 1
        proposals = _find_outgoing_edges(ports, state, alpha, metrics, rng, faults)

        if not proposals:
            # Every cluster's search failed (probability ≤ n·α per phase);
            # the phase is lost but the schedule continues.
            continue

        # Step (2): maximal matching on the fragment graph, Cole–Vishkin cost.
        cv = log_star(n)
        metrics.charge(
            "general-le.matching",
            messages=n * cv,
            rounds=n * cv,
        )
        pairs, attachments = maximal_matching(proposals)

        # Step (3): merge matched pairs, then attach unmatched clusters.
        id_map = {cid: cid for cid in state.clusters}
        for cid_a, cid_b, edge in pairs:
            survivor = state.merge(id_map[cid_a], id_map[cid_b], edge)
            id_map[cid_a] = id_map[cid_b] = survivor
        for cid, target in attachments.items():
            source = id_map[cid]
            destination = id_map[target]
            if source == destination:
                continue
            _, edge = proposals[cid]
            survivor = state.merge(source, destination, edge)
            for key, value in list(id_map.items()):
                if value in (source, destination):
                    id_map[key] = survivor
        metrics.charge(
            "general-le.merge-broadcast",
            messages=n,
            rounds=max(1, state.max_height()),
        )

    status = np.full(n, STATUS_NON_ELECTED, dtype=np.int8)
    known_leader: dict[int, int] | None = None
    if state.count == 1:
        final = next(iter(state.clusters.values()))
        leader = final.center
        status[leader] = STATUS_ELECTED
        # Explicit variant: the leader broadcasts its id over the tree.
        metrics.charge(
            "general-le.leader-broadcast",
            messages=n - 1,
            rounds=max(1, final.height()),
        )
        known_leader = {v: leader for v in range(n)}

    return LeaderElectionResult(
        n=n,
        status_codes=status,
        metrics=metrics,
        known_leader=known_leader,
        meta={
            "phases": phases,
            "alpha": alpha,
            "clusters_remaining": state.count,
            "m": topology.edge_count(),
        },
    )
