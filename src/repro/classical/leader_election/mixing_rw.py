"""Classical leader election via random walks — [KPP+15b] style, Õ(τ·√n).

The classical comparator for QuantumRWLE: each candidate releases
Θ(√(n·log n)) *referee* walks carrying its rank, then Θ(√(n·log n)) *query*
walks that ask their endpoints for the highest rank they are holding.  Both
endpoint families are near-stationary samples, so a lower-ranked candidate's
query walks collide with a higher-ranked candidate's referee endpoints with
high probability (the birthday paradox again).  Every walk costs Θ(τ)
messages, giving Õ(τ·√n) total — the envelope QuantumRWLE's
Õ(τ^{5/3}·n^{1/3}) beats for small τ.

Each phase's walks run as one column
(:meth:`~repro.network.random_walk.RandomWalk.endpoints`, one array step per
hop), and endpoints hold dense rank levels
(:meth:`~repro.core.candidates.CandidateDraw.rank_levels`) rather than ranks,
so comparisons stay exact where ranks outgrow int64.
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.candidates import draw_candidates
from repro.core.results import LeaderElectionResult
from repro.network.batch import STATUS_ELECTED, STATUS_NON_ELECTED
from repro.network.metrics import MetricsRecorder
from repro.network.random_walk import RandomWalk, estimate_mixing_time
from repro.network.topology import Topology
from repro.util.fault import FaultInjector
from repro.util.rng import RandomSource

__all__ = ["classical_le_mixing", "default_walks_mixing"]


def default_walks_mixing(n: int) -> int:
    """Walk-count Θ(√(n·ln n)) for w.h.p. birthday collisions."""
    return max(1, math.ceil(2.0 * math.sqrt(n * math.log(max(n, 2)))))


def classical_le_mixing(
    topology: Topology,
    rng: RandomSource,
    tau: int | None = None,
    walks: int | None = None,
    faults: FaultInjector | None = None,
) -> LeaderElectionResult:
    """Run the classical Õ(τ√n) random-walk LE baseline."""
    n = topology.n
    if tau is None:
        tau = estimate_mixing_time(topology)
    if walks is None:
        walks = default_walks_mixing(n)

    metrics = MetricsRecorder()
    status = np.full(n, STATUS_NON_ELECTED, dtype=np.int8)
    walk = RandomWalk(topology)

    draw = draw_candidates(n, rng, faults=faults)
    metrics.advance_rounds("rw-le.candidate-selection", 1)
    if not draw.candidates:
        return LeaderElectionResult(
            n=n, status_codes=status, metrics=metrics,
            meta={"candidates": 0, "tau": tau, "walks": walks},
        )

    # Referee walks deposit ranks at near-stationary endpoints; a node keeps
    # the highest rank level it receives (0: none).  Referee and query walks
    # come from one child stream, referee walks first.
    levels = np.repeat(draw.rank_levels(), walks)
    starts = np.repeat(draw.candidates, walks)
    walk_rng = rng.spawn()
    held = np.zeros(n, dtype=np.int64)
    np.maximum.at(held, walk.endpoints(starts, tau, walk_rng), levels)
    metrics.charge(
        "rw-le.referee-walks",
        messages=len(draw.candidates) * walks * tau,
        rounds=tau,
    )

    # Query walks: each endpoint reports the highest rank it holds; the
    # answer travels back along the walk (another τ messages).
    saw_higher = held[walk.endpoints(starts, tau, walk_rng)] > levels
    elected = ~saw_higher.reshape(draw.count, walks).any(axis=1)
    status[np.asarray(draw.candidates)[elected]] = STATUS_ELECTED
    metrics.charge(
        "rw-le.query-walks",
        messages=len(draw.candidates) * walks * 2 * tau,
        rounds=2 * tau,
    )

    return LeaderElectionResult(
        n=n,
        status_codes=status,
        metrics=metrics,
        meta={
            "candidates": draw.count,
            "tau": tau,
            "walks": walks,
            "highest_ranked": draw.highest_ranked(),
        },
    )
