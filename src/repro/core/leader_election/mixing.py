"""QuantumRWLE — Algorithm 2: leader election in graphs with mixing time τ.

The complete-graph protocol's neighbourhood exploration is replaced by lazy
random walks (Section 5.2):

* **referee phase** — each candidate releases k walk tokens carrying its
  rank, each walking Θ(τ) steps (cost Õ(τk) messages: a token's rank fits in
  one CONGEST message per hop);
* **quantum phase** — each candidate Grover-searches the space X of Θ(τ)-step
  walks from itself for one that *ends at* a node holding a higher received
  rank.  Because one side of Grover search is centralized, the candidate must
  pre-draw the walk's random choices and ship them along the walk: Θ(τ·log n)
  bits forwarded over Θ(τ) hops — the τ → τ² Checking blow-up the paper
  describes — so M_C = Θ(τ²/ log n · …) messages per coherent call, counted
  through the CONGEST payload-splitting rule.

Theorem 5.4: Õ(τk + τ²√(n/k)) messages; k = Θ(τ^{2/3}·n^{1/3}) gives
Corollary 5.5's Õ(τ^{5/3}·n^{1/3}), beating the classical Õ(τ√n).

The simulation walks all C·k referee tokens as one column
(:meth:`~repro.network.random_walk.RandomWalk.endpoints`, one array step per
hop) and records each node's highest received rank as a dense rank level
(:meth:`~repro.core.candidates.CandidateDraw.rank_levels`), so ranks compare
exactly even where they outgrow int64.  The candidates' exact walk
distributions, which fix each Grover search's marked fraction, advance as
one sparse block product per hop
(:meth:`~repro.network.random_walk.RandomWalk.distributions_after`).
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.candidates import draw_candidates
from repro.core.grover import grover_stage
from repro.core.procedures import uniform_charge
from repro.core.results import LeaderElectionResult
from repro.network.message import messages_for_bits
from repro.network.batch import STATUS_ELECTED, STATUS_NON_ELECTED
from repro.network.metrics import MetricsRecorder
from repro.network.random_walk import RandomWalk, estimate_mixing_time, hit_mass
from repro.network.topology import Topology
from repro.util.fault import FaultInjector
from repro.util.rng import RandomSource

__all__ = ["default_k_mixing", "quantum_rwle"]

#: Safety factor on the promise ε = k/n: referee-walk endpoints may collide,
#: so the true stationary mass of higher-rank holders can fall slightly below
#: k/n.  A constant slack (absorbed by Õ) keeps the BBHT guarantee intact.
EPSILON_SLACK = 4.0


def default_k_mixing(n: int, tau: int) -> int:
    """Message-optimal k = Θ(τ^{2/3}·n^{1/3}) from Corollary 5.5."""
    return max(1, min(n - 1, round(tau ** (2.0 / 3.0) * n ** (1.0 / 3.0))))


#: Checking modes for the quantum phase.  ``centralized`` is the paper's
#: proven protocol: the initiator pre-draws the walk's choices and ships
#: Θ(τ·log n) bits along τ hops (M_C = Θ(τ²/log n) CONGEST messages).
#: ``conjectured-decentralized`` realizes the cost structure of the paper's
#: closing conjecture ("achieving a message complexity linear in τ may be
#: possible"): intermediate nodes supply the walk's randomness, so a coherent
#: Checking call forwards only the O(log n)-bit query — M_C = 2τ messages.
#: The conjecture's open part is *proving* that such decentralized coherent
#: walks can be synchronized; the simulation assumes it, and is therefore an
#: EXPERIMENTAL what-if, clearly out of the paper's proven envelope.
CHECKING_MODES = ("centralized", "conjectured-decentralized")


def quantum_rwle(
    topology: Topology,
    rng: RandomSource,
    tau: int | None = None,
    k: int | None = None,
    alpha: float | None = None,
    checking_mode: str = "centralized",
    faults: FaultInjector | None = None,
) -> LeaderElectionResult:
    """Run QuantumRWLE on an arbitrary connected network.

    ``tau`` is the mixing-time bound nodes are assumed to know (estimated
    from the spectral gap when omitted, matching the paper's knowledge
    assumption).  ``checking_mode`` selects the proven centralized Checking
    or the conjectured τ-linear decentralized variant (see
    :data:`CHECKING_MODES`).
    """
    if checking_mode not in CHECKING_MODES:
        raise ValueError(
            f"checking_mode must be one of {CHECKING_MODES}, got {checking_mode!r}"
        )
    n = topology.n
    if tau is None:
        tau = estimate_mixing_time(topology)
    if tau < 1:
        raise ValueError(f"mixing time must be >= 1, got {tau}")
    if k is None:
        k = default_k_mixing(n, tau)
    if not 1 <= k <= n - 1:
        raise ValueError(f"k must be in [1, {n - 1}], got {k}")
    if alpha is None:
        alpha = 1.0 / n**2

    metrics = MetricsRecorder()
    status = np.full(n, STATUS_NON_ELECTED, dtype=np.int8)
    walk = RandomWalk(topology)
    walk_length = tau  # Θ(τ); the lazy walk needs no parity padding

    # -- classical phase: candidates ------------------------------------------------
    draw = draw_candidates(n, rng, faults=faults)
    metrics.advance_rounds("quantum-rwle.candidate-selection", 1)
    if not draw.candidates:
        return LeaderElectionResult(
            n=n, status_codes=status, metrics=metrics,
            meta={"candidates": 0, "k": k, "tau": tau},
        )

    # -- classical phase: referee walks ----------------------------------------------
    # k tokens per candidate, each carrying the rank (one message per hop),
    # all walked together from one child stream: the walk count never shifts
    # the Grover draws that follow.  A node keeps the highest rank level it
    # receives (0: none).
    levels = draw.rank_levels()
    endpoints = walk.endpoints(
        np.repeat(draw.candidates, k), walk_length, rng.spawn()
    )
    held = np.zeros(n, dtype=np.int64)
    np.maximum.at(held, endpoints, np.repeat(levels, k))
    metrics.charge(
        "quantum-rwle.referee-walks",
        messages=len(draw.candidates) * k * walk_length,
        rounds=walk_length,
    )

    # -- quantum phase ------------------------------------------------------------------
    # Checking a walk x: v ships the pre-drawn choices (τ·O(log n) bits)
    # along the walk, and the endpoint's answer bit travels back: the paper's
    # τ → τ² message blow-up, realized through CONGEST payload splitting.
    if checking_mode == "centralized":
        bits_per_step = 1 + max(1, math.ceil(math.log2(max(2, n))))
        payload_messages_per_hop = messages_for_bits(walk_length * bits_per_step, n)
        checking_messages = walk_length * payload_messages_per_hop + walk_length
    else:
        # Conjectured decentralized Checking: the query travels out and the
        # answer travels back, one CONGEST message per hop each way.
        checking_messages = 2 * walk_length
    checking_rounds = 2 * walk_length
    epsilon = k / (EPSILON_SLACK * n)

    # Each candidate's exact marked fraction ε_f: the mass its τ-step walk
    # puts on nodes holding a higher rank level.  Every candidate's
    # distribution advances in one block product per hop; no rng is drawn.
    holder_sets = [np.flatnonzero(held > level) for level in levels.tolist()]
    marked_fractions = [
        hit_mass(column, holders)
        for column, holders in zip(
            walk.distributions_after(draw.candidates, walk_length), holder_sets
        )
    ]

    # The Grover domain is the (huge) space of random-choice strings; the
    # dynamics only need the marked fraction, which is realized exactly on
    # an integer domain of matching resolution.  A hit picks a holder.
    resolution = max(n * k, 1024)
    marked_counts = [
        max(1, round(fraction * resolution)) if fraction > 0.0 else 0
        for fraction in marked_fractions
    ]
    found = grover_stage(
        metrics,
        "quantum-rwle.grover",
        (
            (marked / resolution, holders.size, epsilon)
            for marked, holders in zip(marked_counts, holder_sets)
        ),
        alpha,
        uniform_charge(
            checking_messages, checking_rounds, "quantum-rwle.grover.checking"
        ),
        rng,
        faults=faults,
    )

    for v, index in zip(draw.candidates, found):
        if index is None:
            status[v] = STATUS_ELECTED

    return LeaderElectionResult(
        n=n,
        status_codes=status,
        metrics=metrics,
        meta={
            "candidates": draw.count,
            "k": k,
            "tau": tau,
            "walk_length": walk_length,
            "alpha": alpha,
            "checking_mode": checking_mode,
            "highest_ranked": draw.highest_ranked(),
        },
    )
