"""QuantumLE — Algorithm 1: quantum leader election in complete networks.

Two phases (Section 5.1):

* **classical** — every node volunteers with probability 12·ln(n)/n, draws a
  rank from {1, …, n⁴}, and sends it to k arbitrary neighbours (its first k
  ports — the paper allows any deterministic choice);
* **quantum** — every candidate v runs GroverSearch(k/n, α) over X = V for a
  node that *received* a strictly higher rank (the Checking of Algorithm 1:
  two rounds, two messages).  A candidate that finds none becomes the leader.

Theorem 5.2: with probability ≥ 1 − 1/n the highest-ranked candidate is the
unique leader, in Õ(√(n/k)) rounds with Õ(k + √(n/k)) messages; k = Θ(n^{1/3})
optimizes messages to Õ(n^{1/3}) (Corollary 5.3), beating the classical
Θ̃(√n) bound.
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.candidates import draw_candidates
from repro.core.grover import grover_stage
from repro.core.procedures import uniform_charge
from repro.core.results import LeaderElectionResult
from repro.network.batch import STATUS_ELECTED, STATUS_NON_ELECTED
from repro.network.metrics import MetricsRecorder
from repro.util.fault import FaultInjector
from repro.util.rng import RandomSource

__all__ = ["default_k_complete", "quantum_le_complete"]

#: Checking_v (Algorithm 1): rank out, reply back — 2 messages, 2 rounds.
CHECKING_MESSAGES = 2
CHECKING_ROUNDS = 2


def default_k_complete(n: int) -> int:
    """The message-optimal trade-off point k = Θ(n^{1/3}) of Corollary 5.3."""
    return max(1, min(n - 1, round(n ** (1.0 / 3.0))))


def quantum_le_complete(
    n: int,
    rng: RandomSource,
    k: int | None = None,
    alpha: float | None = None,
    faults: FaultInjector | None = None,
) -> LeaderElectionResult:
    """Run QuantumLE on the complete network K_n.

    ``k`` is the round/message trade-off knob (defaults to the optimal
    n^{1/3}); ``alpha`` the per-search failure budget (defaults to the
    paper's 1/n²; benchmarks may relax it — the asymptotic shape is
    unchanged, only the log(1/α) boosting factor).
    """
    if n < 2:
        raise ValueError(f"need n >= 2 nodes, got {n}")
    if k is None:
        k = default_k_complete(n)
    if not 1 <= k <= n - 1:
        raise ValueError(f"k must be in [1, {n - 1}], got {k}")
    if alpha is None:
        alpha = 1.0 / n**2

    metrics = MetricsRecorder()
    status = np.full(n, STATUS_NON_ELECTED, dtype=np.int8)

    # -- classical phase: candidates and ranks (one local round) ---------------
    draw = draw_candidates(n, rng, faults=faults)
    metrics.advance_rounds("quantum-le.candidate-selection", 1)

    if not draw.candidates:
        # The 1/n²-probability sampling failure: nobody volunteers, nobody is
        # elected.  The paper accepts this within its error budget.
        return LeaderElectionResult(
            n=n, status_codes=status, metrics=metrics,
            meta={"candidates": 0, "k": k},
        )

    # -- classical phase: referees ----------------------------------------------
    # Candidate v sends its rank through its first k ports, i.e. to nodes
    # v+1, …, v+k (mod n).  ``held`` is the highest rank level each node
    # received (0: none); levels compare as the ranks do.
    levels = draw.rank_levels()
    referees = (np.asarray(draw.candidates)[:, None] + np.arange(1, k + 1)) % n
    held = np.zeros(n, dtype=np.int64)
    np.maximum.at(held, referees.ravel(), np.repeat(levels, k))
    metrics.charge(
        "quantum-le.referees", messages=len(draw.candidates) * k, rounds=1
    )

    # -- quantum phase: per-candidate Grover searches (parallel, disjoint edges)
    # Candidate v's marked nodes are those holding a higher rank than its
    # own: received levels above v's, counted in one sorted column.
    epsilon = k / n
    received = np.sort(held[held > 0])
    higher = (received.size - received.searchsorted(levels, side="right")).tolist()
    found = grover_stage(
        metrics,
        "quantum-le.grover",
        ((count / n, count, epsilon) for count in higher),
        alpha,
        uniform_charge(CHECKING_MESSAGES, CHECKING_ROUNDS, "quantum-le.grover.checking"),
        rng,
        faults=faults,
    )

    # -- decision -----------------------------------------------------------------
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
            "epsilon": epsilon,
            "alpha": alpha,
            "highest_ranked": draw.highest_ranked(),
            "unique_ranks": draw.has_unique_ranks,
        },
    )


def theoretical_message_bound(n: int, k: int | None = None) -> float:
    """The Õ(k + √(n/k)) envelope (without log factors), for harness tables."""
    if k is None:
        k = default_k_complete(n)
    return k + math.sqrt(n / k)
