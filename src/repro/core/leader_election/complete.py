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
from repro.core.grover import distributed_grover_search
from repro.core.parallel import run_in_parallel
from repro.core.procedures import CountOracle, uniform_charge
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
    # v+1, …, v+k (mod n).  ``received`` maps node -> highest rank received.
    received: dict[int, int] = {}
    for v in draw.candidates:
        rank = draw.ranks[v]
        for offset in range(1, k + 1):
            w = (v + offset) % n
            if received.get(w, 0) < rank:
                received[w] = rank
    metrics.charge(
        "quantum-le.referees", messages=len(draw.candidates) * k, rounds=1
    )

    # -- quantum phase: per-candidate Grover searches (parallel, disjoint edges)
    epsilon = k / n

    def make_task(v: int):
        rank_v = draw.ranks[v]
        marked_nodes = [w for w, r in received.items() if r > rank_v]

        oracle = CountOracle(
            domain_size=n,
            marked=len(marked_nodes),
            charge_checking=uniform_charge(
                CHECKING_MESSAGES, CHECKING_ROUNDS, "quantum-le.grover.checking"
            ),
            sample_marked_fn=lambda r: marked_nodes[
                r.uniform_int(0, len(marked_nodes) - 1)
            ],
            evaluate_fn=lambda w: received.get(w, 0) > rank_v,
        )

        def task(scratch: MetricsRecorder):
            return distributed_grover_search(
                oracle, epsilon, alpha, scratch, rng, faults=faults
            )

        return task

    searches = run_in_parallel(
        metrics,
        "quantum-le.grover",
        [make_task(v) for v in draw.candidates],
    )

    # -- decision -----------------------------------------------------------------
    for v, search in zip(draw.candidates, searches):
        if not search.succeeded:
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
