"""Candidate sampling and rank generation — the paper's Fact C.2 machinery.

Every protocol starts the same way: each node independently becomes a
*candidate* with probability p = 12·ln(n)/n and draws a uniform *rank* from
{1, …, n⁴}.  Fact C.2: with probability ≥ 1 − 1/n², (i) the number of
candidates is in [1, 24·ln n] and (ii) all ranks are distinct.

The fault injector can force the rare failure modes (zero candidates, rank
ties) so tests can exercise protocols beyond the w.h.p. happy path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.util.fault import FaultInjector
from repro.util.rng import RandomSource

__all__ = ["CandidateDraw", "candidate_probability", "draw_candidates", "rank_space"]


def candidate_probability(n: int) -> float:
    """p = min(1, 12·ln(n)/n)."""
    if n < 2:
        raise ValueError(f"need n >= 2 nodes, got {n}")
    return min(1.0, 12.0 * math.log(n) / n)


def rank_space(n: int) -> int:
    """Size of the rank universe {1, …, n⁴}."""
    return n**4


@dataclass
class CandidateDraw:
    """The result of the classical candidate-selection phase."""

    n: int
    candidates: list[int]
    ranks: dict[int, int] = field(repr=False)

    @property
    def count(self) -> int:
        return len(self.candidates)

    @property
    def has_unique_ranks(self) -> bool:
        return len(set(self.ranks.values())) == len(self.ranks)

    def rank_levels(self) -> np.ndarray:
        """Dense rank level of each candidate, in ``candidates`` order.

        Level 1 is the lowest distinct rank and tied ranks share a level, so
        comparing levels is comparing ranks; 0 is free to mean "no rank".
        Ranks outgrow int64 once n⁴ ≥ 2⁶³ (n ≥ 55,109), so they are ordered
        as Python ints and only the levels become an int64 column.
        """
        ranks = np.array([self.ranks[v] for v in self.candidates], dtype=object)
        return np.unique(ranks, return_inverse=True)[1].astype(np.int64) + 1

    def highest_ranked(self) -> int:
        """Candidate with the highest rank (ties broken by node id — the
        simulator's bookkeeping only; protocols never rely on it)."""
        if not self.candidates:
            raise ValueError("no candidates were drawn")
        return max(self.candidates, key=lambda v: (self.ranks[v], -v))

    def within_fact_c2(self) -> bool:
        """Whether this draw satisfies both clauses of Fact C.2."""
        return (
            1 <= self.count <= max(1, math.ceil(24 * math.log(self.n)))
            and self.has_unique_ranks
        )


def draw_candidates(
    n: int,
    rng: RandomSource,
    probability: float | None = None,
    faults: FaultInjector | None = None,
) -> CandidateDraw:
    """Sample the candidate set and ranks for an n-node network.

    Fault sites:

    * ``candidates.force_empty`` — no node volunteers (protocols must not
      elect anyone; the paper accepts this 1/n²-probability failure);
    * ``candidates.force_tie`` — the two top candidates share a rank.
    """
    if probability is None:
        probability = candidate_probability(n)
    if not 0.0 <= probability <= 1.0:
        raise ValueError(f"probability must be in [0, 1], got {probability}")

    draws = rng.generator.random(n) < probability
    candidates = [int(v) for v in np.nonzero(draws)[0]]

    if faults is not None and faults.should_fail("candidates.force_empty"):
        candidates = []

    space = rank_space(n)
    ranks = {v: rng.uniform_int(1, space) for v in candidates}

    if (
        faults is not None
        and len(candidates) >= 2
        and faults.should_fail("candidates.force_tie")
    ):
        ordered = sorted(candidates, key=lambda v: ranks[v])
        ranks[ordered[-2]] = ranks[ordered[-1]]

    return CandidateDraw(n=n, candidates=candidates, ranks=ranks)
