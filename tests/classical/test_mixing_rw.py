"""Tests for the classical random-walk LE baseline."""

from repro.classical.leader_election import mixing_rw
from repro.classical.leader_election.mixing_rw import (
    classical_le_mixing,
    default_walks_mixing,
)
from repro.core.candidates import draw_candidates
from repro.network import graphs
from repro.network.node import Status
from repro.network.random_walk import RandomWalk
from repro.util.fault import FaultInjector
from repro.util.rng import RandomSource


class TestCorrectness:
    def test_hypercube_many_seeds(self):
        successes = sum(
            classical_le_mixing(
                graphs.hypercube(6), RandomSource(seed), tau=15
            ).success
            for seed in range(20)
        )
        assert successes >= 19

    def test_expander(self):
        rng = RandomSource(1)
        topology = graphs.random_regular(80, 6, rng.spawn())
        result = classical_le_mixing(topology, rng.spawn(), tau=20)
        assert result.success

    def test_leader_is_top_candidate(self):
        result = classical_le_mixing(graphs.hypercube(6), RandomSource(2), tau=15)
        if result.success:
            assert result.leader == result.meta["highest_ranked"]


class TestCost:
    def test_walk_count_default(self):
        assert default_walks_mixing(100) >= 2 * 10  # ≥ 2√n

    def test_messages_scale_linearly_with_tau(self):
        costs = {}
        for tau in (8, 16):
            result = classical_le_mixing(
                graphs.hypercube(6), RandomSource(3), tau=tau, walks=10
            )
            costs[tau] = result.messages
        assert 1.7 < costs[16] / costs[8] < 2.3

    def test_ledger_has_both_walk_phases(self):
        result = classical_le_mixing(graphs.hypercube(5), RandomSource(4), tau=8)
        labels = result.metrics.ledger.messages_by_label()
        assert "rw-le.referee-walks" in labels
        assert "rw-le.query-walks" in labels


class TestFaults:
    def test_zero_candidates(self):
        faults = FaultInjector()
        faults.force("candidates.force_empty")
        result = classical_le_mixing(
            graphs.hypercube(4), RandomSource(0), tau=5, faults=faults
        )
        assert result.elected == []


class TestRankLevels:
    def test_ranks_past_int64_with_a_tie(self, monkeypatch):
        """Ranks ≥ 2⁶⁴ (all alike in their low 64 bits) and a forced tie at
        the top: each candidate's status matches Python-int comparisons."""
        draws, walks = [], []

        def big_ranks(n, rng, faults=None):
            draw = draw_candidates(n, rng, faults=faults)
            draw.ranks = {v: r << 64 for v, r in draw.ranks.items()}
            draws.append(draw)
            return draw

        endpoints = RandomWalk.endpoints

        def spy(self, starts, length, rng):
            ends = endpoints(self, starts, length, rng)
            walks.append((starts.tolist(), ends.tolist()))
            return ends

        monkeypatch.setattr(mixing_rw, "draw_candidates", big_ranks)
        monkeypatch.setattr(RandomWalk, "endpoints", spy)
        faults = FaultInjector()
        faults.force("candidates.force_tie")
        result = classical_le_mixing(
            graphs.hypercube(6), RandomSource(6), tau=8, walks=24, faults=faults
        )

        (draw,) = draws
        ranks = draw.ranks
        assert min(ranks.values()) >= 1 << 64
        top = sorted(ranks.values())
        assert top[-1] == top[-2]
        (referee_starts, referee_ends), (query_starts, query_ends) = walks
        received: dict[int, int] = {}
        for v, end in zip(referee_starts, referee_ends):
            received[end] = max(received.get(end, 0), ranks[v])
        saw_higher = {v: False for v in draw.candidates}
        for v, end in zip(query_starts, query_ends):
            saw_higher[v] |= received.get(end, 0) > ranks[v]
        for v in draw.candidates:
            expected = Status.NON_ELECTED if saw_higher[v] else Status.ELECTED
            assert result.statuses[v] == expected
        assert len(result.elected) == 2  # the tied pair
