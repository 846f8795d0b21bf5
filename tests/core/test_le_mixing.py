"""Tests for QuantumRWLE (Algorithm 2) on graphs with mixing time τ."""

import math

import pytest

from repro.core.candidates import draw_candidates
from repro.core.leader_election import mixing
from repro.core.leader_election.mixing import default_k_mixing, quantum_rwle
from repro.network import graphs
from repro.network.message import messages_for_bits
from repro.network.metrics import MetricsRecorder
from repro.network.node import Status
from repro.network.random_walk import RandomWalk
from repro.util.fault import FaultInjector
from repro.util.rng import RandomSource


class TestCorrectness:
    def test_hypercube_many_seeds(self):
        successes = 0
        for seed in range(25):
            rng = RandomSource(seed)
            result = quantum_rwle(graphs.hypercube(6), rng, tau=15)
            successes += result.success
        assert successes >= 23

    def test_expander_leader_is_top_candidate(self):
        rng = RandomSource(11)
        topology = graphs.random_regular(96, 6, rng.spawn())
        result = quantum_rwle(topology, rng.spawn(), tau=25)
        assert result.success
        assert result.leader == result.meta["highest_ranked"]

    def test_tau_estimated_when_omitted(self):
        rng = RandomSource(0)
        result = quantum_rwle(graphs.complete(32), rng)
        assert result.meta["tau"] >= 1
        assert result.success or len(result.elected) != 1

    def test_works_on_slow_mixing_graph(self):
        """Barbell: correctness holds, τ is just large."""
        rng = RandomSource(21)
        result = quantum_rwle(graphs.barbell(12), rng, tau=120)
        assert len(result.elected) == 1


class TestParameters:
    def test_default_k_formula(self):
        assert default_k_mixing(1000, 8) == pytest.approx(
            round(8 ** (2 / 3) * 10), abs=1
        )

    def test_rejects_bad_tau(self):
        with pytest.raises(ValueError):
            quantum_rwle(graphs.cycle(8), RandomSource(0), tau=0)

    def test_rejects_bad_k(self):
        with pytest.raises(ValueError):
            quantum_rwle(graphs.cycle(8), RandomSource(0), tau=4, k=0)


class TestCostAccounting:
    def test_referee_walk_messages(self):
        rng = RandomSource(5)
        result = quantum_rwle(graphs.hypercube(5), rng, tau=10, k=3)
        labels = result.metrics.ledger.messages_by_label()
        expected = result.meta["candidates"] * 3 * 10
        assert labels["quantum-rwle.referee-walks"] == expected

    def test_checking_cost_grows_quadratically_with_tau(self, monkeypatch):
        """The τ → τ² blow-up: one Checking call at 4τ costs ≈ 16× one call
        at τ (up to CONGEST word-packing granularity).

        The ledger total is the per-call cost times a random number of
        calls, so read the per-call cost off the Checking hook the Grover
        stage is given, and check the total is a whole number of calls."""
        hooks = []
        stage = mixing.grover_stage

        def spy(metrics, label, searches, alpha, charge_checking, *args, **kwargs):
            hooks.append(charge_checking)
            return stage(metrics, label, searches, alpha, charge_checking, *args, **kwargs)

        monkeypatch.setattr(mixing, "grover_stage", spy)
        n = 64
        per_call = {}
        for tau in (16, 64):
            hooks.clear()
            rng = RandomSource(9)
            result = quantum_rwle(graphs.hypercube(6), rng, tau=tau, k=4, alpha=0.1)
            grover = result.metrics.ledger.messages_by_label()[
                "quantum-rwle.grover.checking"
            ]
            (hook,) = hooks
            probe = MetricsRecorder()
            hook(probe, 1)
            per_call[tau] = probe.messages
            assert grover > 0 and grover % per_call[tau] == 0
            bits = tau * (1 + math.ceil(math.log2(n)))
            assert per_call[tau] == tau * messages_for_bits(bits, n) + tau
        ratio = per_call[64] / per_call[16]
        assert 10 < ratio < 22  # ideal 16, quantized by word packing

    def test_rounds_deterministic(self):
        rounds = set()
        for seed in range(4):
            result = quantum_rwle(
                graphs.hypercube(5), RandomSource(seed), tau=8, k=4
            )
            rounds.add(result.rounds)
        assert len(rounds) == 1


class TestFaultPaths:
    def test_zero_candidates(self):
        faults = FaultInjector()
        faults.force("candidates.force_empty")
        result = quantum_rwle(
            graphs.hypercube(4), RandomSource(0), tau=6, faults=faults
        )
        assert result.elected == []

    def test_grover_false_negatives_inflate_leaders(self):
        faults = FaultInjector()
        faults.force_always("grover.false_negative")
        result = quantum_rwle(
            graphs.hypercube(5), RandomSource(1), tau=8, faults=faults
        )
        assert len(result.elected) == result.meta["candidates"]


class TestRankLevels:
    def test_ranks_past_int64_with_a_tie(self, monkeypatch):
        """Ranks ≥ 2⁶⁴ (all alike in their low 64 bits) and a forced tie at
        the top: each candidate's status matches Python-int comparisons."""
        draws, referee = [], []

        def big_ranks(n, rng, faults=None):
            draw = draw_candidates(n, rng, faults=faults)
            draw.ranks = {v: r << 64 for v, r in draw.ranks.items()}
            draws.append(draw)
            return draw

        endpoints = RandomWalk.endpoints

        def spy(self, starts, length, rng):
            ends = endpoints(self, starts, length, rng)
            referee.append((list(starts), ends.tolist()))
            return ends

        def exact_grover(metrics, label, searches, *args, **kwargs):
            return [0 if fraction > 0.0 else None for fraction, _, _ in searches]

        monkeypatch.setattr(mixing, "draw_candidates", big_ranks)
        monkeypatch.setattr(RandomWalk, "endpoints", spy)
        monkeypatch.setattr(mixing, "grover_stage", exact_grover)
        faults = FaultInjector()
        faults.force("candidates.force_tie")
        topology = graphs.hypercube(6)
        result = quantum_rwle(topology, RandomSource(4), tau=8, k=6, faults=faults)

        (draw,) = draws
        ranks = draw.ranks
        assert min(ranks.values()) >= 1 << 64
        top = sorted(ranks.values())
        assert top[-1] == top[-2]
        received: dict[int, int] = {}
        ((starts, ends),) = referee
        for v, end in zip(starts, ends):
            received[end] = max(received.get(end, 0), ranks[v])
        walk = RandomWalk(topology)
        for v in draw.candidates:
            higher = {w for w, r in received.items() if r > ranks[v]}
            reachable = walk.hit_probability(v, 8, higher) > 0.0
            expected = Status.NON_ELECTED if reachable else Status.ELECTED
            assert result.statuses[v] == expected
        assert len(result.elected) == 2  # the tied pair
