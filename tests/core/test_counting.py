"""Tests for distributed quantum counting (Theorem 4.2 / Corollary 4.3)."""

import math
import statistics

import pytest

from repro.core.counting import approx_count, quantum_count, runs_for_confidence
from repro.core.procedures import SetOracle, uniform_charge
from repro.network.metrics import MetricsRecorder
from repro.quantum.phase_estimation import (
    counting_error_bound,
    counting_estimate_from_outcome,
    eigenphase_turns,
    qpe_distribution,
)
from repro.util.rng import RandomSource


def _oracle(domain_size: int, marked_count: int, messages=2, rounds=2):
    return SetOracle(
        domain=list(range(domain_size)),
        marked=set(range(marked_count)),
        charge_checking=uniform_charge(messages, rounds, "count.checking"),
    )


@pytest.fixture
def rng():
    return RandomSource(13)


class TestQuantumCount:
    def test_message_cost_is_two_p_times_mc(self, rng):
        metrics = MetricsRecorder()
        result = quantum_count(_oracle(50, 10), steps=32, metrics=metrics, rng=rng)
        assert result.checking_calls == 64
        assert metrics.messages == 128

    def test_estimate_within_theorem_bound_mostly(self):
        t, N, P = 20, 128, 64
        bound = counting_error_bound(t, N, P)
        hits = 0
        trials = 300
        for seed in range(trials):
            result = quantum_count(
                _oracle(N, t), P, MetricsRecorder(), RandomSource(seed)
            )
            hits += abs(result.estimate - t) < bound
        assert hits / trials > 0.75  # ≥ 8/π² ≈ 0.81 theoretically

    def test_zero_count_estimates_zero(self, rng):
        result = quantum_count(_oracle(64, 0), 16, MetricsRecorder(), rng)
        assert result.estimate == pytest.approx(0.0)

    def test_rejects_bad_steps(self, rng):
        with pytest.raises(ValueError):
            quantum_count(_oracle(4, 1), 0, MetricsRecorder(), rng)


class TestApproxCount:
    def test_estimate_within_c_times_domain(self):
        """Corollary 4.3's |t − t̃| < c·|X| with probability ≥ 1 − α."""
        failures = 0
        trials = 60
        accuracy = 0.1
        for seed in range(trials):
            oracle = _oracle(200, 60)
            result = approx_count(
                oracle, accuracy, 0.05, MetricsRecorder(), RandomSource(seed)
            )
            failures += abs(result.estimate - 60) >= accuracy * 200
        assert failures / trials <= 0.05 + 0.05

    def test_message_cost_scales_inverse_accuracy(self, rng):
        costs = {}
        for accuracy in (0.2, 0.1, 0.05):
            metrics = MetricsRecorder()
            approx_count(_oracle(100, 30), accuracy, 0.2, metrics, rng)
            costs[accuracy] = metrics.messages
        assert costs[0.1] == pytest.approx(2 * costs[0.2], rel=0.15)
        assert costs[0.05] == pytest.approx(4 * costs[0.2], rel=0.15)

    def test_handles_counts_above_half_domain(self):
        """The doubled-domain trick lifts the t ≤ |X|/2 hypothesis."""
        errors = []
        for seed in range(30):
            oracle = _oracle(100, 90)
            result = approx_count(
                oracle, 0.1, 0.1, MetricsRecorder(), RandomSource(seed)
            )
            errors.append(abs(result.estimate - 90))
        assert sorted(errors)[len(errors) // 2] < 0.1 * 100  # median within c·N

    def test_median_boosting_run_count(self):
        assert runs_for_confidence(0.5) < runs_for_confidence(1e-6)
        # Exact binomial tail: the returned (odd) r must satisfy the bound.
        alpha = 1e-4
        runs = runs_for_confidence(alpha)
        assert runs % 2 == 1
        miss = 1 - 8 / math.pi**2
        tail = sum(
            math.comb(runs, j) * miss**j * (1 - miss) ** (runs - j)
            for j in range((runs + 1) // 2, runs + 1)
        )
        assert tail <= alpha
        # And r − 2 must not (minimality).
        if runs > 1:
            smaller = runs - 2
            tail_smaller = sum(
                math.comb(smaller, j) * miss**j * (1 - miss) ** (smaller - j)
                for j in range((smaller + 1) // 2, smaller + 1)
            )
            assert tail_smaller > alpha

    def test_rejects_bad_accuracy(self, rng):
        with pytest.raises(ValueError):
            approx_count(_oracle(4, 1), 0.0, 0.1, MetricsRecorder(), rng)

    def test_quantum_vs_classical_scaling_advantage(self, rng):
        """O(1/c) quantum messages vs the classical Θ(1/c²) sampling bound.

        The quadratic separation dominates the schedule constants once the
        accuracy is demanding enough (here c = 5·10⁻⁴; the crossover with our
        constants sits near c ≈ 10⁻³).
        """
        accuracy = 5e-4
        metrics = MetricsRecorder()
        approx_count(_oracle(500, 100), accuracy, 0.2, metrics, rng)
        quantum_cost = metrics.messages
        classical_cost = 2 * math.ceil(
            math.log(2 / 0.2) / (2 * accuracy**2)
        )  # Hoeffding samples × 2 messages
        assert quantum_cost < classical_cost


def _per_run_approx_count(oracle, accuracy, alpha, metrics, rng):
    """ApproxCount as a loop of Count(P) runs, each sampling its outcome
    with ``Generator.choice``; the runs' Checking calls are charged
    together, in one charge."""
    steps = max(4, math.ceil(4.0 * math.pi / accuracy))
    runs = runs_for_confidence(alpha)
    t, N = oracle.marked_count(), 2 * oracle.domain_size
    oracle.charge_checking(metrics, runs * 2 * steps)
    estimates = []
    for _ in range(runs):
        omega = eigenphase_turns(t, N)
        if 0 < t < N and rng.bernoulli(0.5):
            omega = 1.0 - omega
        y = int(rng.generator.choice(steps, p=qpe_distribution(omega, steps)))
        estimates.append(counting_estimate_from_outcome(y, N, steps))
    return float(statistics.median(estimates)), runs, steps, 2 * steps * runs


class TestColumnParity:
    """One column of runs reproduces the per-run loop bit for bit: same
    estimate, same ledger entries, same generator state afterwards."""

    @pytest.mark.parametrize("alpha", [0.5, 1e-6])
    @pytest.mark.parametrize("marked", [0, 1, 20, 40])
    @pytest.mark.parametrize("seed", [0, 7])
    def test_matches_per_run_loop(self, marked, alpha, seed):
        N, accuracy = 40, 0.1
        expected_metrics, expected_rng = MetricsRecorder(), RandomSource(seed)
        expected = _per_run_approx_count(
            _oracle(N, marked), accuracy, alpha, expected_metrics, expected_rng
        )
        metrics, rng = MetricsRecorder(), RandomSource(seed)
        result = approx_count(_oracle(N, marked), accuracy, alpha, metrics, rng)
        assert (
            result.estimate, result.runs, result.steps_per_run, result.checking_calls
        ) == expected
        assert metrics.ledger.entries == expected_metrics.ledger.entries
        assert rng.generator.bit_generator.state == (
            expected_rng.generator.bit_generator.state
        )
