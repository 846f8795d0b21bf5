"""Tests for the exact routed Grover search (fidelity cross-validation).

These tests tie the whole stack together: the *unitary* execution on the
Appendix-A routing model must reproduce the closed-form law that the
scalable amplitude-level simulator samples from.  Any divergence between the
two layers fails here.
"""

import math

import pytest

from repro.network.metrics import MetricsRecorder
from repro.quantum.amplitude import grover_success_probability
from repro.quantum.exact_grover import _RoutedGrover, exact_star_grover
from repro.util.rng import RandomSource


def _assert_query_marginal_follows_law(monkeypatch, leaf_bits, iterations):
    """Check the query register's exact distribution before measurement.

    A spy on ``measure_query`` records the query register's marginal, then
    measures as usual.  The state is deterministic until then, so one run
    gives the whole distribution: the marked leaves must hold
    sin²((2j+1)θ) between them, shared equally.
    """
    marginals = []
    measure = _RoutedGrover.measure_query

    def spy(machine, rng):
        network = machine.network
        marginals.append(network.state.marginal([network.local(0, "query")]))
        return measure(machine, rng)

    monkeypatch.setattr(_RoutedGrover, "measure_query", spy)
    exact_star_grover(leaf_bits, iterations, RandomSource(0))
    (marginal,) = marginals
    marked = [port for port, bit in enumerate(leaf_bits) if bit]
    theta = math.asin(math.sqrt(len(marked) / len(leaf_bits)))
    law = math.sin((2 * iterations + 1) * theta) ** 2
    assert abs(sum(marginal[port] for port in marked) - law) < 1e-9
    for port in marked:
        assert abs(marginal[port] - law / len(marked)) < 1e-9
    return law


class TestExactDynamics:
    def test_one_iteration_quarter_marked_is_certain(self):
        """ε = 1/4, j = 1: rotation lands exactly on the marked axis."""
        rng = RandomSource(0)
        for _ in range(25):
            run = exact_star_grover([1, 0, 0, 0], 1, rng.spawn())
            assert run.measured_marked
            assert run.theory_probability == pytest.approx(1.0)

    def test_zero_iterations_uniform_measurement(self):
        rng = RandomSource(1)
        hits = sum(
            exact_star_grover([1, 0, 0, 0], 0, rng.spawn()).measured_marked
            for _ in range(600)
        )
        assert abs(hits / 600 - 0.25) < 0.06

    def test_overrotation_matches_law(self, monkeypatch):
        """j = 2 at ε = 1/4: sin²(5θ) = 1/4 — the exact unitary overrotates
        exactly as the closed form says."""
        law = _assert_query_marginal_follows_law(monkeypatch, [1, 0, 0, 0], 2)
        expected = grover_success_probability(2, 0.25)
        assert expected == pytest.approx(0.25)
        assert law == pytest.approx(expected)

    def test_half_marked_one_iteration(self, monkeypatch):
        """ε = 1/2, j = 1: sin²(3·π/4) = 1/2."""
        law = _assert_query_marginal_follows_law(monkeypatch, [1, 1, 0, 0], 1)
        assert law == pytest.approx(0.5)

    def test_all_marked_always_succeeds(self):
        rng = RandomSource(4)
        assert all(
            exact_star_grover([1, 1, 1], 0, rng.spawn()).measured_marked
            for _ in range(20)
        )

    def test_none_marked_never_succeeds(self):
        rng = RandomSource(5)
        assert not any(
            exact_star_grover([0, 0, 0, 0], j, rng.spawn()).measured_marked
            for j in range(3)
            for _ in range(10)
        )

    def test_theory_probability_matches_amplitude_module(self):
        rng = RandomSource(6)
        for bits, j in [([1, 0, 0], 1), ([1, 1, 0, 0], 2), ([1, 0, 0, 0], 3)]:
            run = exact_star_grover(bits, j, rng.spawn())
            expected = grover_success_probability(j, sum(bits) / len(bits))
            assert run.theory_probability == pytest.approx(expected)


class TestRoutedCosts:
    def test_two_messages_per_oracle_call(self):
        metrics = MetricsRecorder()
        exact_star_grover([1, 0, 0], 3, RandomSource(0), metrics=metrics)
        assert metrics.messages == 6  # 2 per S_f
        assert metrics.rounds == 6

    def test_zero_iterations_zero_messages(self):
        run = exact_star_grover([1, 0], 0, RandomSource(1))
        assert run.messages == 0

    def test_network_state_is_catalyst(self):
        """The port registers return to vacuum after every S_f — the 'comes
        back to its initial state' requirement in the proof of Theorem 4.1.
        (exact_star_grover raises if violated; surviving 4 iterations without
        an exception is the assertion.)"""
        run = exact_star_grover([1, 1, 0, 0], 4, RandomSource(2))
        assert run.iterations == 4


class TestValidation:
    def test_rejects_too_many_leaves(self):
        # 5 leaves is past the dense state's cap: the leaf-count check
        # must reject it before any state is allocated.
        for leaves in (5, 7):
            with pytest.raises(ValueError, match="supports 1..4 leaves"):
                exact_star_grover([0] * leaves, 1, RandomSource(0))

    def test_rejects_bad_bits(self):
        with pytest.raises(ValueError):
            exact_star_grover([0, 2], 1, RandomSource(0))

    def test_rejects_negative_iterations(self):
        with pytest.raises(ValueError):
            exact_star_grover([1, 0], -1, RandomSource(0))

    def test_measured_leaf_in_range(self):
        run = exact_star_grover([0, 1, 0], 1, RandomSource(3))
        assert 1 <= run.measured_leaf <= 3
