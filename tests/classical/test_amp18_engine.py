"""Tests for the engine-driven [AMP18] agreement protocol."""

import pytest

from repro.adversary import AdversarySpec
from repro.classical.agreement.amp18_engine import (
    classical_agreement_engine,
    default_epsilon_engine,
    default_inform_width_engine,
    default_probes_engine,
    default_samples_engine,
)
from repro.network.topology import CompleteTopology
from repro.runtime import default_registry
from repro.util.rng import RandomSource


class TestDefaults:
    def test_epsilon_clamped(self):
        assert 0.1 <= default_epsilon_engine(4) <= 0.45
        assert 0.1 <= default_epsilon_engine(10**6) <= 0.45

    @pytest.mark.parametrize("n", [4, 16, 64, 256, 1024])
    def test_fanouts_fit_the_degree_bound(self, n):
        epsilon = default_epsilon_engine(n)
        width = default_inform_width_engine(n)
        assert 1 <= width <= n - 1
        assert 1 <= default_samples_engine(n, epsilon) <= n - 1
        assert 1 <= default_probes_engine(n, width) <= n - 1


class TestProtocol:
    def test_validity_on_benign_inputs(self):
        # Deterministic seeds; agreement must settle on a real input value.
        for seed in range(5):
            inputs = [1] * 8 + [0] * 24
            result = classical_agreement_engine(inputs, RandomSource(seed))
            if result.success:
                assert result.agreed_value in (0, 1)
            for v, decision in result.decisions.items():
                if decision is not None:
                    assert decision in (0, 1)

    def test_unanimous_inputs_never_decide_the_other_value(self):
        for seed in range(4):
            result = classical_agreement_engine(
                [0] * 24, RandomSource(seed)
            )
            assert all(
                d in (None, 0) for d in result.decisions.values()
            )
            result = classical_agreement_engine([1] * 24, RandomSource(seed))
            assert all(d in (None, 1) for d in result.decisions.values())

    def test_charges_real_engine_rounds_and_messages(self):
        result = classical_agreement_engine([1] * 8 + [0] * 16, RandomSource(1))
        assert result.rounds == 2 * result.meta["iterations"] + 3
        assert result.messages > 0
        assert result.meta["candidates"] >= 0

    def test_input_validation(self):
        with pytest.raises(ValueError, match="0/1"):
            classical_agreement_engine([0, 1, 2], RandomSource(0))
        with pytest.raises(ValueError, match="n >= 3"):
            classical_agreement_engine([0, 1], RandomSource(0))
        with pytest.raises(ValueError, match="node_api"):
            classical_agreement_engine(
                [0, 1, 1, 0], RandomSource(0), node_api="vector"
            )

    def test_fault_accounting_under_drops(self):
        result = classical_agreement_engine(
            [1] * 8 + [0] * 16,
            RandomSource(2),
            adversary=AdversarySpec(drop_rate=0.2),
        )
        assert result.meta["fault_messages_dropped"] > 0
        assert "undelivered_dropped_adversary" in result.meta

    def test_crashes_reduce_participants(self):
        result = classical_agreement_engine(
            [1] * 8 + [0] * 16,
            RandomSource(3),
            adversary=AdversarySpec(crash_count=4, crash_by=2),
        )
        assert result.meta["fault_nodes_crashed"] == 4


class TestRegistryIntegration:
    def test_registered_with_capability_tags(self):
        spec = default_registry().get("agreement/amp18-engine")
        assert set(spec.supports) == {"batch", "faults", "inputs", "adaptive"}

    def test_runs_through_the_registry(self):
        spec = default_registry().get("agreement/amp18-engine")
        outcome = spec.run(CompleteTopology(24), RandomSource(0))
        assert outcome.rounds > 0
        assert "candidates" in outcome.extra
