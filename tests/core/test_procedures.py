"""Tests for repro.core.procedures."""

import pytest

from repro.core.procedures import CountOracle, SetOracle, uniform_charge
from repro.network.metrics import MetricsRecorder
from repro.util.rng import RandomSource


@pytest.fixture
def rng():
    return RandomSource(8)


class TestUniformCharge:
    def test_charges_per_call(self):
        metrics = MetricsRecorder()
        charge = uniform_charge(2, 3, "test.checking")
        charge(metrics, 5)
        assert metrics.messages == 10
        assert metrics.rounds == 15
        assert metrics.ledger.messages_by_label() == {"test.checking": 10}

    @pytest.mark.parametrize("a, b", [(0, 0), (0, 4), (3, 5), (17, 1)])
    def test_additive_in_calls(self, a, b):
        """One charge of a + b calls bills what a then b calls bill: the
        stage loops charge a whole stage's calls at once."""
        charge = uniform_charge(2, 3, "test.checking")
        once, twice = MetricsRecorder(), MetricsRecorder()
        charge(once, a + b)
        charge(twice, a)
        charge(twice, b)
        assert once.snapshot() == twice.snapshot()
        assert once.ledger.messages_by_label() == twice.ledger.messages_by_label()
        assert once.ledger.total_rounds == twice.ledger.total_rounds

    def test_rejects_negative_costs(self):
        with pytest.raises(ValueError):
            uniform_charge(-1, 0, "bad")


class TestSetOracle:
    def _oracle(self):
        return SetOracle(
            domain=list(range(10)),
            marked={2, 5, 7},
            charge_checking=uniform_charge(2, 2, "oracle"),
        )

    def test_counts(self):
        oracle = self._oracle()
        assert oracle.domain_size == 10
        assert oracle.marked_count() == 3
        assert oracle.marked_fraction() == pytest.approx(0.3)

    def test_evaluate_consistent_with_marked(self):
        oracle = self._oracle()
        for x in range(10):
            assert oracle.evaluate(x) == (x in {2, 5, 7})

    def test_sample_marked_in_marked_set(self, rng):
        oracle = self._oracle()
        assert all(oracle.sample_marked(rng) in {2, 5, 7} for _ in range(30))

    def test_sample_unmarked_outside_marked_set(self, rng):
        oracle = self._oracle()
        assert all(
            oracle.sample_unmarked(rng) not in {2, 5, 7} for _ in range(30)
        )

    def test_empty_marked_set_raises_on_sample(self, rng):
        oracle = SetOracle(range(5), set(), uniform_charge(1, 1, "o"))
        with pytest.raises(ValueError):
            oracle.sample_marked(rng)

    def test_all_marked_raises_on_unmarked_sample(self, rng):
        oracle = SetOracle(range(3), {0, 1, 2}, uniform_charge(1, 1, "o"))
        with pytest.raises(ValueError):
            oracle.sample_unmarked(rng)

    def test_rejects_stray_marked_elements(self):
        with pytest.raises(ValueError):
            SetOracle(range(3), {5}, uniform_charge(1, 1, "o"))

    def test_rejects_empty_domain(self):
        with pytest.raises(ValueError):
            SetOracle([], set(), uniform_charge(1, 1, "o"))


class TestCountOracle:
    def test_implicit_domain(self, rng):
        oracle = CountOracle(
            domain_size=10**9,
            marked=10**6,
            charge_checking=uniform_charge(2, 2, "big"),
            sample_marked_fn=lambda r: "witness",
        )
        assert oracle.marked_fraction() == pytest.approx(1e-3)
        assert oracle.sample_marked(rng) == "witness"

    def test_zero_marked_sampling_raises(self, rng):
        oracle = CountOracle(5, 0, uniform_charge(1, 1, "o"), lambda r: 1)
        with pytest.raises(ValueError):
            oracle.sample_marked(rng)

    def test_evaluate_optional(self, rng):
        oracle = CountOracle(5, 1, uniform_charge(1, 1, "o"), lambda r: 0)
        with pytest.raises(NotImplementedError):
            oracle.evaluate(0)

    def test_evaluate_when_provided(self):
        oracle = CountOracle(
            5, 2, uniform_charge(1, 1, "o"), lambda r: 0,
            evaluate_fn=lambda x: x < 2,
        )
        assert oracle.evaluate(1) and not oracle.evaluate(3)

    def test_rejects_inconsistent_marked_count(self):
        with pytest.raises(ValueError):
            CountOracle(5, 6, uniform_charge(1, 1, "o"), lambda r: 0)
