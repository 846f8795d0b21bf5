"""Tests for the distributed Grover search (Theorem 4.1)."""

import pytest

from repro.core.grover import GroverSearchResult, distributed_grover_search
from repro.core.procedures import SetOracle, uniform_charge
from repro.network.metrics import MetricsRecorder
from repro.quantum.amplitude import attempts_for_confidence, worst_case_iterations
from repro.quantum.grover_dynamics import sample_attempt
from repro.util.fault import FaultInjector
from repro.util.rng import RandomSource


def _oracle(domain_size: int, marked: set, messages=2, rounds=2):
    return SetOracle(
        domain=list(range(domain_size)),
        marked=marked,
        charge_checking=uniform_charge(messages, rounds, "grover.checking"),
    )


@pytest.fixture
def rng():
    return RandomSource(77)


class TestCorrectness:
    def test_finds_marked_element_under_promise(self, rng):
        oracle = _oracle(64, {5, 17})
        metrics = MetricsRecorder()
        result = distributed_grover_search(
            oracle, epsilon=2 / 64, alpha=0.01, metrics=metrics, rng=rng
        )
        assert result.succeeded
        assert result.found in {5, 17}

    def test_no_marked_elements_returns_none(self, rng):
        oracle = _oracle(32, set())
        metrics = MetricsRecorder()
        result = distributed_grover_search(
            oracle, epsilon=1 / 32, alpha=0.01, metrics=metrics, rng=rng
        )
        assert not result.succeeded
        assert result.found is None

    def test_never_false_positive_over_many_seeds(self):
        """ε_f = 0 must always yield 'none found' — verification guarantees it."""
        for seed in range(50):
            oracle = _oracle(16, set())
            result = distributed_grover_search(
                oracle, 1 / 16, 0.25, MetricsRecorder(), RandomSource(seed)
            )
            assert result.found is None

    def test_success_rate_meets_alpha_under_promise(self):
        alpha = 0.05
        failures = 0
        trials = 200
        for seed in range(trials):
            oracle = _oracle(100, {3})
            result = distributed_grover_search(
                oracle, 1 / 100, alpha, MetricsRecorder(), RandomSource(seed)
            )
            failures += not result.succeeded
        assert failures / trials <= alpha + 0.03

    def test_works_when_marked_fraction_exceeds_promise(self, rng):
        """ε_f ≫ ε still succeeds (BBHT handles unknown ε_f)."""
        oracle = _oracle(40, set(range(20)))
        result = distributed_grover_search(
            oracle, 1 / 40, 0.01, MetricsRecorder(), rng
        )
        assert result.succeeded


class TestCostAccounting:
    def test_schedule_bounds_and_round_determinism(self, rng):
        """Rounds follow the full synchronized schedule; messages stay within
        the Theorem 4.1 envelope (attained only without early stopping)."""
        oracle = _oracle(64, {1})
        metrics = MetricsRecorder()
        epsilon, alpha = 1 / 64, 0.01
        result = distributed_grover_search(oracle, epsilon, alpha, metrics, rng)
        cap = worst_case_iterations(epsilon)
        attempts = attempts_for_confidence(alpha)
        schedule_calls = attempts * (2 * cap + 1)
        assert result.checking_calls <= schedule_calls
        assert metrics.messages <= 2 * schedule_calls
        assert metrics.rounds == 2 * schedule_calls  # idle rounds still elapse

    def test_cost_scales_like_inverse_sqrt_epsilon(self):
        """Expected messages ∝ 1/√ε (measured on the never-success path,
        where every attempt is initiated)."""
        def average_cost(eps):
            total = 0
            for seed in range(30):
                metrics = MetricsRecorder()
                distributed_grover_search(
                    _oracle(16, set()), eps, 0.1, metrics, RandomSource(seed)
                )
                total += metrics.messages
            return total / 30

        low = average_cost(1 / 16)
        high = average_cost(1 / 256)
        assert high == pytest.approx(4 * low, rel=0.35)

    def test_rounds_deterministic_given_parameters(self):
        """Definition 4.1: the synchronized round count never varies."""
        rounds = set()
        for seed in range(10):
            metrics = MetricsRecorder()
            distributed_grover_search(
                _oracle(32, {1, 2}), 1 / 32, 0.05, metrics, RandomSource(seed)
            )
            rounds.add(metrics.rounds)
        assert len(rounds) == 1

    def test_early_stop_saves_messages(self):
        """A search over a fully marked domain stops after one attempt; the
        empty domain runs the whole schedule."""
        quick = MetricsRecorder()
        distributed_grover_search(
            _oracle(16, set(range(16))), 0.5, 0.01, quick, RandomSource(0)
        )
        full = MetricsRecorder()
        distributed_grover_search(
            _oracle(16, set()), 0.5, 0.01, full, RandomSource(0)
        )
        assert quick.messages < full.messages
        assert quick.rounds == full.rounds

    def test_checking_cost_multiplier(self):
        """Doubling M_C doubles the message bill (same seed, same draws)."""
        m1 = MetricsRecorder()
        distributed_grover_search(
            _oracle(32, {1}, messages=2), 1 / 32, 0.1, m1, RandomSource(0)
        )
        m2 = MetricsRecorder()
        distributed_grover_search(
            _oracle(32, {1}, messages=4), 1 / 32, 0.1, m2, RandomSource(0)
        )
        assert m2.messages == 2 * m1.messages


class TestValidationAndFaults:
    def test_rejects_bad_epsilon(self, rng):
        with pytest.raises(ValueError):
            distributed_grover_search(
                _oracle(4, set()), 0.0, 0.1, MetricsRecorder(), rng
            )

    def test_rejects_bad_alpha(self, rng):
        with pytest.raises(ValueError):
            distributed_grover_search(
                _oracle(4, set()), 0.5, 1.0, MetricsRecorder(), rng
            )

    def test_forced_false_negative(self, rng):
        faults = FaultInjector()
        faults.force_always("grover.false_negative")
        oracle = _oracle(8, {0, 1, 2, 3, 4, 5, 6, 7})  # everything marked
        result = distributed_grover_search(
            oracle, 0.5, 0.01, MetricsRecorder(), rng, faults=faults
        )
        assert not result.succeeded

    def test_fault_consumed_then_recovers(self, rng):
        faults = FaultInjector()
        faults.force("grover.false_negative", times=1)
        oracle = _oracle(8, set(range(8)))
        result = distributed_grover_search(
            oracle, 0.5, 0.01, MetricsRecorder(), rng, faults=faults
        )
        assert result.succeeded  # later attempts land


def _every_attempt_search(oracle, epsilon, alpha, metrics, rng, faults=None):
    """GroverSearch as a loop over the whole schedule: every attempt draws
    its iteration count, one scalar at a time, even after a success.  The
    calls of the attempts run are charged together, in one Checking charge."""
    cap = worst_case_iterations(epsilon)
    attempts = attempts_for_confidence(alpha)
    probe = MetricsRecorder()
    oracle.charge_checking(probe, 1)
    charged = iterations_run = 0
    found = None
    for _ in range(attempts):
        iterations = rng.uniform_int(0, cap - 1)
        if found is None:
            charged += 2 * iterations + 1
            iterations_run += iterations
            outcome = sample_attempt(
                oracle.marked_fraction(), iterations, rng, faults=faults
            )
            if outcome.measured_marked and oracle.marked_count() > 0:
                found = oracle.sample_marked(rng)
    oracle.charge_checking(metrics, charged)
    skipped = attempts * (2 * cap + 1) - charged
    if skipped > 0 and probe.rounds > 0:
        metrics.advance_rounds("grover.synchronized-idle", skipped * probe.rounds)
    return GroverSearchResult(found, attempts, iterations_run, charged)


class TestIdleTailParity:
    """Leaving the attempt loop at the first success and drawing the idle
    tail as one column reproduces the full loop bit for bit."""

    def _assert_parity(self, domain, marked, epsilon, forced=0, seed=3):
        runs = []
        for search in (_every_attempt_search, distributed_grover_search):
            faults = FaultInjector()
            if forced:
                faults.force("grover.false_negative", times=forced)
            metrics, rng = MetricsRecorder(), RandomSource(seed)
            result = search(
                _oracle(domain, marked), epsilon, 0.01, metrics, rng, faults=faults
            )
            runs.append(
                (
                    result,
                    metrics.ledger.entries,
                    rng.generator.bit_generator.state,
                    dict(faults.triggered),
                )
            )
        assert runs[0] == runs[1]
        return runs[1][0]

    def test_no_marked_elements(self):
        result = self._assert_parity(32, set(), 1 / 32)
        assert not result.succeeded

    def test_success_on_first_attempt(self):
        # A fully marked domain succeeds at once; the other 16 attempts idle.
        result = self._assert_parity(16, set(range(16)), 1 / 16)
        assert result.succeeded
        assert result.checking_calls == 2 * result.iterations_charged + 1

    def test_forced_false_negatives(self):
        result = self._assert_parity(16, set(range(16)), 1 / 16, forced=3)
        assert result.succeeded
        assert result.checking_calls == 2 * result.iterations_charged + 4

    @pytest.mark.parametrize("seed", range(8))
    def test_partial_marking(self, seed):
        self._assert_parity(64, {3, 9, 27}, 1 / 64, seed=seed)
