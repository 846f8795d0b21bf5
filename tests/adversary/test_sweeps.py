"""Fault-injected sweeps: determinism, caching, backend invariance.

The scenario-level acceptance bar: same adversary seed ⇒ bit-identical
aggregates (for any job count and either engine backend), and the result
store keys on the adversary spec so faulty and fault-free runs never
collide.
"""

import os

import pytest

from repro.adversary import AdversarySpec, adversarial_inputs, benign_inputs
from repro.runtime import (
    ResultStore,
    Scenario,
    TopologySpec,
    clear_topology_memo,
    get_scenario,
    run_scenario,
)
from repro.util.rng import RandomSource


@pytest.fixture(autouse=True)
def _fresh_memo():
    clear_topology_memo()
    yield
    clear_topology_memo()


def _lossy_scenario(**overrides):
    base = dict(
        name="adv-test/kpp",
        protocol="le-complete/classical",
        topology=TopologySpec("complete"),
        sizes=(16, 32),
        trials=3,
        seed=7,
        adversary=AdversarySpec(drop_rate=0.1),
    )
    base.update(overrides)
    return Scenario(**base)


class TestDeterminism:
    def test_jobs_do_not_change_fault_aggregates(self):
        scenario = _lossy_scenario()
        serial = run_scenario(scenario, jobs=1)
        parallel = run_scenario(scenario, jobs=4)
        assert serial.trial_sets == parallel.trial_sets

    def test_same_seed_same_results(self):
        scenario = _lossy_scenario()
        assert (
            run_scenario(scenario, jobs=1).trial_sets
            == run_scenario(scenario, jobs=1).trial_sets
        )

    def test_adversary_seed_pins_fault_pattern(self):
        pinned = _lossy_scenario(
            adversary=AdversarySpec(drop_rate=0.5, seed=3), sizes=(16,), trials=4
        )
        run = run_scenario(pinned, jobs=1)
        # Every trial replays the identical drop pattern: zero variance in
        # the number of adversary drops is only visible through the mean
        # being an integer... instead check trial-level equality directly.
        outcomes = [
            pinned.run_trial(16, rng)
            for rng in [RandomSource(pinned.seed).spawn() for _ in range(3)]
        ]
        dropped = {o.extra["fault_messages_dropped"] for o in outcomes}
        assert len(dropped) == 1
        assert run.trial_sets[0].extra["fault_messages_dropped"] in dropped

    def test_backend_invariance_under_drops(self):
        # fast runs the LCR port, reference its scalar twin on the oracle.
        scenario = _lossy_scenario()
        runs = {}
        for backend in ("fast", "reference"):
            os.environ["REPRO_ENGINE"] = backend
            try:
                runs[backend] = run_scenario(scenario, jobs=1).trial_sets
            finally:
                os.environ.pop("REPRO_ENGINE", None)
        assert runs["fast"] == runs["reference"]

    def test_catalogued_fault_families_run(self):
        for name in (
            "complete-le-lossy/classical",
            "ring-le-lossy/lcr",
            "ring-le-crash/hs",
            "agreement-worstcase/classical",
        ):
            scenario = get_scenario(name)
            run = run_scenario(scenario, jobs=1, sizes=[scenario.sizes[0]], trials=1)
            assert run.trial_sets[0].trials == 1


class TestCacheKeys:
    def test_adversary_changes_the_cache_key(self, tmp_path):
        store = ResultStore(tmp_path)
        benign = _lossy_scenario(adversary=None)
        lossy = _lossy_scenario()
        lossier = _lossy_scenario(adversary=AdversarySpec(drop_rate=0.2))
        pinned = _lossy_scenario(adversary=AdversarySpec(drop_rate=0.1, seed=1))
        paths = {
            store.path_for(s, 16, 0) for s in (benign, lossy, lossier, pinned)
        }
        assert len(paths) == 4

    def test_cached_fault_sweep_is_bit_identical(self, tmp_path):
        store = ResultStore(tmp_path)
        scenario = _lossy_scenario()
        cold = run_scenario(scenario, jobs=1, store=store)
        warm = run_scenario(scenario, jobs=1, store=store)
        assert cold.trial_sets == warm.trial_sets
        # The faulty entries must not satisfy the fault-free scenario.
        benign = _lossy_scenario(adversary=None)
        assert store.load(benign, 16, 0) is None

    def test_null_adversary_normalizes_to_fault_free_key(self, tmp_path):
        store = ResultStore(tmp_path)
        explicit_null = _lossy_scenario(adversary=AdversarySpec())
        benign = _lossy_scenario(adversary=None)
        assert store.path_for(explicit_null, 16, 0) == store.path_for(benign, 16, 0)


class TestCapabilities:
    def test_unsupported_protocol_rejected(self):
        scenario = _lossy_scenario(protocol="le-complete/quantum")
        with pytest.raises(ValueError, match="does not support adversary"):
            scenario.run_trial(16, RandomSource(0))

    def test_input_adversary_rejected_on_engine_protocol(self):
        scenario = _lossy_scenario(adversary=AdversarySpec(input_schedule="tie"))
        with pytest.raises(ValueError, match="inputs"):
            scenario.run_trial(16, RandomSource(0))

    def test_message_faults_rejected_on_agreement(self):
        with pytest.raises(ValueError, match="input adversary"):
            adversarial_inputs(
                8, 0.3, AdversarySpec(drop_rate=0.1), RandomSource(0)
            )


class TestInputSchedules:
    def test_tie_is_worst_case_split(self):
        inputs = adversarial_inputs(
            9, 0.3, AdversarySpec(input_schedule="tie"), RandomSource(0)
        )
        assert sum(inputs) == 5  # ceil(9/2), fraction ignored

    def test_spread_keeps_the_count(self):
        inputs = adversarial_inputs(
            10, 0.3, AdversarySpec(input_schedule="spread"), RandomSource(0)
        )
        assert sum(inputs) == 3
        assert inputs != [1, 1, 1] + [0] * 7  # not the benign prefix

    def test_shuffle_is_deterministic_per_stream(self):
        spec = AdversarySpec(input_schedule="shuffle", seed=5)
        a = adversarial_inputs(12, 0.5, spec, RandomSource(0))
        b = adversarial_inputs(12, 0.5, spec, RandomSource(99))
        assert a == b  # pinned adversary seed ignores the trial stream
        assert sum(a) == 6

    def test_flip_fraction_flips_exactly(self):
        spec = AdversarySpec(flip_fraction=0.25, seed=1)
        inputs = adversarial_inputs(8, 0.0, spec, RandomSource(0))
        assert sum(inputs) == 2  # all-zeros base, two flips

    def test_null_spec_matches_benign(self):
        assert adversarial_inputs(10, 0.3, None, RandomSource(0)) == [1] * 3 + [0] * 7

    @pytest.mark.parametrize("fraction", [1.5, -0.5])
    def test_fraction_outside_unit_interval_is_refused(self, fraction):
        # int(1.5 * 16) = 24 "ones" out of 16 nodes is no input vector.
        with pytest.raises(ValueError, match="fraction must be in"):
            benign_inputs(16, fraction)
        for spec in (None, AdversarySpec(input_schedule="spread")):
            with pytest.raises(ValueError, match="fraction must be in"):
                adversarial_inputs(16, fraction, spec, RandomSource(0))

    def test_unit_interval_ends_are_accepted(self):
        assert benign_inputs(4, 0.0) == [0] * 4
        assert benign_inputs(4, 1.0) == [1] * 4
