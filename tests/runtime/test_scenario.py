"""Tests for the scenario layer and the named catalogue."""

import pytest

from repro.network.topology import diameter, is_connected
from repro.runtime import (
    SCENARIOS,
    EXPERIMENT_SWEEPS,
    Scenario,
    TopologySpec,
    default_registry,
    experiment_pair,
    get_scenario,
    topology_family,
)
from repro.runtime.scenario import TOPOLOGY_FAMILIES
from repro.util.rng import RandomSource


class TestTopologySpec:
    def test_deterministic_families_need_no_rng(self):
        assert TopologySpec("complete").build(16).n == 16
        assert TopologySpec("star").build(9).n == 9
        assert TopologySpec("cycle").build(8).n == 8

    def test_hypercube_rounds_up_to_power_of_two(self):
        assert TopologySpec("hypercube").build(64).n == 64
        assert TopologySpec("hypercube").build(100).n == 128

    def test_torus_requires_square(self):
        assert TopologySpec("torus").build(49).n == 49
        with pytest.raises(ValueError, match="square"):
            TopologySpec("torus").build(50)

    def test_lollipop_and_barbell_sizes(self):
        assert TopologySpec("lollipop").build(24).n == 24
        assert TopologySpec("barbell").build(20).n == 20

    def test_random_family_consumes_trial_rng(self):
        spec = TopologySpec("erdos-renyi", (("p", 0.3),))
        assert spec.consumes_trial_rng
        topology = spec.build(20, RandomSource(0))
        assert topology.n == 20
        assert is_connected(topology)

    def test_random_family_without_rng_raises(self):
        with pytest.raises(ValueError, match="needs an rng"):
            TopologySpec("erdos-renyi").build(16)

    def test_fixed_seed_shares_graph_across_trials(self):
        spec = TopologySpec("erdos-renyi", (("p", 0.4),), fixed_seed=1000)
        assert not spec.consumes_trial_rng
        a = spec.build(24)
        b = spec.build(24)
        assert sorted(a.edges()) == sorted(b.edges())

    def test_diameter2_family_really_has_diameter_two(self):
        topology = TopologySpec("diameter2-gnp").build(32, RandomSource(1))
        assert diameter(topology) == 2

    def test_unknown_family_raises(self):
        with pytest.raises(KeyError, match="unknown topology family"):
            topology_family("moebius-strip")


class TestScenario:
    def test_rejects_empty_grid(self):
        with pytest.raises(ValueError, match="empty size grid"):
            Scenario(
                name="x", protocol="le-complete/quantum",
                topology=TopologySpec("complete"), sizes=(),
            )

    def test_rejects_negative_seed(self):
        scenario = get_scenario("ring-le/lcr")
        with pytest.raises(ValueError, match="ring-le/lcr.*seed >= 0"):
            scenario.with_overrides(seed=-1)
        assert scenario.with_overrides(seed=0).seed == 0

    def test_with_overrides_merges_params(self):
        scenario = get_scenario("agreement/quantum")
        tweaked = scenario.with_overrides(
            sizes=[16, 32], trials=9, seed=77, params={"fraction": 0.5}
        )
        assert tweaked.sizes == (16, 32)
        assert tweaked.trials == 9
        assert tweaked.seed == 77
        assert tweaked.param_dict["fraction"] == 0.5
        # the original is untouched (frozen)
        assert scenario.param_dict["fraction"] == 0.3

    def test_run_trial_is_seed_deterministic(self):
        scenario = get_scenario("complete-le/quantum")
        a = scenario.run_trial(32, RandomSource(5))
        b = scenario.run_trial(32, RandomSource(5))
        assert a == b

    def test_normalize_by_missing_key_raises(self):
        scenario = Scenario(
            name="x", protocol="search-star/quantum",
            topology=TopologySpec("star"), sizes=(16,),
            normalize_by="candidates",
        )
        with pytest.raises(KeyError, match="candidates"):
            scenario.run_trial(16, RandomSource(0))


class TestCatalogue:
    def test_every_scenario_resolves(self):
        registry = default_registry()
        for name, scenario in SCENARIOS.items():
            assert scenario.name == name
            assert scenario.protocol in registry, name
            assert scenario.topology.family in TOPOLOGY_FAMILIES, name
            assert scenario.description, name

    def test_experiment_sweeps_point_at_real_scenarios(self):
        for experiment_id, (quantum_name, classical_name) in EXPERIMENT_SWEEPS.items():
            quantum, classical = experiment_pair(experiment_id)
            assert quantum.name == quantum_name
            assert classical.name == classical_name
            assert default_registry().get(quantum.protocol).side == "quantum"
            assert default_registry().get(classical.protocol).side == "classical"

    def test_unmapped_experiment_mentions_bench(self):
        with pytest.raises(KeyError, match="bench"):
            experiment_pair("E2")

    def test_get_scenario_unknown(self):
        with pytest.raises(KeyError, match="unknown scenario"):
            get_scenario("le-donut/quantum")
