"""Tests for the two runtime caches: topology memo and on-disk result store.

Both caches are pure accelerations — every test here pairs a cached run
against a cold run and asserts bit-identical aggregates.
"""

import pytest

from repro.runtime import (
    ResultStore,
    Scenario,
    TopologySpec,
    clear_topology_memo,
    run_scenario,
    topology_memo_enabled,
)
from repro.runtime.scenario import _TOPOLOGY_MEMO
from repro.util.rng import RandomSource


@pytest.fixture(autouse=True)
def _fresh_memo():
    clear_topology_memo()
    yield
    clear_topology_memo()


def _star_scenario(**overrides):
    base = dict(
        name="cache-test/star",
        protocol="search-star/classical",
        topology=TopologySpec("star"),
        sizes=(16, 32),
        trials=2,
        seed=5,
    )
    base.update(overrides)
    return Scenario(**base)


class TestTopologyMemo:
    def test_deterministic_family_is_memoized(self):
        spec = TopologySpec("star")
        assert spec.build_cached(16) is spec.build_cached(16)
        assert len(_TOPOLOGY_MEMO) == 1

    def test_fixed_seed_family_is_memoized(self):
        spec = TopologySpec("erdos-renyi", (("p", 0.5),), fixed_seed=77)
        first = spec.build_cached(24)
        assert spec.build_cached(24) is first
        # ... and the memoized graph equals a fresh build bit for bit.
        fresh = spec.build(24)
        assert sorted(fresh.edges()) == sorted(first.edges())

    def test_per_trial_random_family_rejected(self):
        spec = TopologySpec("erdos-renyi", (("p", 0.5),))
        with pytest.raises(ValueError, match="per-trial"):
            spec.build_cached(24)

    def test_distinct_keys_do_not_collide(self):
        spec = TopologySpec("star")
        assert spec.build_cached(16) is not spec.build_cached(32)
        other = TopologySpec("erdos-renyi", (("p", 0.5),), fixed_seed=1)
        assert other.build_cached(16).n == 16
        assert len(_TOPOLOGY_MEMO) == 3

    def test_env_kill_switch(self, monkeypatch):
        monkeypatch.setenv("REPRO_NO_TOPOLOGY_CACHE", "1")
        assert not topology_memo_enabled()
        spec = TopologySpec("star")
        assert spec.build_cached(16) is not spec.build_cached(16)
        assert not _TOPOLOGY_MEMO

    def test_memo_used_once_per_size_in_a_sweep(self, monkeypatch):
        scenario = _star_scenario()
        calls = []
        original = TopologySpec.build

        def counting(self, n, rng=None):
            calls.append(n)
            return original(self, n, rng)

        monkeypatch.setattr(TopologySpec, "build", counting)
        run_scenario(scenario, jobs=1)
        assert sorted(calls) == [16, 32]  # one build per size, not per trial

    def test_memo_does_not_change_aggregates(self, monkeypatch):
        scenario = _star_scenario()
        warm = run_scenario(scenario, jobs=1)
        monkeypatch.setenv("REPRO_NO_TOPOLOGY_CACHE", "1")
        cold = run_scenario(scenario, jobs=1)
        assert warm.trial_sets == cold.trial_sets


class TestResultStore:
    def test_round_trip(self, tmp_path):
        store = ResultStore(tmp_path)
        scenario = _star_scenario()
        run = run_scenario(scenario, jobs=1, store=store)
        for position, trial_set in enumerate(run.trial_sets):
            assert store.load(scenario, trial_set.n, position) == trial_set

    def test_second_run_hits_cache(self, tmp_path, monkeypatch):
        store = ResultStore(tmp_path)
        scenario = _star_scenario()
        cold = run_scenario(scenario, jobs=1, store=store)

        def explode(self, n, rng, registry=None):
            raise AssertionError("cache miss: trial recomputed")

        monkeypatch.setattr(Scenario, "run_trial", explode)
        warm = run_scenario(scenario, jobs=1, store=store)
        assert warm.trial_sets == cold.trial_sets

    def test_extending_grid_computes_only_new_sizes(self, tmp_path, monkeypatch):
        store = ResultStore(tmp_path)
        run_scenario(_star_scenario(sizes=(16,)), jobs=1, store=store)

        computed = []
        original = Scenario.run_trial

        def counting(self, n, rng, registry=None):
            computed.append(n)
            return original(self, n, rng, registry)

        monkeypatch.setattr(Scenario, "run_trial", counting)
        extended = run_scenario(_star_scenario(sizes=(16, 32)), jobs=1, store=store)
        assert set(computed) == {32}
        # The partially-cached run equals a cold full run bit for bit.
        cold = run_scenario(_star_scenario(sizes=(16, 32)), jobs=1)
        assert extended.trial_sets == cold.trial_sets

    def test_full_hit_draws_no_seeds(self, tmp_path, monkeypatch):
        """A run served wholly from the store builds no root source and
        spawns no per-trial streams."""
        store = ResultStore(tmp_path)
        cold = run_scenario(_star_scenario(), jobs=1, store=store)

        def explode(*args, **kwargs):
            raise AssertionError("seed drawn for a fully cached run")

        for name in ("__init__", "spawn", "spawn_many"):
            monkeypatch.setattr(RandomSource, name, explode)
        warm = run_scenario(_star_scenario(), jobs=1, store=store)
        assert warm.trial_sets == cold.trial_sets

    def test_identity_mismatch_misses(self, tmp_path):
        store = ResultStore(tmp_path)
        scenario = _star_scenario()
        run_scenario(scenario, jobs=1, store=store)
        assert store.load(_star_scenario(seed=6), 16, 0) is None
        assert store.load(_star_scenario(trials=3), 16, 0) is None
        assert store.load(scenario, 64, 0) is None

    def test_grid_position_is_part_of_the_key(self, tmp_path):
        """A trial set cached at one grid position must not serve another:
        per-trial seeds are spawned in grid order, so the same size at a
        different position uses a different seed stream."""
        store = ResultStore(tmp_path)
        run_scenario(_star_scenario(sizes=(32,)), jobs=1, store=store)
        # 32 moved from position 0 to position 1 → miss, full recompute ...
        assert store.load(_star_scenario(sizes=(16, 32)), 32, 1) is None
        reordered = run_scenario(_star_scenario(sizes=(16, 32)), jobs=1, store=store)
        # ... and the result equals a cold run of the reordered grid.
        cold = run_scenario(_star_scenario(sizes=(16, 32)), jobs=1)
        assert reordered.trial_sets == cold.trial_sets

    def test_corrupt_entry_is_recomputed(self, tmp_path):
        store = ResultStore(tmp_path)
        scenario = _star_scenario()
        run = run_scenario(scenario, jobs=1, store=store)
        path = store.path_for(scenario, 16, 0)
        path.write_text("{not json")
        assert store.load(scenario, 16, 0) is None
        again = run_scenario(scenario, jobs=1, store=store)
        assert again.trial_sets == run.trial_sets

    def test_clear_removes_entries(self, tmp_path):
        store = ResultStore(tmp_path)
        scenario = _star_scenario()
        run_scenario(scenario, jobs=1, store=store)
        assert store.clear() == 2
        assert store.load(scenario, 16, 0) is None

    def test_store_does_not_change_aggregates(self, tmp_path):
        scenario = _star_scenario()
        plain = run_scenario(scenario, jobs=1)
        stored = run_scenario(scenario, jobs=1, store=ResultStore(tmp_path))
        assert plain.trial_sets == stored.trial_sets

    def test_parallel_and_serial_agree_with_store(self, tmp_path):
        scenario = _star_scenario()
        serial = run_scenario(scenario, jobs=1, store=ResultStore(tmp_path / "a"))
        parallel = run_scenario(scenario, jobs=2, store=ResultStore(tmp_path / "b"))
        assert serial.trial_sets == parallel.trial_sets


class TestEviction:
    def test_cap_evicts_oldest_entries(self, tmp_path):
        import os
        import time

        writer = ResultStore(tmp_path)  # default cap: nothing evicted yet
        scenarios = [_star_scenario(seed=s, sizes=(16,)) for s in range(5)]
        now = time.time()
        for i, scenario in enumerate(scenarios):
            run_scenario(scenario, jobs=1, store=writer)
            # mtime granularity can be coarse; pin an explicit write order.
            os.utime(writer.path_for(scenario, 16, 0), (now + i, now + i))
        capped = ResultStore(tmp_path, max_entries=3)
        assert capped.evict() == 2
        assert capped.stats()["entries"] == 3
        # The two oldest writes are gone, the three newest survive.
        assert capped.load(scenarios[0], 16, 0) is None
        assert capped.load(scenarios[1], 16, 0) is None
        for scenario in scenarios[2:]:
            assert capped.load(scenario, 16, 0) is not None

    def test_eviction_only_costs_a_recompute(self, tmp_path):
        store = ResultStore(tmp_path, max_entries=1)
        scenario = _star_scenario(sizes=(16, 32))
        capped = run_scenario(scenario, jobs=1, store=store)
        assert store.stats()["entries"] == 1
        again = run_scenario(scenario, jobs=1, store=store)
        assert capped.trial_sets == again.trial_sets

    def test_cap_must_be_positive(self, tmp_path):
        import pytest

        with pytest.raises(ValueError, match="max_entries"):
            ResultStore(tmp_path, max_entries=0)

    def test_env_cap(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_RESULT_CACHE_MAX", "7")
        assert ResultStore(tmp_path).max_entries == 7

    def test_stats_counts_entries_and_bytes(self, tmp_path):
        store = ResultStore(tmp_path)
        run_scenario(_star_scenario(), jobs=1, store=store)
        stats = store.stats()
        assert stats["entries"] == 2
        assert stats["bytes"] > 0
        assert stats["root"] == str(tmp_path)
