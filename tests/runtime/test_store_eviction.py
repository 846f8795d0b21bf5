"""ResultStore's entry cap counts ``*.json`` entries and nothing else."""

from __future__ import annotations

import os
import time

import pytest

from repro.runtime import ResultStore, Scenario, TopologySpec, run_scenario


def _scenario(seed: int) -> Scenario:
    return Scenario(
        name="evict-test/star",
        protocol="search-star/classical",
        topology=TopologySpec("star"),
        sizes=(8,),
        trials=1,
        seed=seed,
    )


def _save(store: ResultStore, seed: int, stamp: float) -> None:
    scenario = _scenario(seed)
    run_scenario(scenario, jobs=1, store=store)
    # mtime granularity can be coarse; pin an explicit write order.
    os.utime(store.path_for(scenario, 8, 0), (stamp, stamp))


class TestCapCountsOnlyEntries:
    STRAYS = (
        "evict-test_star-n8-0123456789abcdef.json.4242.tmp",  # orphaned writer tmp
        "other.json.17.tmp",
        "notes.txt",
        "README",
        "entry.json.bak",
    )

    def test_orphaned_tmp_files_and_other_names_never_count(
        self, tmp_path, monkeypatch
    ):
        store = ResultStore(tmp_path, max_entries=2)
        # Stamped in the past, so the third save below is the newest write.
        now = time.time()
        _save(store, 1, now - 200)
        _save(store, 2, now - 100)
        for name in self.STRAYS:
            (tmp_path / name).write_text("{}")

        # At the cap, evict bails on the name count alone: the strays never
        # push it into the stat-and-sort listing.
        with monkeypatch.context() as patch:
            patch.setattr(store, "entries", lambda: pytest.fail("listed under the cap"))
            assert store.evict() == 0
        assert store.stats()["entries"] == 2
        assert store.load(_scenario(1), 8, 0) is not None

        # A third entry pushes past the cap: exactly the oldest entry goes,
        # and no stray file is touched.
        _save(store, 3, now)
        assert store.stats()["entries"] == 2
        assert store.load(_scenario(1), 8, 0) is None
        assert store.load(_scenario(2), 8, 0) is not None
        assert store.load(_scenario(3), 8, 0) is not None
        for name in self.STRAYS:
            assert (tmp_path / name).exists(), name

    def test_missing_cache_directory_evicts_nothing(self, tmp_path):
        assert ResultStore(tmp_path / "absent", max_entries=1).evict() == 0
