"""Shared fixtures for the test suite."""

from __future__ import annotations

import pytest

from repro.util.rng import RandomSource


@pytest.fixture(autouse=True)
def _isolated_store(tmp_path, monkeypatch):
    """Pin the default result store to a fresh directory for every test.

    Unpinned, the store is ``benchmarks/results/cache/`` under the working
    directory: a test would write into the checkout and could be answered
    from entries an older tree left there.
    """
    monkeypatch.setenv("REPRO_RESULT_CACHE", str(tmp_path / "default-cache"))


@pytest.fixture
def rng() -> RandomSource:
    """A fixed-seed random source; tests needing other seeds build their own."""
    return RandomSource(12345)


@pytest.fixture
def make_rng():
    """Factory for seeded random sources."""

    def factory(seed: int = 0) -> RandomSource:
        return RandomSource(seed)

    return factory
