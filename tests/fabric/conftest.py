"""Shared fixtures for the fabric test suite.

Every test here runs against a cheap star-search scenario (trials are
sub-millisecond) so the suite exercises real multi-process fleets, real
SIGKILLs, and real lease takeovers without noticeable wall-clock cost.
"""

from __future__ import annotations

import pytest

from repro.runtime import Scenario, TopologySpec


@pytest.fixture
def make_scenario():
    """Factory for cheap, deterministic sweep scenarios."""

    def factory(**overrides) -> Scenario:
        base = dict(
            name="fabric-test/star",
            protocol="search-star/classical",
            topology=TopologySpec("star"),
            sizes=(8, 12, 16),
            trials=2,
            seed=11,
        )
        base.update(overrides)
        return Scenario(**base)

    return factory
