"""Tests for the explicit-election upgrade."""

import numpy as np
import pytest

from repro.core.leader_election.explicit import make_explicit
from repro.core.results import LeaderElectionResult
from repro.network import graphs
from repro.network.batch import STATUS_ELECTED, STATUS_NON_ELECTED
from repro.network.metrics import MetricsRecorder
from repro.util.rng import RandomSource


def _implicit_result(n, leader):
    status = np.full(n, STATUS_NON_ELECTED, dtype=np.int8)
    status[leader] = STATUS_ELECTED
    return LeaderElectionResult(n=n, status_codes=status, metrics=MetricsRecorder())


class TestMakeExplicit:
    def test_complete_graph_announcement(self):
        result = make_explicit(_implicit_result(16, 3))
        assert result.explicit_success
        assert result.known_leader == {v: 3 for v in range(16)}
        assert result.messages == 15
        assert result.rounds == 1

    def test_sparse_topology_uses_bfs_tree(self):
        topology = graphs.path(8)
        result = make_explicit(_implicit_result(8, 0), topology)
        assert result.explicit_success
        assert result.messages == 7
        assert result.rounds == 7  # path eccentricity from node 0

    def test_failed_election_left_untouched(self):
        status = np.full(4, STATUS_NON_ELECTED, dtype=np.int8)
        result = LeaderElectionResult(4, status, MetricsRecorder())
        make_explicit(result)
        assert result.known_leader is None
        assert result.messages == 0

    def test_topology_size_mismatch_rejected(self):
        with pytest.raises(ValueError):
            make_explicit(_implicit_result(8, 0), graphs.cycle(6))

    def test_end_to_end_with_quantum_le(self):
        from repro import quantum_le_complete

        implicit = quantum_le_complete(128, RandomSource(5))
        assert implicit.success
        before = implicit.messages
        explicit = make_explicit(implicit)
        assert explicit.explicit_success
        assert explicit.messages == before + 127

    def test_announcement_cost_dominates_sublinear_election(self):
        """Footnote 1: explicitness forces Ω(n), swamping the Õ(n^{1/3})
        election itself at large n — measured directly."""
        from repro import quantum_le_complete

        n = 32768
        implicit = quantum_le_complete(n, RandomSource(6))
        election_cost = implicit.messages
        explicit = make_explicit(implicit)
        announcement = explicit.metrics.ledger.messages_by_label()[
            "explicit.announce"
        ]
        assert announcement == n - 1
        assert announcement > election_cost  # Ω(n) dwarfs Õ(n^{1/3}·polylog)
