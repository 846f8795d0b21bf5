"""Tests for result dataclasses."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.results import AgreementResult, LeaderElectionResult
from repro.network.batch import (
    STATUS_CODES,
    STATUS_ELECTED,
    STATUS_NON_ELECTED,
    STATUS_UNDECIDED,
)
from repro.network.metrics import MetricsRecorder
from repro.network.node import Status

U, E, N = STATUS_UNDECIDED, STATUS_ELECTED, STATUS_NON_ELECTED


def _statuses(n, elected=()):
    status = np.full(n, STATUS_NON_ELECTED, dtype=np.int8)
    status[list(elected)] = STATUS_ELECTED
    return status


class TestLeaderElectionResult:
    def test_unique_leader_success(self):
        result = LeaderElectionResult(4, _statuses(4, {2}), MetricsRecorder())
        assert result.success
        assert result.leader == 2
        assert result.elected == [2]

    def test_no_leader_fails(self):
        result = LeaderElectionResult(3, _statuses(3), MetricsRecorder())
        assert not result.success
        assert result.leader is None

    def test_two_leaders_fail(self):
        result = LeaderElectionResult(4, _statuses(4, {0, 1}), MetricsRecorder())
        assert not result.success
        assert result.leader is None

    def test_undecided_node_fails(self):
        statuses = _statuses(3, {0})
        statuses[2] = STATUS_UNDECIDED
        result = LeaderElectionResult(3, statuses, MetricsRecorder())
        assert not result.success

    def test_explicit_success_requires_known_leader(self):
        result = LeaderElectionResult(3, _statuses(3, {1}), MetricsRecorder())
        assert not result.explicit_success
        result.known_leader = {0: 1, 1: 1, 2: 1}
        assert result.explicit_success

    def test_explicit_fails_on_wrong_knowledge(self):
        result = LeaderElectionResult(
            3, _statuses(3, {1}), MetricsRecorder(), known_leader={0: 1, 1: 1, 2: 0}
        )
        assert not result.explicit_success

    def test_messages_and_rounds_proxy_metrics(self):
        metrics = MetricsRecorder()
        metrics.charge("x", messages=5, rounds=2)
        result = LeaderElectionResult(2, _statuses(2, {0}), metrics)
        assert result.messages == 5
        assert result.rounds == 2

    def test_statuses_is_a_read_only_view(self):
        result = LeaderElectionResult(3, _statuses(3, {1}), MetricsRecorder())
        assert result.statuses == {
            0: Status.NON_ELECTED, 1: Status.ELECTED, 2: Status.NON_ELECTED
        }
        with pytest.raises(TypeError):
            result.statuses[0] = Status.ELECTED

    def test_column_length_must_match_n(self):
        with pytest.raises(ValueError, match="shape"):
            LeaderElectionResult(4, _statuses(3), MetricsRecorder())


def _dict_oracle(status, crashed):
    """``elected``, ``leader`` and ``success`` by the per-node dict
    definitions the column reductions replaced."""
    statuses = {v: STATUS_CODES[code] for v, code in enumerate(status.tolist())}
    elected = [
        v
        for v, s in statuses.items()
        if s is Status.ELECTED and v not in crashed
    ]
    leader = elected[0] if len(elected) == 1 else None
    success = len(elected) == 1 and all(
        s in (Status.ELECTED, Status.NON_ELECTED)
        for v, s in statuses.items()
        if v not in crashed
    )
    return elected, leader, success


@st.composite
def _status_columns(draw):
    n = draw(st.integers(1, 12))
    codes = draw(st.lists(st.sampled_from((U, E, N)), min_size=n, max_size=n))
    crashed = draw(st.frozensets(st.integers(0, n - 1)))
    return np.asarray(codes, dtype=np.int8), crashed


def _case(codes, crashed=()):
    return np.asarray(codes, dtype=np.int8), frozenset(crashed)


class TestColumnReductions:
    @given(_status_columns())
    @example(_case([N, N, N]))  # no leader
    @example(_case([N, E, N]))  # one leader
    @example(_case([E, N, E]))  # two leaders
    @example(_case([E, U, N]))  # an alive UNDECIDED node
    @example(_case([E, U, N], crashed={1}))  # a crash hides the UNDECIDED node
    @example(_case([E, N, E], crashed={2}))  # a crash hides the second leader
    @example(_case([E, N, E], crashed={0, 2}))  # every leader crashed
    @settings(max_examples=200, deadline=None)
    def test_match_dict_definitions(self, case):
        status, crashed = case
        result = LeaderElectionResult(
            len(status), status, MetricsRecorder(), crashed=crashed
        )
        elected, leader, success = _dict_oracle(status, crashed)
        assert result.elected == elected
        assert result.leader == leader
        assert result.success == success
        assert type(result.success) is bool
        assert leader is None or type(result.leader) is int
        assert type(result.elected) is list
        assert all(type(v) is int for v in result.elected)


class TestAgreementResult:
    def _result(self, inputs, decisions):
        return AgreementResult(
            n=len(inputs),
            inputs={v: b for v, b in enumerate(inputs)},
            decisions={v: decisions.get(v) for v in range(len(inputs))},
            metrics=MetricsRecorder(),
        )

    def test_valid_agreement(self):
        result = self._result([0, 1, 1], {0: 1, 2: 1})
        assert result.success
        assert result.agreed_value == 1
        assert sorted(result.decided_nodes) == [0, 2]

    def test_single_decider_is_valid(self):
        result = self._result([0, 1], {1: 0})
        assert result.success

    def test_nobody_decided_fails(self):
        result = self._result([0, 1], {})
        assert not result.success

    def test_disagreement_fails(self):
        result = self._result([0, 1], {0: 0, 1: 1})
        assert not result.success
        assert result.agreed_value is None

    def test_validity_violation_fails(self):
        """Deciding a value nobody held as input is invalid."""
        result = self._result([0, 0, 0], {1: 1})
        assert not result.success
