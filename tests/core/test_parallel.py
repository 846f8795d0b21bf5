"""Tests for parallel stage accounting."""

from repro.core.parallel import charge_stage
from repro.core.procedures import uniform_charge
from repro.network.metrics import MetricsRecorder


class TestChargeStage:
    def test_messages_sum_rounds_max(self):
        # Two tasks of 5 and 7 Checking calls; the longer schedule is 10.
        metrics = MetricsRecorder()
        charge_stage(metrics, "stage", uniform_charge(1, 3, "x.checking"), 12, 10)
        assert metrics.messages == 12
        assert metrics.rounds == 30  # the longest schedule, not the sum

    def test_labels_preserved(self):
        metrics = MetricsRecorder()
        charge_stage(metrics, "stage", uniform_charge(2, 1, "x.inner"), 4, 4)
        assert metrics.ledger.messages_by_label() == {"x.inner": 8, "stage": 0}
        assert metrics.ledger.entries[-1] == ("stage", 0, 4)

    def test_one_entry_per_label(self):
        metrics = MetricsRecorder()
        charge_stage(
            metrics, "stage", uniform_charge(2, 2, "x.checking"), 9, 5, "x.idle"
        )
        assert metrics.ledger.entries == [
            ("x.checking", 18, 0),
            ("x.idle", 0, 0),
            ("stage", 0, 10),
        ]

    def test_zero_round_hook_adds_no_rounds(self):
        metrics = MetricsRecorder()
        charge_stage(metrics, "stage", uniform_charge(1, 0, "m"), 1, 1, "x.idle")
        assert metrics.rounds == 0
        assert metrics.messages == 1
        assert metrics.ledger.messages_by_label() == {"m": 1}
