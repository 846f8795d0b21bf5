"""Round accounting for node-parallel stages.

Several protocols run the same quantum subroutine at many nodes
simultaneously — e.g. every candidate of QuantumLE runs its own Grover search
over edges disjoint from every other candidate's (proof of Theorem 5.2).
Such a stage costs the *sum* of the participants' messages but only the
*maximum* of their round counts.  The stage loops of
:mod:`repro.core.grover`, :mod:`repro.core.minimum` and
:mod:`repro.core.counting` run every participant, then bill the whole stage
with :func:`charge_stage`: one ledger entry per label.
"""

from __future__ import annotations

from repro.core.procedures import ChargeHook
from repro.network.metrics import MetricsRecorder

__all__ = ["charge_stage"]


def charge_stage(
    metrics: MetricsRecorder,
    label: str,
    charge_checking: ChargeHook,
    calls: int,
    longest: int,
    idle_label: str | None = None,
) -> None:
    """Charge a node-parallel stage once per label.

    ``calls`` is the stage's Checking calls summed over its tasks, and
    ``longest`` the longest task's synchronized schedule, in Checking calls.
    The hook is additive in its calls, so one charge of ``calls`` bills the
    messages of every task's own charges; its rounds are dropped.  Rounds
    advance once, under ``label``, by ``longest`` calls' worth.
    ``idle_label`` names the idle part of the tasks' schedules; it is
    recorded with no messages, as a task's own idle rounds would be.
    """
    scratch = MetricsRecorder()
    charge_checking(scratch, calls)
    for entry in scratch.ledger.entries:
        metrics.charge_messages(entry.label, entry.messages)
    probe = MetricsRecorder()
    charge_checking(probe, 1)
    rounds = probe.rounds * longest
    if rounds:
        if idle_label is not None:
            metrics.charge_messages(idle_label, 0)
        metrics.advance_rounds(label, rounds)
