"""Runtime adversary state for one engine run.

An :class:`ArmedAdversary` is the mutable counterpart of a frozen
:class:`~repro.adversary.spec.AdversarySpec`: it owns the adversary's
private random generator, the materialized crash plan, the delayed-message
queue, and the fault accounting for one protocol run.

Determinism contract (what makes fast-vs-reference trace equivalence hold):

* both engine dispatch paths — the batch core and the reference oracle —
  flatten each round's sends into the same canonical order (sender
  ascending, outbox position within a sender), so :meth:`message_masks`
  is called with identical ``(senders, ports)`` arrays;
* the generator is consumed in a fixed draw order — drop, then delay, then
  duplicate — and a fault class whose rate is zero draws nothing;
* rate draws are vectorized (one ``random(count)`` per armed fault class
  per round), which is also what lets the batch core apply faults as
  numpy masks on its batched outbox arrays.
"""

from __future__ import annotations

import warnings

import numpy as np

from repro.adversary.spec import AdversarySpec
from repro.util.rng import RandomSource

__all__ = ["ArmedAdversary"]


class ArmedAdversary:
    """Mutable per-run fault state derived from a spec and an RNG."""

    #: Whether the engine must feed this adversary the per-round traffic
    #: observation callback (``observe_round``) before drawing fault
    #: masks.  Static adversaries never observe; the adaptive subclass
    #: (:class:`~repro.adversary.adaptive.AdaptiveAdversary`) flips this.
    observes = False

    def __init__(self, spec: AdversarySpec, rng: RandomSource, n: int):
        if n < 1:
            raise ValueError(f"need n >= 1 nodes, got {n}")
        self.spec = spec
        self.n = n
        self._generator = rng.generator
        # Crash plan: node -> round it fails before executing.  Explicit
        # schedule entries win over random victims; duplicate explicit
        # entries keep the earliest round.
        plan: dict[int, int] = {}
        for node, round_index in spec.crashes:
            if node < n:
                current = plan.get(node)
                plan[node] = round_index if current is None else min(current, round_index)
        if spec.crash_count > 0:
            count = min(spec.crash_count, n)
            victims = rng.sample_without_replacement(n, count)
            rounds = self._generator.integers(0, spec.crash_by, size=count)
            for victim, round_index in zip(victims.tolist(), rounds.tolist()):
                plan.setdefault(int(victim), int(round_index))
        self._crash_rounds: dict[int, list[int]] = {}
        for node, round_index in sorted(plan.items()):
            self._crash_rounds.setdefault(round_index, []).append(node)
        # Scheduled drops per round, encoded as sender * n + port slots
        # (unique: port < degree <= n - 1 < n).
        self._drop_slots: dict[int, np.ndarray] = {}
        slots_by_round: dict[int, list[int]] = {}
        for round_index, sender, port in spec.drop_schedule:
            slots_by_round.setdefault(round_index, []).append(sender * n + port)
        for round_index, slots in slots_by_round.items():
            self._drop_slots[round_index] = np.asarray(sorted(set(slots)), dtype=np.int64)
        # Delayed messages keyed by the round whose inbox they join:
        # round -> list of (receiver, arrival_port, message).
        self._delayed: dict[int, list[tuple[int, int, object]]] = {}
        self._pending_delayed = 0
        # Fault accounting.
        self.messages_dropped = 0
        self.messages_delayed = 0
        self.messages_duplicated = 0
        #: Drops forced by an adaptive strategy that the static fault
        #: classes would *not* have caused (always 0 for static specs).
        self.messages_lost_to_adaptivity = 0
        self.nodes_crashed = 0
        self.last_fault_round: int | None = None
        self._horizon_checked = False

    # -- classification passthrough -------------------------------------------

    @property
    def has_message_faults(self) -> bool:
        return self.spec.has_message_faults

    # -- node faults -----------------------------------------------------------

    def crashes_at(self, round_index: int) -> list[int]:
        """Nodes that fail before executing ``round_index`` (ascending)."""
        return self._crash_rounds.get(round_index, [])

    def unreachable_crashes(self, max_rounds: int) -> list[tuple[int, int]]:
        """``(node, round)`` crash-plan entries at or past the round budget.

        A node scheduled to crash before round ``r >= max_rounds`` can
        never fire: the engine stops consuming the plan once the budget
        elapses, so the scenario silently runs fault-free.
        """
        return sorted(
            (node, round_index)
            for round_index, nodes in self._crash_rounds.items()
            if round_index >= max_rounds
            for node in nodes
        )

    def check_crash_horizon(self, max_rounds: int) -> None:
        """Warn once when part of the crash plan can never fire.

        Called by :meth:`AdversarySpec.arm` when the caller knows the
        round budget, and again (idempotently) by
        ``SynchronousEngine.run`` — so a misconfigured crash schedule
        fails loudly no matter how the adversary was armed.
        """
        if self._horizon_checked:
            return
        self._horizon_checked = True
        unreachable = self.unreachable_crashes(max_rounds)
        if unreachable:
            detail = ", ".join(
                f"node {node} before round {round_index}"
                for node, round_index in unreachable
            )
            warnings.warn(
                f"adversary crash schedule is partly unreachable: {detail} "
                f"— the run budget is {max_rounds} rounds, so crashes "
                f"scheduled at round >= {max_rounds} never fire",
                RuntimeWarning,
                stacklevel=3,
            )

    def note_crash(self, round_index: int) -> None:
        self.nodes_crashed += 1
        self.note_fault(round_index)

    # -- message faults --------------------------------------------------------

    def message_masks(
        self, round_index: int, senders: np.ndarray, ports: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(drop, delay, duplicate) boolean masks over one round's sends.

        ``senders``/``ports`` must list the round's messages in canonical
        order.  The masks are disjoint by construction: a dropped message is
        neither delayed nor duplicated, and only delivered (non-delayed)
        messages may be duplicated.  Accounting is updated here, so call
        exactly once per round with at least one message.
        """
        return self._draw_masks(round_index, senders, ports, None)

    def _draw_masks(
        self,
        round_index: int,
        senders: np.ndarray,
        ports: np.ndarray,
        forced_drop: np.ndarray | None,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Shared mask core: static fault classes plus adaptive forced drops.

        ``forced_drop`` (from the adaptive subclass) is merged into the
        drop mask *before* the delay/duplicate draws and before any
        accounting, so a force-dropped message is never also counted as
        delayed or duplicated — the ledger and ``fault_*`` totals stay
        reconcilable.  The RNG draw order is fixed: static drop, delay,
        duplicate (adaptive draws happen earlier, in the subclass).
        """
        spec = self.spec
        count = len(senders)
        if spec.drop_rate > 0:
            drop = self._generator.random(count) < spec.drop_rate
        else:
            drop = np.zeros(count, dtype=bool)
        scheduled = self._drop_slots.get(round_index)
        if scheduled is not None:
            drop |= np.isin(senders * self.n + ports, scheduled)
        if forced_drop is not None:
            self.messages_lost_to_adaptivity += int(
                np.count_nonzero(forced_drop & ~drop)
            )
            drop = drop | forced_drop
        if spec.delay_rate > 0:
            delay = (self._generator.random(count) < spec.delay_rate) & ~drop
        else:
            delay = np.zeros(count, dtype=bool)
        if spec.duplicate_rate > 0:
            duplicate = (
                (self._generator.random(count) < spec.duplicate_rate) & ~drop & ~delay
            )
        else:
            duplicate = np.zeros(count, dtype=bool)
        dropped = int(drop.sum())
        delayed = int(delay.sum())
        duplicated = int(duplicate.sum())
        self.messages_dropped += dropped
        self.messages_delayed += delayed
        self.messages_duplicated += duplicated
        if dropped or delayed or duplicated:
            self.note_fault(round_index)
        return drop, delay, duplicate

    # -- delayed-message queue -------------------------------------------------

    def push_delayed(self, arrival_round: int, receiver: int, port: int, message) -> None:
        """Queue one delayed message for the inbox read in ``arrival_round``."""
        self._delayed.setdefault(arrival_round, []).append((receiver, port, message))
        self._pending_delayed += 1

    def push_delayed_many(
        self, arrival_round: int, entries: list[tuple[int, int, object]]
    ) -> None:
        """Queue a whole round's delayed ``(receiver, port, payload)`` rows.

        The batch dispatch path collects its delayed rows in one list (in
        canonical send order — the same order repeated :meth:`push_delayed`
        calls would enqueue them) and hands them over in one call.
        """
        self._delayed.setdefault(arrival_round, []).extend(entries)
        self._pending_delayed += len(entries)

    def pop_delayed(self, arrival_round: int) -> list[tuple[int, int, object]]:
        """Messages whose delay expires at ``arrival_round`` (queue order)."""
        entries = self._delayed.pop(arrival_round, [])
        self._pending_delayed -= len(entries)
        return entries

    @property
    def pending_delayed(self) -> int:
        """Delayed messages still queued (in flight at end of run)."""
        return self._pending_delayed

    # -- accounting ------------------------------------------------------------

    def note_fault(self, round_index: int) -> None:
        if self.last_fault_round is None or round_index > self.last_fault_round:
            self.last_fault_round = round_index

    def stats(self, rounds_executed: int) -> dict:
        """Numeric fault accounting for result meta (``fault_*`` keys).

        ``fault_rounds_to_recovery`` counts the clean rounds the protocol
        ran after the last fault fired.  Always present (sweep aggregation
        keeps only keys present in every trial): with no fault fired the
        whole run is clean, so it equals ``rounds_executed`` — the same
        formula with the "last fault" taken to precede round 0.
        """
        last = self.last_fault_round if self.last_fault_round is not None else -1
        return {
            "fault_messages_dropped": self.messages_dropped,
            "fault_messages_delayed": self.messages_delayed,
            "fault_messages_duplicated": self.messages_duplicated,
            "fault_messages_lost_to_adaptivity": self.messages_lost_to_adaptivity,
            "fault_nodes_crashed": self.nodes_crashed,
            "fault_rounds_to_recovery": max(0, rounds_executed - 1 - last),
        }
