"""Synchronous round-by-round execution engine (classical CONGEST).

This engine is a *faithful* simulator: it delivers messages port-to-port,
enforces the CONGEST constraint of one message per directed edge per round,
and charges every delivered message to the metrics recorder.  It is used by
the classical baselines whose round counts are small enough to simulate
directly (ring LE, KPP complete-graph LE, CPR diameter-2 LE, ...).

Two dispatch paths implement :meth:`SynchronousEngine.run`, selected by
the ``backend`` knob:

* ``"fast"`` (the default) runs the **batch** core
  (:meth:`_run_batch`): one ``step_batch`` call per round over array
  inboxes/outboxes, with every receiver and arrival port resolved by
  numpy gathers through the topology's precomputed
  :class:`~repro.network.porttable.PortTable` — O(1) routing per message
  and vectorized CONGEST-violation detection.  An array-native
  :class:`~repro.network.batch.BatchProtocol` runs on it directly; a list
  of scalar :class:`~repro.network.node.Node` instances is wrapped in a
  :class:`~repro.network.batch.ScalarAdapter` at construction;
* ``"reference"`` is the original one-message-at-a-time Python loop over a
  node list, kept as the differential-testing oracle.  It runs scalar
  node lists only, so a native ``BatchProtocol`` under ``"reference"``
  is rejected at construction.

The backend also picks the node program, in one place
(:func:`wants_batch_dispatch`): a protocol driver with an array-native
port runs the port under ``"fast"`` and its scalar twin under
``"reference"``.  The parity suites prove each port sends exactly the
messages of its twin, so the backend never changes a result.

Both paths are trace-equivalent by construction — same delivery order,
same metrics charges, same RNG consumption — which the test suite asserts
across every topology family.  The default backend can be overridden
per-engine (``backend=``) or process-wide via the ``REPRO_ENGINE``
environment variable (which worker processes inherit).

Fault injection: the engine optionally takes an armed adversary
(:meth:`repro.adversary.AdversarySpec.arm`) that may drop, delay, or
duplicate messages in transit and crash-stop nodes on a schedule.  Both
paths consume the adversary identically — each round's sends are
flattened in canonical order (sender ascending, outbox position) before
fault masks are drawn — so trial results stay bit-identical across
paths under the same adversary seed.  The batch core applies the masks
directly on its batched outbox arrays; the reference loop is the
differential oracle for faulty runs too.  Undelivered-message accounting
distinguishes adversary losses from protocol slack
(:meth:`SynchronousEngine.undelivered_detail`).

Adaptive adversaries (``ArmedAdversary.observes``) additionally receive a
per-round traffic observation callback: both paths call
``observe_round(round_index, senders, ports, receivers)`` at the same
canonical point — after routing resolves, before fault masks are drawn,
once per round with at least one message — so traffic-conditioned fault
decisions (and their RNG draws) are bit-identical across paths.
``run()`` also validates the armed crash schedule against the round
budget, warning about crash rounds that can never fire.

Note on buffer reuse: inbox lists are recycled across rounds, so a node
that wants to retain its inbox beyond the current ``step`` call must copy
it (all in-repo protocols already do).
"""

from __future__ import annotations

import gc
import os
from dataclasses import replace
from time import perf_counter

import numpy as np

from repro.network.batch import BatchProtocol, MessageBatch, ScalarAdapter
from repro.network.kernels import stable_receiver_order
from repro.network.message import (
    Message,
    congest_capacity_bits,
    message_units_array,
)
from repro.network.metrics import MetricsRecorder
from repro.network.topology import Topology
from repro.telemetry import current_profiler, current_tracer, metrics_registry

__all__ = [
    "BACKENDS",
    "CongestViolation",
    "SynchronousEngine",
    "default_backend",
    "wants_batch_dispatch",
]

#: Engine backends selectable via ``SynchronousEngine(backend=...)``.
BACKENDS = ("fast", "reference")


def default_backend() -> str:
    """The process-wide default backend (``REPRO_ENGINE`` env, or "fast")."""
    backend = os.environ.get("REPRO_ENGINE", "fast")
    if backend not in BACKENDS:
        raise ValueError(
            f"REPRO_ENGINE must be one of {BACKENDS}, got {backend!r}"
        )
    return backend


def wants_batch_dispatch(node_api: str | None = None) -> bool:
    """True when a protocol driver should build its array-native port.

    ``None`` (every driver's default) derives the program from the
    backend: the port under ``"fast"``, the scalar twin under
    ``"reference"``, whose oracle loop steps node lists only.  An
    explicit ``"batch"`` or ``"scalar"`` pins one program; the parity
    suites and the dispatch benchmarks use it to run both twins.
    """
    if node_api is None:
        return default_backend() == "fast"
    if node_api == "batch":
        return True
    if node_api == "scalar":
        return False
    raise ValueError(
        f"node_api must be None, 'batch', or 'scalar', got {node_api!r}"
    )


class CongestViolation(RuntimeError):
    """Raised when a node sends more than one message per port per round."""


def _check_outbox(table, senders, ports, max_ports: int, round_index: int) -> None:
    """Check an outbox: canonical sender order, valid ports, CONGEST.

    Valid ports plus strictly rising ``sender * max_ports + port`` slots
    imply ascending senders and no repeated port, so the common outbox
    passes on one slot pass.  Anything else re-runs the three checks in
    their reporting order, and the first that fails raises.  Duplicate
    (sender, port) pairs violate one-message-per-edge; sorting the slots
    finds the smallest duplicated one.  An outbox whose slots fall only
    because one sender's ports are out of order passes.
    """
    bad_index = table.find_bad_port(senders, ports)
    if bad_index is None:
        if len(senders) == 1:
            return
        slots = senders * max_ports + ports
        if not np.count_nonzero(slots[1:] <= slots[:-1]):
            return
    # The one-pass check failed: rerun the checks in reporting order.
    if np.count_nonzero(senders[1:] < senders[:-1]):
        raise ValueError(
            f"step_batch outbox violates canonical sender order "
            f"in round {round_index} (senders must be ascending)"
        )
    if bad_index is not None:
        raise ValueError(
            f"node {int(senders[bad_index])} sent on invalid "
            f"port {int(ports[bad_index])} in round {round_index}"
        )
    slots.sort()
    duplicates = np.nonzero(slots[1:] == slots[:-1])[0]
    if duplicates.size:
        slot = int(slots[duplicates[0]])
        raise CongestViolation(
            f"node {slot // max_ports} sent two messages on port "
            f"{slot % max_ports} in round {round_index}"
        )


class SynchronousEngine:
    """Runs a node program — scalar ``Node`` list or ``BatchProtocol`` —
    in lockstep rounds.

    ``program`` is either a list of :class:`~repro.network.node.Node`
    instances, which the engine wraps in a
    :class:`~repro.network.batch.ScalarAdapter`, or one
    :class:`~repro.network.batch.BatchProtocol`.  Prefer building runs
    through the protocol drivers, which pick the program for the backend
    (:func:`wants_batch_dispatch`).
    """

    def __init__(
        self,
        topology: Topology,
        program=None,
        metrics: MetricsRecorder = None,
        label: str = "engine",
        backend: str | None = None,
        adversary=None,
        *,
        tracer=None,
        profiler=None,
    ):
        if program is None:
            raise TypeError("SynchronousEngine needs a node program")
        if metrics is None:
            raise TypeError("SynchronousEngine needs a MetricsRecorder")
        if not isinstance(program, BatchProtocol):
            program = ScalarAdapter(program)
        if program.n != topology.n:
            raise ValueError(
                f"topology has {topology.n} nodes but the "
                f"{type(program).__name__} batch program has {program.n}"
            )
        backend = backend if backend is not None else default_backend()
        if backend not in BACKENDS:
            raise ValueError(f"backend must be one of {BACKENDS}, got {backend!r}")
        if backend == "reference" and not isinstance(program, ScalarAdapter):
            raise ValueError(
                f"backend='reference' steps scalar Node lists only, not the "
                f"array-native {type(program).__name__}: under the reference "
                f"backend a protocol driver runs its scalar twin on the "
                f"oracle loop (leave node_api unset, or pass "
                f"node_api='scalar')"
            )
        #: The program the engine steps; node lists arrive here wrapped.
        self.program: BatchProtocol = program
        self.topology = topology
        self.metrics = metrics
        self.label = label
        self.backend = backend
        #: An :class:`~repro.adversary.ArmedAdversary` (or None).  Armed
        #: state is single-use: one adversary per engine per protocol run.
        self.adversary = adversary
        #: Telemetry hooks resolve from the process context (``REPRO_TRACE``
        #: / ``REPRO_PROFILE`` env) unless passed explicitly.  Neither ever
        #: draws from a run RNG stream or alters delivery, so traced and
        #: profiled runs stay bit-identical to bare ones.
        self.tracer = tracer if tracer is not None else current_tracer()
        self.profiler = profiler if profiler is not None else current_profiler()
        self.rounds_executed = 0
        self._in_flight = 0
        self._dropped_protocol = 0
        self._dropped_adversary = 0
        self._crashed: set[int] = set()
        #: Always-on reconciliation counters, accumulated independently of
        #: the adversary's own ledger so :meth:`reconcile_accounting` can
        #: cross-check the two sources (plus ``undelivered_detail``) after
        #: every faulty run.
        self._units_total = 0
        self._adv_dropped = 0
        self._adv_delayed = 0
        self._adv_duplicated = 0
        self._dropped_to_crashed = 0

    def run(self, max_rounds: int) -> int:
        """Run until all nodes halt or ``max_rounds`` elapse; returns rounds used."""
        if self.adversary is not None:
            # Fail loudly (once) on crash schedules the budget can never
            # reach — a silent no-op fault plan is a misconfigured scenario.
            self.adversary.check_crash_horizon(max_rounds)
        tracer = self.tracer
        path = "reference" if self.backend == "reference" else "batch"
        if tracer.enabled:
            tracer.emit(
                "engine_start",
                label=self.label,
                n=self.topology.n,
                path=path,
                max_rounds=max_rounds,
                adversary=self.adversary is not None,
            )
        rounds_before = self.rounds_executed
        units_before = self._units_total
        if path == "batch":
            rounds = self._run_batch(max_rounds)
        else:
            rounds = self._run_reference(max_rounds)
        self.program.sync_columns()
        # One ledger entry per run, not per round: a long sparse run (an HS
        # ring runs ~4n rounds) would otherwise append one object per round.
        if rounds > rounds_before:
            self.metrics.charge(
                self.label,
                messages=self._units_total - units_before,
                rounds=rounds - rounds_before,
            )
        if tracer.enabled:
            tracer.emit(
                "engine_end",
                label=self.label,
                rounds=rounds,
                units=self._units_total,
                **self.undelivered_detail(),
            )
        if self.adversary is not None:
            self.reconcile_accounting()
        self._charge_registry(rounds)
        return rounds

    def _charge_registry(self, rounds: int) -> None:
        """Fold this run's totals into the process metrics registry.

        Charged once per run (not per round) so the always-on cost stays
        out of the hot loops.
        """
        registry = metrics_registry()
        registry.counter("repro_engine_runs_total").inc()
        registry.counter("repro_engine_rounds_total").inc(rounds)
        registry.counter("repro_engine_message_units_total").inc(self._units_total)
        if self.adversary is not None:
            registry.counter("repro_engine_messages_dropped_total").inc(
                self._adv_dropped
            )
            registry.counter("repro_engine_messages_delayed_total").inc(
                self._adv_delayed
            )
            registry.counter("repro_engine_messages_duplicated_total").inc(
                self._adv_duplicated
            )
            registry.counter("repro_engine_nodes_crashed_total").inc(
                len(self._crashed)
            )

    def reconcile_accounting(self) -> dict:
        """Cross-check the engine's fault counters against the adversary.

        Three accounting sources describe a faulty run: the engine's own
        per-round telemetry counters, the armed adversary's ledger
        (``fault_stats``), and the undelivered-message classification
        (``undelivered_detail``).  They are derived independently, so any
        drift between them is a bug in exactly one of the three — this
        raises ``RuntimeError`` naming the divergent quantity instead of
        letting it leak into published aggregates.  Runs automatically at
        the end of every adversarial :meth:`run`; returns the agreed
        values.
        """
        adv = self.adversary
        if adv is None:
            return {}
        checks = {
            "messages_dropped": (self._adv_dropped, adv.messages_dropped),
            "messages_delayed": (self._adv_delayed, adv.messages_delayed),
            "messages_duplicated": (self._adv_duplicated, adv.messages_duplicated),
            "nodes_crashed": (len(self._crashed), adv.nodes_crashed),
            "dropped_adversary": (
                self._dropped_adversary,
                self._adv_dropped + self._dropped_to_crashed,
            ),
        }
        drift = {key: pair for key, pair in checks.items() if pair[0] != pair[1]}
        if drift:
            detail = ", ".join(
                f"{key}: engine={a} ledger={b}"
                for key, (a, b) in sorted(drift.items())
            )
            raise RuntimeError(
                f"fault accounting drift on engine {self.label!r}: {detail}"
            )
        return {key: pair[0] for key, pair in checks.items()}

    def _apply_crashes(self, round_index: int, alive: int) -> int:
        """Crash-stop scheduled victims before they execute ``round_index``."""
        program = self.program
        halted = program.halted_mask()
        tracer = self.tracer
        for v in self.adversary.crashes_at(round_index):
            if not halted[v]:
                program.force_halt(v)
                self._crashed.add(v)
                self.adversary.note_crash(round_index)
                if tracer.enabled:
                    tracer.emit(
                        "crash", label=self.label, round=round_index, node=v
                    )
                alive -= 1
        return alive

    # -- reference oracle ------------------------------------------------------

    def _run_reference(self, max_rounds: int) -> int:
        """The differential oracle: one message at a time, node by node.

        Steps the adapter's node list directly.  Each round collects the
        sends, then faults them, then delivers them.  The two-pass shape
        keeps the round's sends in the canonical order (sender ascending,
        outbox position) the batch core flattens them in, so both paths
        hand :meth:`ArmedAdversary.message_masks` identical arrays and
        consume the adversary stream identically.  Without an adversary
        every send is delivered.
        """
        program = self.program
        n = self.topology.n
        adv = self.adversary
        self._in_flight = 0
        dropped_protocol = 0
        dropped_adversary = 0
        inboxes: list[list[tuple[int, Message]]] = [[] for _ in range(n)]
        spare: list[list[tuple[int, Message]]] = [[] for _ in range(n)]
        alive = program.alive_count()
        tracer = self.tracer
        trace_rounds = tracer.enabled
        for _ in range(max_rounds):
            round_index = self.rounds_executed
            if adv is not None:
                alive = self._apply_crashes(round_index, alive)
            if alive == 0:
                break
            sends: list[tuple[int, int, Message]] = []
            messages_this_round = 0
            round_dropped = round_delayed = round_duplicated = 0
            for v, node in enumerate(program.nodes):
                if node.halted:
                    if v in self._crashed:
                        dropped_adversary += len(inboxes[v])
                        self._dropped_to_crashed += len(inboxes[v])
                    else:
                        dropped_protocol += len(inboxes[v])
                    continue
                outbox = node.step(round_index, inboxes[v])
                if node.halted:
                    program.halted[v] = True
                    alive -= 1
                used_ports: set[int] = set()
                for port, message in outbox:
                    if port in used_ports:
                        raise CongestViolation(
                            f"node {v} sent two messages on port {port} in "
                            f"round {round_index}"
                        )
                    used_ports.add(port)
                    message.sender = v
                    message.sender_port = port
                    sends.append((v, port, message))
                    messages_this_round += message.message_units(n)
            self._units_total += messages_this_round
            next_inboxes = spare
            masks = None
            if adv is not None:
                for receiver, port, message in adv.pop_delayed(round_index + 1):
                    next_inboxes[receiver].append((port, message))
                if sends and (adv.has_message_faults or adv.observes):
                    count = len(sends)
                    senders_arr = np.fromiter(
                        (s for s, _, _ in sends), dtype=np.int64, count=count
                    )
                    ports_arr = np.fromiter(
                        (p for _, p, _ in sends), dtype=np.int64, count=count
                    )
                    if adv.observes:
                        # Canonical observation point: after routing
                        # resolves, before fault masks are drawn — identical
                        # to the batch core, so adaptive decisions (and
                        # their RNG draws) match bit for bit.
                        receivers_arr = np.fromiter(
                            (
                                self.topology.neighbor_at_port(v, p)
                                for v, p, _ in sends
                            ),
                            dtype=np.int64,
                            count=count,
                        )
                        adv.observe_round(
                            round_index, senders_arr, ports_arr, receivers_arr
                        )
                    if adv.has_message_faults:
                        masks = adv.message_masks(
                            round_index, senders_arr, ports_arr
                        )
                        round_dropped = int(masks[0].sum())
                        round_delayed = int(masks[1].sum())
                        round_duplicated = int(masks[2].sum())
                        self._adv_dropped += round_dropped
                        self._adv_delayed += round_delayed
                        self._adv_duplicated += round_duplicated
            for i, (v, port, message) in enumerate(sends):
                receiver = self.topology.neighbor_at_port(v, port)
                receiver_port = self.topology.port_to(receiver, v)
                if masks is not None:
                    drop, delay, duplicate = masks
                    if drop[i]:
                        dropped_adversary += 1
                        continue
                    if delay[i]:
                        adv.push_delayed(
                            round_index + 1 + adv.spec.delay_rounds,
                            receiver,
                            receiver_port,
                            message,
                        )
                        continue
                    if duplicate[i]:
                        next_inboxes[receiver].append((receiver_port, message))
                next_inboxes[receiver].append((receiver_port, message))
            if trace_rounds:
                tracer.emit(
                    "round",
                    label=self.label,
                    round=round_index,
                    sent=len(sends),
                    units=messages_this_round,
                    dropped=round_dropped,
                    delayed=round_delayed,
                    duplicated=round_duplicated,
                )
            spare = inboxes
            inboxes = next_inboxes
            for box in spare:
                box.clear()
            self.rounds_executed += 1
        self._dropped_protocol = dropped_protocol
        self._dropped_adversary = dropped_adversary
        self._in_flight = sum(len(inbox) for inbox in inboxes)
        if adv is not None:
            self._in_flight += adv.pending_delayed
        return self.rounds_executed

    # -- batch dispatch core ---------------------------------------------------

    def _run_batch(self, max_rounds: int) -> int:
        # A scalar program allocates thousands of acyclic containers (inbox
        # tuples, outbox lists) per round; CPython's generation-0 collector
        # re-scans them constantly for cycles that cannot exist.  Pausing
        # collection for the duration of the run is worth ~1.5x on dense
        # rounds; protocols that allocate cyclic garbage inside ``step``
        # just defer its collection until the run returns.
        gc_was_enabled = gc.isenabled()
        gc.disable()
        try:
            return self._run_batch_inner(max_rounds)
        finally:
            if gc_was_enabled:
                gc.enable()

    def _run_batch_inner(self, max_rounds: int) -> int:
        """One ``step_batch`` call per round over the whole alive network.

        Trace-equivalent to the reference oracle by construction: inbound
        rows to halted nodes are dropped with the same accounting, fault
        masks are drawn over the same canonically-ordered ``(senders,
        ports)`` arrays, delayed arrivals precede the round's direct
        sends, and the stable receiver sort reproduces the oracle's
        per-inbox append order.
        """
        program = self.program
        n = self.topology.n
        table = self.topology.port_table()
        max_ports = max(1, table.max_ports)
        capacity = congest_capacity_bits(n) if n >= 2 else 1
        adv = self.adversary
        object_mode = program.uses_messages
        self._in_flight = 0
        dropped_protocol = 0
        dropped_adversary = 0
        empty = MessageBatch.empty(object_mode)
        inbox = empty
        #: Extras column layout ((name, dtype), ...) captured from the
        #: first outbox that carries typed extra payload columns; the
        #: delay queue and inbox assembly preserve it for the whole run.
        extra_schema: tuple | None = None
        extra_names: list[str] = []
        alive = program.alive_count()
        # Telemetry hooks, hoisted so the disabled cost per round is a
        # handful of local-bool branches (the ≤1% overhead gate in
        # benchmarks/bench_engine.py holds the hot loop to that).
        tracer = self.tracer
        trace_rounds = tracer.enabled
        prof = self.profiler
        for _ in range(max_rounds):
            round_index = self.rounds_executed
            if adv is not None:
                alive = self._apply_crashes(round_index, alive)
            if alive == 0:
                break
            round_dropped = round_delayed = round_duplicated = 0
            if prof is not None:
                t_phase = perf_counter()
            if len(inbox):
                # Halted receivers drop their pending inbox rows — same
                # classification as the reference oracle (crash-stopped
                # nodes charge the adversary, self-halted ones the protocol).
                to_halted = program.halted_mask()[inbox.receivers]
                halted_count = int(np.count_nonzero(to_halted))
                if halted_count:
                    if self._crashed:
                        crashed = np.fromiter(
                            self._crashed, dtype=np.int64, count=len(self._crashed)
                        )
                        to_crashed = to_halted & np.isin(inbox.receivers, crashed)
                        crashed_count = int(np.count_nonzero(to_crashed))
                        dropped_adversary += crashed_count
                        self._dropped_to_crashed += crashed_count
                        dropped_protocol += halted_count - crashed_count
                    else:
                        dropped_protocol += halted_count
                    inbox = inbox.take(np.nonzero(~to_halted)[0])
            outbox = program.step_batch(round_index, inbox)
            alive = program.alive_count()
            if prof is not None:
                t_now = perf_counter()
                prof.add("engine.step", t_now - t_phase)
                t_phase = t_now
            if outbox is None:
                outbox = empty
            count = round_sent = len(outbox)
            messages_this_round = 0
            delayed = adv.pop_delayed(round_index + 1) if adv is not None else []
            receiver_arr = arrival_arr = empty.senders
            if count:
                senders = outbox.senders
                ports = outbox.ports
                _check_outbox(table, senders, ports, max_ports, round_index)
                receiver_arr, arrival_arr = table.route(senders, ports)
                if not object_mode and outbox.extras is not None:
                    if extra_schema is None:
                        extra_schema = tuple(
                            (name, column.dtype)
                            for name, column in outbox.extras.items()
                        )
                        extra_names = [name for name, _ in extra_schema]
                    elif list(outbox.extras) != extra_names:
                        raise ValueError(
                            f"step_batch outbox changed its extras schema in "
                            f"round {round_index}: expected columns "
                            f"{extra_names}, got {list(outbox.extras)}"
                        )
                elif extra_schema is not None:
                    # A schema-less outbox keeps the run's extras layout,
                    # zero-filled.
                    outbox = replace(
                        outbox,
                        extras={
                            name: np.zeros(count, dtype=dtype)
                            for name, dtype in extra_schema
                        },
                    )
                if object_mode:
                    payloads = outbox.payloads
                    for message, sender, port in zip(
                        payloads, senders.tolist(), ports.tolist()
                    ):
                        message.sender = sender
                        message.sender_port = port
                    if any(message.bits for message in payloads):
                        bits = np.fromiter(
                            (m.bits for m in payloads), dtype=np.int64, count=count
                        )
                        units = message_units_array(bits, capacity)
                        messages_this_round = int(units.sum())
                    else:
                        messages_this_round = count
                elif outbox.bits is not None and np.count_nonzero(outbox.bits):
                    units = message_units_array(outbox.bits, capacity)
                    messages_this_round = int(units.sum())
                else:
                    messages_this_round = count
                if adv is not None and adv.observes:
                    # Canonical observation point (same as the reference
                    # oracle): routed arrays in canonical send order,
                    # before any fault mask is drawn.
                    adv.observe_round(round_index, senders, ports, receiver_arr)
                if adv is not None and adv.has_message_faults:
                    # Same single message_masks call per round, over the
                    # same canonical arrays, as the reference oracle.
                    drop, delay, duplicate = adv.message_masks(
                        round_index, senders, ports
                    )
                    # Disjoint-mask sums: the same values the adversary's
                    # ledger just accrued, kept for reconciliation.
                    round_dropped = int(drop.sum())
                    round_delayed = int(delay.sum())
                    round_duplicated = int(duplicate.sum())
                    self._adv_dropped += round_dropped
                    self._adv_delayed += round_delayed
                    self._adv_duplicated += round_duplicated
                    if round_dropped or round_delayed or round_duplicated:
                        dropped_adversary += round_dropped
                        if round_delayed:
                            arrival_round = round_index + 1 + adv.spec.delay_rounds
                            held = np.nonzero(delay)[0].tolist()
                            if object_mode:
                                held_payloads = [payloads[i] for i in held]
                            else:
                                extra_held = (
                                    ()
                                    if outbox.extras is None
                                    else tuple(
                                        outbox.extras[name][held].tolist()
                                        for name, _ in extra_schema
                                    )
                                )
                                held_payloads = list(
                                    zip(
                                        senders[held].tolist(),
                                        outbox.kinds[held].tolist(),
                                        outbox.values[held].tolist(),
                                        (
                                            [0] * len(held)
                                            if outbox.bits is None
                                            else outbox.bits[held].tolist()
                                        ),
                                        *extra_held,
                                    )
                                )
                            adv.push_delayed_many(
                                arrival_round,
                                list(
                                    zip(
                                        receiver_arr[held].tolist(),
                                        arrival_arr[held].tolist(),
                                        held_payloads,
                                    )
                                ),
                            )
                        keep = np.nonzero(~(drop | delay))[0]
                        if round_duplicated:
                            keep = np.repeat(keep, np.where(duplicate[keep], 2, 1))
                        receiver_arr = receiver_arr[keep]
                        arrival_arr = arrival_arr[keep]
                        outbox = outbox.take(keep)
                        count = len(outbox)
            if prof is not None:
                t_now = perf_counter()
                prof.add("engine.gather", t_now - t_phase)
                t_phase = t_now
            if delayed:
                inbox = self._receive(
                    *self._prepend_delayed(
                        delayed, receiver_arr, arrival_arr, outbox, extra_schema
                    )
                )
            elif count:
                inbox = self._receive(receiver_arr, arrival_arr, outbox)
            else:
                inbox = empty
            if prof is not None:
                prof.add("engine.deliver", perf_counter() - t_phase)
            self._units_total += messages_this_round
            if trace_rounds:
                tracer.emit(
                    "round",
                    label=self.label,
                    round=round_index,
                    sent=round_sent,
                    units=messages_this_round,
                    dropped=round_dropped,
                    delayed=round_delayed,
                    duplicated=round_duplicated,
                )
            self.rounds_executed += 1
        self._dropped_protocol = dropped_protocol
        self._dropped_adversary = dropped_adversary
        self._in_flight = len(inbox)
        if adv is not None:
            self._in_flight += adv.pending_delayed
        return self.rounds_executed

    def _receive(self, receivers, arrivals, rows: MessageBatch) -> MessageBatch:
        """Next round's inbox: ``rows`` grouped by receiver.

        ``rows`` come in the reference oracle's append order (delayed
        arrivals, then the round's sends in canonical order); their
        ``senders`` are the origins, and ``receivers``/``arrivals`` route
        them.  One stable sort by receiver keeps that order within each
        group, and every present column is gathered once through it.  The
        columns were coerced when ``rows`` was built, and ``receivers`` and
        ``arrivals`` are int64 routing output, so the gathers are not
        coerced again.
        """
        order = stable_receiver_order(receivers, self.topology.n)
        return MessageBatch.from_coerced(
            senders=rows.senders[order],
            ports=arrivals[order],
            kinds=None if rows.kinds is None else rows.kinds[order],
            values=None if rows.values is None else rows.values[order],
            bits=None if rows.bits is None else rows.bits[order],
            payloads=(
                None
                if rows.payloads is None
                else [rows.payloads[i] for i in order.tolist()]
            ),
            extras=(
                None
                if rows.extras is None
                else {name: column[order] for name, column in rows.extras.items()}
            ),
            receivers=receivers[order],
        )

    @staticmethod
    def _prepend_delayed(delayed, receivers, arrivals, sent, extra_schema):
        """``(receivers, arrivals, rows)`` of ``delayed``, then of ``sent``.

        ``delayed`` holds the adversary queue's ``(receiver, arrival port,
        payload)`` rows whose delay expired this round; ``receivers`` and
        ``arrivals`` route the round's direct sends ``sent``.
        """
        held_receivers, held_arrivals, held = zip(*delayed)
        receivers = np.concatenate(
            (np.asarray(held_receivers, dtype=np.int64), receivers)
        )
        arrivals = np.concatenate(
            (np.asarray(held_arrivals, dtype=np.int64), arrivals)
        )
        if sent.payloads is not None:
            origins = np.fromiter(
                (message.sender for message in held), dtype=np.int64,
                count=len(held),
            )
            return receivers, arrivals, MessageBatch(
                senders=np.concatenate((origins, sent.senders)),
                ports=arrivals,
                payloads=[*held, *sent.payloads],
            )
        # Column payloads are (origin, kind, value, bits, *extras) tuples.
        # Rows delayed before the extras schema appeared have no extras
        # tail; their extras are zero-filled.
        schema = extra_schema or ()
        width = 4 + len(schema)
        held_columns = zip(*(row + (0,) * (width - len(row)) for row in held))
        count = len(sent)
        sent_columns = (
            sent.senders,
            sent.kinds,
            sent.values,
            np.zeros(count, dtype=np.int64) if sent.bits is None else sent.bits,
            *(
                np.zeros(count, dtype=dtype)
                if sent.extras is None
                else sent.extras[name]
                for name, dtype in schema
            ),
        )
        dtypes = (np.int64,) * 4 + tuple(dtype for _, dtype in schema)
        senders, kinds, values, bits, *extras = (
            np.concatenate((np.asarray(column, dtype=dtype), tail))
            for column, tail, dtype in zip(held_columns, sent_columns, dtypes)
        )
        return receivers, arrivals, MessageBatch(
            senders=senders,
            ports=arrivals,
            kinds=kinds,
            values=values,
            bits=bits,
            extras=(
                dict(zip((name for name, _ in schema), extras)) if schema else None
            ),
        )

    # -- accounting ------------------------------------------------------------

    @property
    def crashed_nodes(self) -> frozenset:
        """Nodes the adversary crash-stopped (empty without an adversary).

        Protocols hand this to their result so correctness conditions can
        be evaluated over the surviving nodes, the standard crash-stop
        convention.
        """
        return frozenset(self._crashed)

    def undelivered(self) -> int:
        """Total messages never consumed when :meth:`run` last returned.

        The sum of :meth:`undelivered_detail`'s three classes; non-zero
        only when the engine halted mid-protocol or an adversary interfered.
        """
        return self._in_flight + self._dropped_protocol + self._dropped_adversary

    def undelivered_detail(self) -> dict:
        """Undelivered messages split by cause.

        * ``in_flight`` — sends still queued when the round budget ran out
          (including adversary-delayed messages whose delay never expired);
        * ``dropped_protocol`` — protocol slack: messages addressed to
          nodes that had already halted on their own;
        * ``dropped_adversary`` — adversary losses: transit drops plus
          messages addressed to crash-stopped nodes.
        """
        return {
            "in_flight": self._in_flight,
            "dropped_protocol": self._dropped_protocol,
            "dropped_adversary": self._dropped_adversary,
        }

    def fault_stats(self) -> dict | None:
        """The armed adversary's fault accounting, or None when unarmed."""
        if self.adversary is None:
            return None
        return self.adversary.stats(self.rounds_executed)

    def accounting_meta(self) -> dict:
        """Result-meta entries for undelivered and fault accounting.

        Without an adversary, entries appear only when something went
        undelivered (the legacy convention).  With an adversary armed,
        every key is always present — including zeros — so per-trial
        extras aggregate cleanly across a sweep.
        """
        meta: dict = {}
        total = self.undelivered()
        if total or self.adversary is not None:
            meta["undelivered"] = total
            meta["undelivered_in_flight"] = self._in_flight
            meta["undelivered_dropped_protocol"] = self._dropped_protocol
            meta["undelivered_dropped_adversary"] = self._dropped_adversary
        stats = self.fault_stats()
        if stats is not None:
            meta.update(stats)
        return meta
