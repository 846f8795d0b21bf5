"""Distributed Grover search — Theorem 4.1.

``GroverSearch(ε, α)``: a node u searches X for some x with f(x) = 1,
delegating each coherent evaluation of f to the network via a Checking
procedure of cost (T_C, M_C).  The theorem's contract:

1. runs in O(log(1/α) · T_C/√ε) rounds with O(log(1/α) · M_C/√ε) messages;
2. returns a marked element with probability ≥ 1 − α whenever ε_f ≥ ε, and
   never returns a false positive (the measured element is verified with one
   classical Checking call).

The implementation follows the proof's structure faithfully:

* ⌈log_{4/3}(1/α)⌉ *attempts*, each a BBHT run with a uniformly random
  iteration count j ∈ [0, m), m = ⌈1/√ε⌉ — per-attempt success ≥ 1/4 when
  ε_f ≥ ε ([BBHT98, Lemma 2]);
* each Grover iteration applies S_f = Checking⁻¹ · PF · Checking — two
  coherent Checking invocations;
* **rounds** are charged for the full worst-case schedule: the network
  stays synchronized to the most pessimistic iteration count ("the network
  will also assume the worst possible value" — Definition 4.1), so the
  round count is deterministic given the parameters;
* **messages** are charged only while u actually initiates Checking: once u
  has a verified marked element it stops querying, and "the network
  transformation is the identity" (proof of Theorem 4.1) — an identity
  round carries no messages.  The paper's O(log(1/α)·M_C/√ε) is the
  worst-case envelope, attained exactly when no marked element exists.

Simulation.  One attempt kernel serves every search: per attempt it draws
the iteration count j, then one uniform against sin²((2j+1)θ) — the draws
:func:`~repro.quantum.grover_dynamics.sample_attempt` makes, in the same
order — and it stops at the first hit.  The found element is sampled right
after the hit; the idle attempts then draw their iteration counts as one
column, so the stream ends where the full schedule leaves it.
:func:`distributed_grover_search` is one search; :func:`grover_stage` runs
the kernel at many nodes at once (every candidate of QuantumLE, every node
of QuantumGeneralLE) and bills the stage once per label: messages add over
the searches, rounds advance once by the longest schedule.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass

from repro.core.parallel import charge_stage
from repro.core.procedures import ChargeHook, SearchOracle
from repro.network.metrics import MetricsRecorder
from repro.quantum.amplitude import (
    attempts_for_confidence,
    grover_angle,
    worst_case_iterations,
)
from repro.util.fault import FaultInjector
from repro.util.rng import RandomSource

__all__ = ["GroverSearchResult", "distributed_grover_search", "grover_stage"]

#: Coherent Checking invocations per Grover iteration (compute + uncompute).
CHECKS_PER_ITERATION = 2

#: Where a search's post-success schedule advances its rounds.
IDLE_LABEL = "grover.synchronized-idle"


@dataclass
class GroverSearchResult:
    """Outcome of one distributed Grover search."""

    found: object | None  # a verified marked element, or None
    attempts: int
    iterations_charged: int
    checking_calls: int

    @property
    def succeeded(self) -> bool:
        return self.found is not None


def _attempt_loop(
    generator,
    cap: int,
    attempts: int,
    theta: float,
    faults: FaultInjector | None,
    fault_site: str,
) -> tuple[int, int, bool]:
    """Run attempts until the first hit: (attempts run, iterations, hit).

    Each attempt draws j with ``generator.integers(0, cap)``; unless a
    forced false negative takes the attempt (drawing nothing more), one
    ``generator.random()`` below sin²((2j+1)θ) is a hit.
    """
    integers, uniform, sin = generator.integers, generator.random, math.sin
    iterations = 0
    for attempt in range(1, attempts + 1):
        j = int(integers(0, cap))
        iterations += j
        if faults is not None and faults.should_fail(fault_site):
            continue
        if uniform() < sin((2 * j + 1) * theta) ** 2:
            return attempt, iterations, True
    return attempts, iterations, False


def distributed_grover_search(
    oracle: SearchOracle,
    epsilon: float,
    alpha: float,
    metrics: MetricsRecorder,
    rng: RandomSource,
    faults: FaultInjector | None = None,
    fault_site: str = "grover.false_negative",
) -> GroverSearchResult:
    """Run GroverSearch(ε, α) for the node owning ``oracle``.

    ``epsilon`` is the promise parameter: correctness (probability ≥ 1 − α of
    finding a marked element) is guaranteed only when the true marked
    fraction ε_f is ≥ ε; when ε_f = 0 the result is always "none found".
    """
    if not 0.0 < epsilon <= 1.0:
        raise ValueError(f"epsilon must be in (0, 1], got {epsilon}")
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")

    iteration_cap = worst_case_iterations(epsilon)
    attempts = attempts_for_confidence(alpha)
    theta = grover_angle(oracle.marked_fraction())

    attempts_run, iterations_run, hit = _attempt_loop(
        rng.generator, iteration_cap, attempts, theta, faults, fault_site
    )
    found = oracle.sample_marked(rng) if hit else None
    if attempts_run < attempts:
        rng.uniform_ints(0, iteration_cap - 1, attempts - attempts_run)

    # u initiated each attempt it ran: j iterations of S_f (two coherent
    # Checking calls each) plus one classical verification.
    charged_calls = CHECKS_PER_ITERATION * iterations_run + attempts_run
    oracle.charge_checking(metrics, charged_calls)
    # After a verified success u goes silent; the network's remaining
    # schedule is the identity transformation (no messages), but the
    # synchronized rounds still elapse.
    probe = MetricsRecorder()
    oracle.charge_checking(probe, 1)
    schedule_calls = attempts * (iteration_cap * CHECKS_PER_ITERATION + 1)
    skipped_calls = schedule_calls - charged_calls
    if skipped_calls > 0 and probe.rounds > 0:
        metrics.advance_rounds(IDLE_LABEL, skipped_calls * probe.rounds)

    return GroverSearchResult(
        found=found,
        attempts=attempts,
        iterations_charged=iterations_run,
        checking_calls=charged_calls,
    )


def grover_stage(
    metrics: MetricsRecorder,
    label: str,
    searches: Iterable[tuple[float, int, float]],
    alpha: float,
    charge_checking: ChargeHook,
    rng: RandomSource,
    faults: FaultInjector | None = None,
    fault_site: str = "grover.false_negative",
) -> list[int | None]:
    """GroverSearch(ε, α) at many nodes at once, one search per task.

    A task is ``(ε_f, marked, ε)``: its marked fraction, the number of
    marked elements a hit picks from, and its promise.  Returns, per task,
    the index of the element found among its marked elements (drawn as
    ``sample_marked`` draws it), or None.  Every search bills Checking
    through ``charge_checking``; the stage is charged once per label, its
    rounds under ``label``.
    """
    attempts = attempts_for_confidence(alpha)
    generator = rng.generator
    found: list[int | None] = []
    calls = widest = 0
    for fraction, marked, epsilon in searches:
        cap = worst_case_iterations(epsilon)
        attempts_run, iterations, hit = _attempt_loop(
            generator, cap, attempts, grover_angle(fraction), faults, fault_site
        )
        found.append(rng.uniform_int(0, marked - 1) if hit else None)
        if attempts_run < attempts:
            rng.uniform_ints(0, cap - 1, attempts - attempts_run)
        calls += CHECKS_PER_ITERATION * iterations + attempts_run
        widest = max(widest, cap)
    if found:
        # Every schedule leaves some attempt short of the cap, so every
        # search idles at its end.
        charge_stage(
            metrics,
            label,
            charge_checking,
            calls,
            attempts * (widest * CHECKS_PER_ITERATION + 1),
            IDLE_LABEL,
        )
    return found
