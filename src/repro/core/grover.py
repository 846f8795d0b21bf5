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
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.procedures import SearchOracle
from repro.network.metrics import MetricsRecorder
from repro.quantum.amplitude import attempts_for_confidence, worst_case_iterations
from repro.quantum.grover_dynamics import sample_attempt
from repro.util.fault import FaultInjector
from repro.util.rng import RandomSource

__all__ = ["GroverSearchResult", "distributed_grover_search"]

#: Coherent Checking invocations per Grover iteration (compute + uncompute).
CHECKS_PER_ITERATION = 2


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
    marked_fraction = oracle.marked_fraction()

    # Probe the per-call round cost so the skipped (identity) part of the
    # schedule can still advance rounds deterministically.
    probe = MetricsRecorder()
    oracle.charge_checking(probe, 1)
    rounds_per_call = probe.rounds

    schedule_calls = attempts * (iteration_cap * CHECKS_PER_ITERATION + 1)
    charged_calls = 0
    iterations_run = 0

    found = None
    attempts_run = 0
    while found is None and attempts_run < attempts:
        attempts_run += 1
        iterations = rng.uniform_int(0, iteration_cap - 1)
        # u initiates this attempt: j iterations of S_f (two coherent
        # Checking calls each) plus one classical verification.
        calls = iterations * CHECKS_PER_ITERATION + 1
        oracle.charge_checking(metrics, calls)
        charged_calls += calls
        iterations_run += iterations
        outcome = sample_attempt(
            marked_fraction, iterations, rng, faults=faults, fault_site=fault_site
        )
        if outcome.measured_marked and oracle.marked_count() > 0:
            found = oracle.sample_marked(rng)
    # After a verified success u goes silent; the network's remaining
    # schedule is the identity transformation (no messages), but the
    # synchronized rounds still elapse.  The idle attempts still draw their
    # iteration counts, as one column, so the stream ends where the full
    # schedule leaves it.
    rng.uniform_ints(0, iteration_cap - 1, attempts - attempts_run)

    skipped_calls = schedule_calls - charged_calls
    if skipped_calls > 0 and rounds_per_call > 0:
        metrics.advance_rounds("grover.synchronized-idle", skipped_calls * rounds_per_call)

    return GroverSearchResult(
        found=found,
        attempts=attempts,
        iterations_charged=iterations_run,
        checking_calls=charged_calls,
    )
