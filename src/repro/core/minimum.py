"""Distributed Dürr–Høyer quantum minimum finding.

Section 5.4 notes that QuantumGeneralLE "generalizes straightforwardly to the
minimum spanning tree (MST) problem with the same complexities".  The missing
ingredient is finding the *minimum-weight* outgoing edge instead of an
arbitrary one, which is the classic Dürr–Høyer minimum-finding algorithm: a
sequence of Grover searches for "an element below the current threshold",
with expected total cost O(√N) oracle queries.

Distributed here exactly like Theorem 4.1: every coherent threshold-oracle
call is a Checking invocation of cost (T_C, M_C).

Simulation.  One threshold loop serves every search.  Its state is the
number of domain elements below the current threshold; a hit moves the
threshold to a uniform element below it.  :func:`quantum_minimum` runs the
loop on a :class:`MinimumOracle`; :func:`minimum_stage` runs it at many
nodes at once (every node of QuantumMST) on elements pre-sorted by value,
where the count below an element is its rank and a hit draws the new rank
uniformly below the old one.  The stage bills once per label: messages add
over the searches, rounds advance once by the longest schedule.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass

from repro.core.parallel import charge_stage
from repro.core.procedures import ChargeHook
from repro.network.metrics import MetricsRecorder
from repro.quantum.amplitude import (
    attempts_for_confidence,
    grover_angle,
    worst_case_iterations,
)
from repro.util.fault import FaultInjector
from repro.util.rng import RandomSource

__all__ = ["MinimumOracle", "MinimumResult", "minimum_stage", "quantum_minimum"]

#: Coherent Checking invocations per Grover iteration (compute + uncompute).
CHECKS_PER_ITERATION = 2

#: Budget multiplier from [DH96]: expected iterations ≤ 22.5·√N.
DURR_HOYER_BUDGET = 22.5

#: Where a search's unspent budget advances its rounds.
IDLE_LABEL = "minimum.synchronized-idle"


@dataclass
class MinimumOracle:
    """Value structure over a domain of size ``domain_size``.

    ``count_below(v)``: number of domain elements with value strictly below v
    (None means "no threshold yet": the whole domain counts).
    ``sample_below(v, rng)``: a uniform element with value strictly below v.
    ``value_of(x)``: the comparable value of element x.
    ``charge_checking(metrics, calls)``: CONGEST cost of coherent calls.
    """

    domain_size: int
    count_below: Callable[[object], int]
    sample_below: Callable[[object, RandomSource], object]
    value_of: Callable[[object], object]
    charge_checking: Callable[[MetricsRecorder, int], None]


@dataclass
class MinimumResult:
    """Outcome of distributed minimum finding."""

    minimizer: object | None
    value: object | None
    grover_iterations: int
    checking_calls: int

    @property
    def succeeded(self) -> bool:
        return self.minimizer is not None


def _budget(domain: int, boost: int) -> int:
    """⌈22.5·√N⌉·``boost`` Grover iterations, ``boost`` = ⌈log_{4/3}(1/α)⌉."""
    return math.ceil(DURR_HOYER_BUDGET * math.sqrt(domain)) * boost


def _threshold_loop(
    generator,
    domain: int,
    budget: int,
    below: int,
    descend: Callable[[int], int],
    faults: FaultInjector | None,
    fault_site: str,
) -> tuple[int, int]:
    """The Dürr–Høyer loop: (iterations spent, count below the final element).

    ``below`` counts the elements under the current threshold.  Each
    attempt draws j with ``generator.integers(0, cap)`` and, unless a
    forced false negative takes it, one ``generator.random()`` below
    sin²((2j+1)θ) with sin²θ = below/N is a hit; ``descend(below)`` then
    draws the new threshold element and returns its own count below.
    """
    integers, uniform, sin = generator.integers, generator.random, math.sin
    spent = 0
    iteration_cap_base = 1
    while spent < budget and below:
        fraction = below / domain
        cap = min(
            worst_case_iterations(max(fraction, 1.0 / domain)),
            max(1, budget - spent),
        )
        cap = max(cap, iteration_cap_base)
        iterations = int(integers(0, cap))
        spent += max(iterations, 1)
        if faults is not None and faults.should_fail(fault_site):
            hit = False
        else:
            hit = uniform() < sin((2 * iterations + 1) * grover_angle(fraction)) ** 2
        if hit:
            below = descend(below)
            iteration_cap_base = 1
        else:
            # BBHT-style cap growth after a miss.
            iteration_cap_base = min(2 * iteration_cap_base, cap + 1)
    return spent, below


def _charged_calls(spent: int, budget: int) -> tuple[int, int]:
    """(Checking calls u initiates, idle calls of the synchronized schedule).

    Messages accrue only for iterations the node actually initiated (the
    Dürr–Høyer loop is adaptive); the round schedule runs to the full
    budget regardless.
    """
    return (
        max(1, spent) * CHECKS_PER_ITERATION,
        (budget - spent) * CHECKS_PER_ITERATION,
    )


def quantum_minimum(
    oracle: MinimumOracle,
    alpha: float,
    metrics: MetricsRecorder,
    rng: RandomSource,
    faults: FaultInjector | None = None,
    fault_site: str = "minimum.false_negative",
) -> MinimumResult:
    """Find a minimizer of ``value_of`` over the domain, w.p. ≥ 1 − α.

    Runs the Dürr–Høyer threshold loop with a total Grover-iteration budget
    of ⌈22.5·√N·log(1/α)⌉; the whole budget is charged up front (the network
    assists for the synchronized worst case, as in Theorem 4.1).
    """
    if oracle.domain_size < 1:
        raise ValueError(f"domain must be non-empty, got {oracle.domain_size}")
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")

    budget = _budget(oracle.domain_size, attempts_for_confidence(alpha))
    # Start from a uniformly random element (threshold = its value).
    current = oracle.sample_below(None, rng)
    current_value = oracle.value_of(current)

    def descend(below: int) -> int:
        nonlocal current, current_value
        current = oracle.sample_below(current_value, rng)
        current_value = oracle.value_of(current)
        return oracle.count_below(current_value)

    spent, _ = _threshold_loop(
        rng.generator,
        oracle.domain_size,
        budget,
        oracle.count_below(current_value),
        descend,
        faults,
        fault_site,
    )

    checking_calls, idle = _charged_calls(spent, budget)
    oracle.charge_checking(metrics, checking_calls)
    if idle > 0:
        probe = MetricsRecorder()
        oracle.charge_checking(probe, 1)
        if probe.rounds > 0:
            metrics.advance_rounds(IDLE_LABEL, idle * probe.rounds)

    return MinimumResult(
        minimizer=current,
        value=current_value,
        grover_iterations=spent,
        checking_calls=checking_calls,
    )


def minimum_stage(
    metrics: MetricsRecorder,
    label: str,
    searches: Iterable[tuple[Sequence, int]],
    alpha: float,
    charge_checking: ChargeHook,
    rng: RandomSource,
    faults: FaultInjector | None = None,
    fault_site: str = "minimum.false_negative",
) -> list[object | None]:
    """Dürr–Høyer minimum finding at many nodes at once, one per task.

    A task is ``(ranked, N)``: the elements it may pick, sorted by distinct
    values, and the size of the domain it searches.  The search starts from
    a uniform element of ``ranked``, as ``sample_below(None, rng)`` does.
    Returns each task's minimizer, or None for a task with nothing to
    rank (it runs no search and charges nothing).  The stage is charged
    once per label, its rounds under ``label``.
    """
    boost = attempts_for_confidence(alpha)
    generator = rng.generator
    integers = generator.integers

    def descend(rank: int) -> int:
        return int(integers(0, rank))

    found: list[object | None] = []
    calls = longest = 0
    idled = False
    for ranked, domain in searches:
        if len(ranked) == 0:
            found.append(None)
            continue
        budget = _budget(domain, boost)
        spent, rank = _threshold_loop(
            generator,
            domain,
            budget,
            rng.uniform_int(0, len(ranked) - 1),
            descend,
            faults,
            fault_site,
        )
        found.append(ranked[rank])
        checking_calls, idle = _charged_calls(spent, budget)
        calls += checking_calls
        longest = max(longest, checking_calls + max(idle, 0))
        idled = idled or idle > 0
    if calls:
        charge_stage(
            metrics,
            label,
            charge_checking,
            calls,
            longest,
            IDLE_LABEL if idled else None,
        )
    return found
