"""Distributed quantum counting — Theorem 4.2 and Corollary 4.3.

``Count(P)`` runs P-point phase estimation on the Grover iterate of f, with
every controlled iterate implemented through the network's Checking
procedure; the outcome law is sampled exactly (see
:mod:`repro.quantum.phase_estimation`), so Theorem 4.2's guarantee

    |t_f − t̃_f| < (2π/P)·√(t_f·|X|) + (π²/P²)·|X|  w.p. ≥ 8/π²  (P ≥ 4, t ≤ |X|/2)

holds by construction.  ``ApproxCount(c, α)`` instantiates P = ⌈4π/c⌉ on the
*doubled* domain (the proof's trick to lift the t ≤ |X|/2 hypothesis) and
boosts to confidence 1 − α by taking the median of O(log 1/α) runs, all
sampled as one column.  :func:`approx_count_stage` runs ApproxCount at many
nodes at once on one oracle (every candidate of QuantumAgreement): all
their runs are one column, and the stage bills once per label.
"""

from __future__ import annotations

import functools
import math
import statistics
from dataclasses import dataclass

from repro.core.parallel import charge_stage
from repro.core.procedures import SearchOracle
from repro.network.metrics import MetricsRecorder
from repro.quantum.phase_estimation import (
    sample_counting_estimate,
    sample_counting_estimates,
)
from repro.util.rng import RandomSource

__all__ = [
    "ApproxCountResult",
    "CountResult",
    "approx_count",
    "approx_count_stage",
    "quantum_count",
]

#: Coherent Checking invocations per controlled-Grover step (compute+uncompute).
CHECKS_PER_STEP = 2

#: Per-run success probability of Count(P) — Theorem 4.2.
COUNT_SUCCESS_FLOOR = 8.0 / math.pi**2


@dataclass
class CountResult:
    """Outcome of one Count(P) invocation."""

    estimate: float
    steps: int
    checking_calls: int


@dataclass
class ApproxCountResult:
    """Outcome of ApproxCount(c, α): median-boosted counting."""

    estimate: float
    runs: int
    steps_per_run: int
    checking_calls: int


def quantum_count(
    oracle: SearchOracle,
    steps: int,
    metrics: MetricsRecorder,
    rng: RandomSource,
    domain_size: int | None = None,
    true_count: int | None = None,
) -> CountResult:
    """Count(P): one phase-estimation run with P = ``steps`` Grover iterates.

    ``domain_size``/``true_count`` override the oracle's values, as in
    :func:`approx_count`'s doubled-domain construction.
    """
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    N = oracle.domain_size if domain_size is None else domain_size
    t = oracle.marked_count() if true_count is None else true_count

    checking_calls = steps * CHECKS_PER_STEP
    oracle.charge_checking(metrics, checking_calls)

    estimate = sample_counting_estimate(t, N, steps, rng)
    return CountResult(estimate=estimate, steps=steps, checking_calls=checking_calls)


@functools.lru_cache(maxsize=256)
def runs_for_confidence(alpha: float) -> int:
    """Median-boosting run count, via the exact binomial tail.

    The median of r runs is bad only if ≥ ⌈r/2⌉ runs individually miss,
    each with probability q = 1 − 8/π² ≈ 0.189; the smallest odd r with
    P[Bin(r, q) ≥ ⌈r/2⌉] ≤ α is returned (Hoeffding would overshoot by ~3×).
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    miss = 1.0 - COUNT_SUCCESS_FLOOR
    r = 1
    while r < 10_000:
        threshold = (r + 1) // 2
        tail = sum(
            math.comb(r, j) * miss**j * (1.0 - miss) ** (r - j)
            for j in range(threshold, r + 1)
        )
        if tail <= alpha:
            return r
        r += 2  # keep r odd so the median is a single run
    return r


def _schedule(accuracy: float, alpha: float) -> tuple[int, int]:
    """(P, runs) of ApproxCount(c, α): P = ⌈4π/c⌉ steps per run."""
    if not 0.0 < accuracy <= 1.0:
        raise ValueError(f"accuracy must be in (0, 1], got {accuracy}")
    return max(4, math.ceil(4.0 * math.pi / accuracy)), runs_for_confidence(alpha)


def approx_count(
    oracle: SearchOracle,
    accuracy: float,
    alpha: float,
    metrics: MetricsRecorder,
    rng: RandomSource,
) -> ApproxCountResult:
    """ApproxCount(c, α): estimate t_f within c·|X| with probability ≥ 1 − α.

    Corollary 4.3: O(log(1/α)·M_C/c) messages and O(log(1/α)·T_C/c) rounds.
    The doubled-domain function g on [2N] (g ≡ f on [N], 0 elsewhere) has
    t_g = t_f ≤ N = |[2N]|/2, so Theorem 4.2 applies.  The proof's P = 8π/c
    is loose: with P = ⌈4π/c⌉ the Theorem 4.2 radius is
    (c/2)·√(2·t·N) + (c²/16)·2N ≤ (√2/2 + c/8)·c·N < c·N = c·|X| for c ≤ 1,
    so the corollary's guarantee survives with half the messages.
    """
    steps, runs = _schedule(accuracy, alpha)

    # Every run bills its own coherent Checking calls, as Count(P) does:
    # one charge covers them all.
    checking_calls = steps * CHECKS_PER_STEP
    oracle.charge_checking(metrics, runs * checking_calls)
    estimates = sample_counting_estimates(
        oracle.marked_count(), 2 * oracle.domain_size, steps, rng, runs
    )

    return ApproxCountResult(
        estimate=float(statistics.median(estimates)),
        runs=runs,
        steps_per_run=steps,
        checking_calls=runs * checking_calls,
    )


def approx_count_stage(
    metrics: MetricsRecorder,
    label: str,
    oracle: SearchOracle,
    accuracy: float,
    alpha: float,
    rng: RandomSource,
    tasks: int,
) -> list[float]:
    """ApproxCount(c, α) of one oracle at ``tasks`` nodes at once.

    Returns each task's estimate, as ``tasks`` consecutive
    :func:`approx_count` calls would: their runs are consecutive draws, so
    one column of ``tasks``·runs runs holds them all.  The stage is charged
    once per label, its rounds (one task's runs) under ``label``.
    """
    steps, runs = _schedule(accuracy, alpha)
    if tasks < 1:
        return []
    checking_calls = steps * CHECKS_PER_STEP
    estimates = sample_counting_estimates(
        oracle.marked_count(), 2 * oracle.domain_size, steps, rng, tasks * runs
    )
    charge_stage(
        metrics,
        label,
        oracle.charge_checking,
        tasks * runs * checking_calls,
        runs * checking_calls,
    )
    return [
        float(statistics.median(row)) for row in estimates.reshape(tasks, runs).tolist()
    ]
