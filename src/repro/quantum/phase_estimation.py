"""Exact outcome distribution of quantum counting (Theorem 4.2).

Quantum counting [BHT98a] runs phase estimation on the Grover iterate G.  On
the uniform starting state, G has eigenvalues e^{±2iθ} with sin²θ = t/N, and
the start state is an equal-weight mixture of the two eigenvectors.  P-point
phase estimation of an eigenphase ω (in turns) returns y ∈ {0, …, P−1} with
the exact Fejér-type kernel

    Pr[y] = | sin(πP(ω − y/P)) / (P·sin(π(ω − y/P))) |².

The count estimate is t̃ = N·sin²(πy/P), and the error bound of Theorem 4.2,

    |t − t̃| < (2π/P)·√(tN) + (π²/P²)·N   with probability ≥ 8/π²,

follows from this distribution — we sample from the true law, so the bound
holds here for the same reason it holds on a quantum computer.

Runs are sampled as a column: one ``generator.random`` call supplies every
run's eigenvector coin and outcome, and each outcome is read off a CDF
built once per (t, N, P, eigenvector) — the same CDF and the same
``searchsorted`` that ``Generator.choice(P, p=law)`` would apply to that
draw, so a column of r runs equals r one-run draws bit for bit.  Outcomes
decode through a table built once per (N, P) with
:func:`counting_estimate_from_outcome`, so every estimate is that
function's float.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from repro.util.rng import RandomSource

__all__ = [
    "counting_error_bound",
    "counting_estimate_from_outcome",
    "eigenphase_turns",
    "qpe_distribution",
    "sample_counting_estimate",
    "sample_counting_estimates",
]

#: ``Generator.choice``'s tolerance on the total mass of a law: √eps.
_MASS_TOLERANCE = math.sqrt(np.finfo(np.float64).eps)


def eigenphase_turns(t: int, N: int) -> float:
    """ω = θ/π ∈ [0, 1/2]: the Grover eigenphase in units of full turns."""
    if N < 1:
        raise ValueError(f"N must be >= 1, got {N}")
    if not 0 <= t <= N:
        raise ValueError(f"t must be in [0, {N}], got {t}")
    theta = math.asin(math.sqrt(t / N))
    return theta / math.pi


def qpe_distribution(omega: float, P: int) -> np.ndarray:
    """Exact P-point phase-estimation outcome distribution for phase ω.

    Entry y holds Pr[measure y] = |sin(πPδ_y) / (P sin(πδ_y))|² with
    δ_y = ω − y/P (taken modulo 1); when δ_y is an integer the kernel is 1.
    """
    if P < 1:
        raise ValueError(f"P must be >= 1, got {P}")
    y = np.arange(P)
    delta = omega - y / P
    # Wrap to the principal branch; the kernel is 1-periodic in delta.
    delta = delta - np.round(delta)
    with np.errstate(divide="ignore", invalid="ignore"):
        numerator = np.sin(np.pi * P * delta)
        denominator = P * np.sin(np.pi * delta)
        kernel = np.where(np.abs(denominator) < 1e-300, 1.0, numerator / denominator)
    probabilities = kernel**2
    # Guard against tiny float drift before sampling.
    total = probabilities.sum()
    if not math.isclose(total, 1.0, rel_tol=1e-9):
        probabilities = probabilities / total
    return probabilities


def counting_estimate_from_outcome(y: int, N: int, P: int) -> float:
    """t̃ = N·sin²(πy/P) — the count estimate decoded from outcome y."""
    return N * math.sin(math.pi * y / P) ** 2


@functools.lru_cache(maxsize=8)
def _outcome_cdf(t: int, N: int, P: int, conjugate: bool) -> np.ndarray:
    """Read-only CDF of the P-point outcome for one eigenvector of the
    count-t iterate.

    ``Generator.choice(P, p=law)`` maps a uniform draw u to
    ``cdf.searchsorted(u, side="right")`` through this same CDF, after the
    same checks: the law must be finite and non-negative, with total mass
    within √eps of 1.  Every run of an ApproxCount call, and every
    candidate of a QuantumAgreement trial, shares one (t, N, P), so a few
    entries suffice; each holds P floats.
    """
    omega = eigenphase_turns(t, N)
    if conjugate:
        omega = 1.0 - omega  # the e^{-2iθ} eigenvector
    law = qpe_distribution(omega, P)
    if not np.isfinite(law).all():
        raise ValueError("outcome probabilities must be finite")
    if (law < 0).any():
        raise ValueError("outcome probabilities must be non-negative")
    if abs(law.sum() - 1.0) > _MASS_TOLERANCE:
        raise ValueError(f"outcome probabilities sum to {law.sum()!r}, not 1")
    cdf = law.cumsum()
    cdf /= cdf[-1]
    cdf.flags.writeable = False  # every caller shares the cached array
    return cdf


@functools.lru_cache(maxsize=8)
def _estimate_table(N: int, P: int) -> np.ndarray:
    """Read-only t̃ of every outcome y ∈ {0, …, P−1}, for a count among N."""
    table = np.array([counting_estimate_from_outcome(y, N, P) for y in range(P)])
    table.flags.writeable = False  # every caller shares the cached array
    return table


def sample_counting_estimates(
    t: int,
    N: int,
    P: int,
    rng: RandomSource,
    runs: int,
) -> np.ndarray:
    """Sample ``runs`` independent quantum-counting estimates t̃, as a column.

    Each run's starting state splits half/half over the two conjugate
    eigenvectors (for 0 < t < N); the degenerate endpoints t = 0 and t = N
    have a single eigenphase.  One ``generator.random`` call draws
    2·``runs`` values when 0 < t < N (run i's eigenvector coin, then its
    outcome) and ``runs`` values otherwise — the stream ``runs`` one-run
    draws would consume.
    """
    if runs < 1:
        raise ValueError(f"runs must be >= 1, got {runs}")
    cdf = _outcome_cdf(t, N, P, False)
    if 0 < t < N:
        draws = rng.generator.random(2 * runs)
        conjugate, uniforms = draws[0::2] < 0.5, draws[1::2]
        outcomes = cdf.searchsorted(uniforms, side="right")
        if conjugate.any():
            outcomes[conjugate] = _outcome_cdf(t, N, P, True).searchsorted(
                uniforms[conjugate], side="right"
            )
    else:
        outcomes = cdf.searchsorted(rng.generator.random(runs), side="right")
    return _estimate_table(N, P)[outcomes]


def sample_counting_estimate(
    t: int,
    N: int,
    P: int,
    rng: RandomSource,
) -> float:
    """Sample one quantum-counting estimate t̃ of the true count t among N."""
    return float(sample_counting_estimates(t, N, P, rng, 1)[0])


def counting_error_bound(t: int, N: int, P: int) -> float:
    """Theorem 4.2's error radius: (2π/P)√(tN) + (π²/P²)N."""
    return (2.0 * math.pi / P) * math.sqrt(t * N) + (math.pi**2 / P**2) * N
