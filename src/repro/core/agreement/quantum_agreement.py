"""QuantumAgreement — Algorithm 4: implicit agreement in complete networks.

Assumes a *global shared coin* (oblivious to the input adversary), as in
[AMP18].  Two phases:

* **estimation** — each candidate runs ApproxCount(ε, 1/(2n²)) to estimate
  the fraction q of 1-inputs within ±ε (quantum counting: Õ(1/ε) messages,
  quadratically better than the classical Θ(1/ε²) sampling bound);
* **agreement loop** — per iteration, candidates draw a shared r ∈ [0, 1];
  a candidate is *undecided* when |q(v) − r| ≤ ε and otherwise decides
  0 (q(v) < r − ε) or 1 (q(v) > r + ε).  Decided candidates inform
  Θ(n^{1/3−γ}) nodes classically; undecided candidates detect the existence
  of an informed node via GroverSearch(n^{−2/3−γ}, 1/(4n³)) — quadratically
  better than classical sampling detection.

All candidate estimates agree within 2ε, so with probability ≥ 1 − 4ε per
iteration the shared r misses the strip and *every* candidate decides the
same value (Lemmas 6.2, 6.5).  Theorem 6.7: Õ(1/ε + n^{1/3−γ} + ε·n^{1/3+γ/2})
expected messages; ε = n^{−1/5}, γ = 2/15 gives Corollary 6.8's Õ(n^{1/5}),
beating the classical Õ(n^{2/5}).
"""

from __future__ import annotations

import math

from repro.core.candidates import draw_candidates
from repro.core.counting import approx_count_stage
from repro.core.grover import grover_stage
from repro.core.procedures import CountOracle, uniform_charge
from repro.core.results import AgreementResult
from repro.network.metrics import MetricsRecorder
from repro.util.fault import FaultInjector
from repro.util.rng import RandomSource, SharedCoin

__all__ = ["default_epsilon", "default_gamma", "quantum_agreement"]

#: Corollary 6.8's optimizing exponents.
EPSILON_EXPONENT = 1.0 / 5.0
DEFAULT_GAMMA = 2.0 / 15.0

#: Checking cost for both oracles (g and h): probe + reply.
CHECKING_MESSAGES = 2
CHECKING_ROUNDS = 2


def default_epsilon(n: int) -> float:
    """ε = n^{−1/5}, clamped to the paper's admissible range [Θ(1/n), 1/20]."""
    return float(min(1.0 / 20.0, max(1.0 / n, n**-EPSILON_EXPONENT)))


def default_gamma() -> float:
    return DEFAULT_GAMMA


def quantum_agreement(
    inputs: list[int],
    rng: RandomSource,
    shared_coin: SharedCoin | None = None,
    epsilon: float | None = None,
    gamma: float | None = None,
    estimation_alpha: float | None = None,
    detection_alpha: float | None = None,
    faults: FaultInjector | None = None,
) -> AgreementResult:
    """Run QuantumAgreement on K_n with the given 0/1 ``inputs``.

    ``shared_coin`` defaults to a fresh coin spawned from ``rng`` — in the
    model it is a resource all nodes share and the adversary cannot see.
    """
    n = len(inputs)
    if n < 2:
        raise ValueError(f"need n >= 2 nodes, got {n}")
    if any(b not in (0, 1) for b in inputs):
        raise ValueError("inputs must be 0/1")
    if epsilon is None:
        epsilon = default_epsilon(n)
    if not 0.0 < epsilon <= 0.05 + 1e-12:
        raise ValueError(f"epsilon must be in (0, 1/20], got {epsilon}")
    if gamma is None:
        gamma = default_gamma()
    if not 0.0 <= gamma <= 1.0 / 3.0:
        raise ValueError(f"gamma must be in [0, 1/3], got {gamma}")
    if estimation_alpha is None:
        estimation_alpha = 1.0 / (2.0 * n**2)
    if detection_alpha is None:
        detection_alpha = 1.0 / (4.0 * n**3)
    if shared_coin is None:
        shared_coin = SharedCoin(rng.spawn())

    metrics = MetricsRecorder()
    ones = sum(inputs)
    input_map = {v: inputs[v] for v in range(n)}
    decisions: dict[int, int | None] = {v: None for v in range(n)}

    # -- candidates ---------------------------------------------------------------
    draw = draw_candidates(n, rng, faults=faults)
    metrics.advance_rounds("agreement.candidate-selection", 1)
    if not draw.candidates:
        return AgreementResult(
            n=n, inputs=input_map, decisions=decisions, metrics=metrics,
            meta={"candidates": 0, "epsilon": epsilon, "gamma": gamma},
        )

    # -- estimation phase ------------------------------------------------------------
    ones_oracle = CountOracle(
        domain_size=n,
        marked=ones,
        charge_checking=uniform_charge(
            CHECKING_MESSAGES, CHECKING_ROUNDS, "agreement.counting.checking"
        ),
        sample_marked_fn=lambda r: None,
    )

    estimates = approx_count_stage(
        metrics,
        "agreement.estimation",
        ones_oracle,
        epsilon,
        estimation_alpha,
        rng,
        len(draw.candidates),
    )
    q_estimate = {
        v: min(1.0, max(0.0, estimate / n))
        for v, estimate in zip(draw.candidates, estimates)
    }

    # -- agreement loop ----------------------------------------------------------------
    # ℓ = O(log n): (4ε)^ℓ ≤ 1/(4n) with ε ≤ 1/20 (Lemma 6.6).
    iterations = max(1, math.ceil(math.log(4.0 * n) / math.log(5.0)))
    inform_width = max(1, round(n ** (1.0 / 3.0 - gamma)))
    # ε₂ = n^{−2/3−γ}; the guarantee is ε_f ≥ inform_width/n, so cap at that
    # in case integer rounding pulled inform_width slightly below n^{1/3−γ}.
    detection_epsilon = min(n ** (-2.0 / 3.0 - gamma), inform_width / n)

    remaining = list(draw.candidates)
    iterations_used = 0
    for _ in range(iterations):
        if not remaining:
            break
        iterations_used += 1
        r = shared_coin.next_uniform()

        decided_now: dict[int, int] = {}
        undecided_now: list[int] = []
        for v in remaining:
            estimate = q_estimate[v]
            if estimate < r - epsilon:
                decided_now[v] = 0
            elif estimate > r + epsilon:
                decided_now[v] = 1
            else:
                undecided_now.append(v)

        # Classical part: decided candidates inform Θ(n^{1/3−γ}) neighbours.
        # ``informed`` maps each informed node to the value it received (the
        # last writer wins; under Est all writers agree — Lemma 6.5).
        informed: dict[int, int] = {}
        for v, value in decided_now.items():
            for offset in range(1, inform_width + 1):
                informed[(v + offset) % n] = value
        metrics.charge(
            "agreement.inform",
            messages=len(decided_now) * inform_width,
            rounds=1,
        )

        # Quantum part: undecided candidates Grover-search for an informed node.
        informed_list = sorted(informed)

        detections = grover_stage(
            metrics,
            "agreement.detection",
            (
                (len(informed_list) / n, len(informed_list), detection_epsilon)
                for _ in undecided_now
            ),
            detection_alpha,
            uniform_charge(
                CHECKING_MESSAGES, CHECKING_ROUNDS, "agreement.detect.checking"
            ),
            rng,
            faults=faults,
            fault_site="agreement.detect.false_negative",
        )

        # Terminations.
        next_remaining: list[int] = []
        for v, value in decided_now.items():
            decisions[v] = value  # decided candidates terminate with their value
        for v, index in zip(undecided_now, detections):
            if index is not None:
                # v learns the value held by the informed node it found.
                decisions[v] = informed[informed_list[index]]
            else:
                next_remaining.append(v)
        remaining = next_remaining

    return AgreementResult(
        n=n,
        inputs=input_map,
        decisions=decisions,
        metrics=metrics,
        meta={
            "candidates": draw.count,
            "epsilon": epsilon,
            "gamma": gamma,
            "iterations": iterations_used,
            "iteration_budget": iterations,
            "undecided_at_end": len(remaining),
            "true_fraction": ones / n,
        },
    )
