"""Input-schedule adversaries for agreement protocols.

The agreement protocols of Section 6 take an initial 0/1 assignment; their
interesting guarantees are against an adversary that picks the *worst*
assignment (the shared coin is oblivious to it).  This module materializes
that adversary: given the benign default (a prefix of ones sized by
``fraction``), a spec's ``input_schedule`` re-arranges the assignment and
``flip_fraction`` flips adversary-chosen bits afterwards.

Schedules:

* ``"blocks"`` — the benign default: ``int(fraction*n)`` leading ones;
* ``"spread"`` — the same number of ones spread evenly over the nodes
  (defeats position-based sampling heuristics);
* ``"tie"``    — the worst case: exactly ``ceil(n/2)`` ones regardless of
  ``fraction``, maximizing estimation variance near the decision threshold;
* ``"shuffle"`` — the benign counts at adversary-chosen positions.

Only ``"shuffle"`` and ``flip_fraction`` consume adversary randomness.
"""

from __future__ import annotations

from repro.adversary.spec import AdversarySpec
from repro.util.rng import RandomSource

__all__ = ["adversarial_inputs", "benign_inputs"]


def _check_fraction(fraction: float) -> None:
    # Outside [0, 1], int(fraction * n) is no count of ones out of n.
    if not 0.0 <= fraction <= 1.0:
        raise ValueError(f"fraction must be in [0, 1], got {fraction!r}")


def benign_inputs(n: int, fraction: float) -> list[int]:
    """The library-wide benign convention: int(fraction*n) leading ones."""
    _check_fraction(fraction)
    ones = int(fraction * n)
    return [1] * ones + [0] * (n - ones)


def adversarial_inputs(
    n: int,
    fraction: float,
    spec: AdversarySpec | None,
    trial_rng: RandomSource,
    *,
    engine_capable: bool = False,
) -> list[int]:
    """The 0/1 input vector after the spec's input adversary acted.

    With no spec (or no input faults armed) this is exactly
    :func:`benign_inputs`.  Message/crash/adaptive faults in the spec are
    rejected here unless ``engine_capable`` is set: analytic agreement
    protocols do not run on the synchronous engine, so an engine-fault
    spec routed at them would be silently meaningless.  Engine-driven
    agreement builders (which arm the same spec on their engine) pass
    ``engine_capable=True`` so a combined input+fault spec flows through.
    """
    _check_fraction(fraction)
    if spec is None or spec.is_null:
        return benign_inputs(n, fraction)
    unsupported = spec.required_capabilities() - {"inputs"}
    if engine_capable:
        unsupported -= {"faults", "adaptive"}
    if unsupported:
        raise ValueError(
            f"agreement protocols only support the input adversary; spec "
            f"{spec.describe()!r} also needs {sorted(unsupported)}"
        )
    if not spec.has_input_faults:
        return benign_inputs(n, fraction)
    schedule = spec.input_schedule or "blocks"
    ones = int(fraction * n)
    if schedule == "blocks":
        inputs = benign_inputs(n, fraction)
    elif schedule == "spread":
        inputs = [0] * n
        for j in range(ones):
            inputs[(j * n) // ones] = 1
    elif schedule == "tie":
        ones = (n + 1) // 2
        inputs = [1] * ones + [0] * (n - ones)
    elif schedule == "shuffle":
        inputs = benign_inputs(n, fraction)
    else:  # pragma: no cover - spec validation rejects unknown names
        raise ValueError(f"unknown input schedule {schedule!r}")
    needs_rng = schedule == "shuffle" or spec.flip_fraction > 0
    if needs_rng:
        rng = spec.derive_rng(trial_rng)
        if schedule == "shuffle":
            inputs = rng.shuffled(inputs)
        if spec.flip_fraction > 0:
            flips = min(n, round(spec.flip_fraction * n))
            if flips:
                for index in rng.sample_without_replacement(n, flips).tolist():
                    inputs[index] ^= 1
    return inputs
