"""Exact distributed Grover search on the quantum routing model.

This module closes the fidelity loop of the whole library: it executes the
distributed Grover search of Theorem 4.1 as a *genuine unitary simulation*
on the Appendix-A routing model — superposed recipient registers, Send
operators, phase kickback at the leaves, uncomputation, diffusion — with no
amplitude-level shortcuts.  Tests verify that its measurement statistics
match the closed-form law (`sin²((2j+1)θ)`) that the scalable simulator
(:mod:`repro.quantum.grover_dynamics`) samples from.

Scenario (the star-graph Searching example of Appendix B.2): the centre of a
star holds a query register over its deg(v) ports; each leaf j holds a bit
b_j.  One S_f application is four routed steps:

1. centre control-writes a probe symbol into the emission register selected
   by the (superposed) query register;
2. global Send delivers the probes;
3. each leaf with b_j = 1 applies a phase flip to its non-vacuum reception
   register (the phase-kickback form of Checking — the reply needs no extra
   round because the phase travels back with the uncomputation);
4. the centre uncomputes the probe (controlled write is an involution after
   Send⁻¹ returns the registers).

Costs are charged through the same MetricsRecorder contract as everywhere
else: one coherent Checking = 2 messages (probe out, probe back), 2 rounds.

Dense simulation is exponential in the number of leaves, so this is a
validation instrument for ≤ 4 leaves, not a production path: 5 leaves
already need 5,242,880 amplitudes, past the dense state's 2²² cap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.network.metrics import MetricsRecorder
from repro.network.topology import StarTopology
from repro.quantum.gates import phase_flip_on, state_preparation
from repro.quantum.routing import VACUUM, QuantumRoutingNetwork
from repro.util.rng import RandomSource

__all__ = ["ExactGroverRun", "exact_star_grover"]

#: The probe symbol written into port registers (alphabet of size 1).
PROBE = 1


@dataclass
class ExactGroverRun:
    """Outcome of one exact routed Grover execution."""

    measured_leaf: int  # leaf index in 1..n_leaves
    measured_marked: bool
    iterations: int
    theory_probability: float  # the sin²((2j+1)θ) prediction
    messages: int
    rounds: int


class _RoutedGrover:
    """Unitary machinery for Grover on a star via routed port registers."""

    def __init__(self, leaf_bits: list[int]):
        if not 1 <= len(leaf_bits) <= 4:
            raise ValueError(
                f"dense routed simulation supports 1..4 leaves, got {len(leaf_bits)}"
            )
        if any(b not in (0, 1) for b in leaf_bits):
            raise ValueError("leaf bits must be 0/1")
        self.leaf_bits = leaf_bits
        self.leaves = len(leaf_bits)
        self.star = StarTopology(self.leaves + 1)
        self.network = QuantumRoutingNetwork(self.star, alphabet_size=1)
        self.network.allocate_local(0, "query", max(self.leaves, 2))
        self.network.build()
        self._prepare_uniform_query()

    # -- circuit pieces --------------------------------------------------------

    def _prepare_uniform_query(self) -> None:
        amplitude = 1.0 / math.sqrt(self.leaves)
        vector = np.zeros(self.network.state.dims[self.network.local(0, "query")])
        vector = vector.astype(complex)
        vector[: self.leaves] = amplitude
        self.network.state.apply(
            state_preparation(vector), [self.network.local(0, "query")]
        )

    def _controlled_probe(self) -> None:
        """Write (or uncompute) the probe into the query-selected port."""
        self.network.write_message_controlled(0, "query", PROBE)

    def _leaf_phase_flips(self) -> None:
        for leaf in range(1, self.leaves + 1):
            if self.leaf_bits[leaf - 1] == 1:
                register = self.network.reception(leaf, 0)
                self.network.state.apply(
                    phase_flip_on(self.network.register_dim, {PROBE}), [register]
                )

    def _send(self) -> None:
        self.network.send_all()  # Send is an involution on the swapped pairs

    def apply_oracle(self, metrics: MetricsRecorder) -> None:
        """One S_f: probe out, phase kick at the leaves, probe back."""
        self._controlled_probe()
        self._send()
        self._leaf_phase_flips()
        self._send()  # return trip: Send swaps the registers back
        self._controlled_probe()  # uncompute the probe
        metrics.charge("exact-grover.checking", messages=2, rounds=2)

    def apply_diffusion(self) -> None:
        """Reflection about the uniform query state (local to the centre)."""
        dim = self.network.state.dims[self.network.local(0, "query")]
        uniform = np.zeros(dim, dtype=complex)
        uniform[: self.leaves] = 1.0 / math.sqrt(self.leaves)
        reflection = 2.0 * np.outer(uniform, uniform.conj()) - np.eye(dim)
        self.network.state.apply(reflection, [self.network.local(0, "query")])

    def measure_query(self, rng: RandomSource) -> int:
        return self.network.state.measure(self.network.local(0, "query"), rng)

    def ports_all_vacuum(self) -> bool:
        """True when every port register is back in |⊥⟩ (catalyst property)."""
        for u, v in self.star.edges():
            for a, b in ((u, v), (v, u)):
                emission = self.network.state.marginal([self.network.emission(a, b)])
                reception = self.network.state.marginal([self.network.reception(b, a)])
                if not (
                    math.isclose(float(emission[VACUUM]), 1.0, abs_tol=1e-9)
                    and math.isclose(float(reception[VACUUM]), 1.0, abs_tol=1e-9)
                ):
                    return False
        return True


def exact_star_grover(
    leaf_bits: list[int],
    iterations: int,
    rng: RandomSource,
    metrics: MetricsRecorder | None = None,
) -> ExactGroverRun:
    """Run j Grover iterations exactly on the routed star and measure.

    Returns the measured leaf (1-based), whether it is marked, and the
    closed-form success probability the measurement statistics must follow.
    """
    if iterations < 0:
        raise ValueError(f"iterations must be non-negative, got {iterations}")
    if metrics is None:
        metrics = MetricsRecorder()

    machine = _RoutedGrover(leaf_bits)
    for _ in range(iterations):
        machine.apply_oracle(metrics)
        machine.apply_diffusion()
        if not machine.ports_all_vacuum():
            raise RuntimeError(
                "port registers did not return to vacuum: the network state "
                "failed to act as a catalyst (proof of Theorem 4.1)"
            )

    port = machine.measure_query(rng)
    leaf = port + 1  # centre's port p connects to leaf p+1
    marked = machine.leaf_bits[port] == 1

    marked_fraction = sum(leaf_bits) / len(leaf_bits)
    theta = math.asin(math.sqrt(marked_fraction))
    theory = math.sin((2 * iterations + 1) * theta) ** 2

    return ExactGroverRun(
        measured_leaf=leaf,
        measured_marked=marked,
        iterations=iterations,
        theory_probability=theory,
        messages=metrics.messages,
        rounds=metrics.rounds,
    )
