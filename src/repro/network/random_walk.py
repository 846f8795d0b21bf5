"""Random walks, stationary measures, spectral gaps and mixing times.

QuantumRWLE (Section 5.2) assumes nodes know (an upper bound on) the network's
mixing time τ.  This module provides:

* column walk simulation — every walk of a phase advances together, one
  array step per hop (the referee and query walks),
* exact t-step distributions via sparse matrix-vector products (used to
  compute the exact marked fraction ε_f seen by the Grover phase),
* spectral-gap and mixing-time estimation for the lazy walk.

We use the *lazy* walk P = (I + D⁻¹A)/2 throughout so that periodicity (e.g.
on bipartite graphs like the hypercube) never spoils convergence.
"""

from __future__ import annotations

import math
from collections.abc import Collection, Sequence
from typing import TYPE_CHECKING

import numpy as np

from repro.network.graphs import as_explicit
from repro.network.topology import ExplicitTopology, Topology
from repro.util.rng import RandomSource

if TYPE_CHECKING:
    import scipy.sparse as sp

__all__ = [
    "RandomWalk",
    "estimate_mixing_time",
    "lazy_transition_matrix",
    "spectral_gap",
    "stationary_distribution",
]


def lazy_transition_matrix(topology: Topology) -> sp.csr_matrix:
    """Row-stochastic lazy transition matrix P = (I + D⁻¹A)/2."""
    import scipy.sparse as sp  # deferred: see repro.network.deferred

    explicit = as_explicit(topology)
    n = explicit.n
    rows, cols, values = [], [], []
    for v in range(n):
        neighbours = explicit.adjacency_list(v)
        degree = len(neighbours)
        if degree == 0:
            raise ValueError(f"node {v} is isolated; walks undefined")
        rows.append(v)
        cols.append(v)
        values.append(0.5)
        weight = 0.5 / degree
        for u in neighbours:
            rows.append(v)
            cols.append(u)
            values.append(weight)
    return sp.csr_matrix((values, (rows, cols)), shape=(n, n))


def stationary_distribution(topology: Topology) -> np.ndarray:
    """π(v) = deg(v) / 2m — stationary for both the simple and lazy walks."""
    degrees = np.array([topology.degree(v) for v in topology.nodes()], dtype=float)
    return degrees / degrees.sum()


def spectral_gap(topology: Topology) -> float:
    """Spectral gap 1 - λ₂ of the lazy walk (λ₂ = second-largest eigenvalue).

    Uses the symmetric normalized form D^{1/2} P D^{-1/2} so that ``eigsh``
    applies.  All lazy-walk eigenvalues lie in [0, 1], so the gap is positive
    for connected graphs.
    """
    import scipy.sparse as sp  # deferred: see repro.network.deferred

    explicit = as_explicit(topology)
    n = explicit.n
    transition = lazy_transition_matrix(explicit)
    degrees = np.array([explicit.degree(v) for v in range(n)], dtype=float)
    scale = np.sqrt(degrees)
    symmetric = sp.diags(scale) @ transition @ sp.diags(1.0 / scale)
    symmetric = (symmetric + symmetric.T) / 2.0
    if n <= 256:
        eigenvalues = np.linalg.eigvalsh(symmetric.toarray())
        second = eigenvalues[-2]
    else:
        from scipy.sparse.linalg import eigsh  # deferred: see repro.network.deferred

        eigenvalues = eigsh(symmetric, k=2, which="LA", return_eigenvectors=False)
        second = np.sort(eigenvalues)[0]
    return float(max(1.0 - second, 1e-12))


def estimate_mixing_time(topology: Topology, accuracy: float | None = None) -> int:
    """Mixing-time estimate τ ≈ ln(n/accuracy·π_min) / gap for the lazy walk.

    This is the standard relaxation-time bound
    τ(δ) <= (1/gap)·ln(1/(δ·π_min)); protocols only need an upper bound on τ,
    which is exactly what the paper assumes nodes know.
    """
    n = topology.n
    if accuracy is None:
        accuracy = 1.0 / (4.0 * n)
    gap = spectral_gap(topology)
    pi_min = float(stationary_distribution(topology).min())
    tau = math.log(1.0 / (accuracy * pi_min)) / gap
    return max(1, math.ceil(tau))


class RandomWalk:
    """Simulation and exact analysis of lazy random walks on a topology."""

    def __init__(self, topology: Topology):
        self._topology = as_explicit(topology)
        self._ports = topology.port_table()
        self._transition: sp.csr_matrix | None = None

    @property
    def topology(self) -> ExplicitTopology:
        return self._topology

    def _matrix(self) -> sp.csr_matrix:
        if self._transition is None:
            self._transition = lazy_transition_matrix(self._topology)
        return self._transition

    # -- simulation ------------------------------------------------------------

    def endpoints(
        self, starts: Sequence[int] | np.ndarray, length: int, rng: RandomSource
    ) -> np.ndarray:
        """Endpoints of one ``length``-step lazy walk per entry of ``starts``.

        All walks advance together: each step draws one column of lazy
        coins (stay with probability ½) and, for the walks that move, one
        column of uniform ports, then routes them with one gather through
        the topology's cached port table.  ``starts`` is left unchanged.
        """
        positions = np.array(starts, dtype=np.int64)
        generator = rng.generator
        for _ in range(length):
            moving = np.flatnonzero(generator.random(positions.size) >= 0.5)
            here = positions[moving]
            ports = generator.integers(0, self._ports.degrees_of(here))
            positions[moving] = self._ports.receivers(here, ports)
        return positions

    def endpoint(self, start: int, length: int, rng: RandomSource) -> int:
        """Endpoint of a ``length``-step lazy walk from ``start``."""
        return int(self.endpoints([start], length, rng)[0])

    def choices_for_walk(self, length: int, rng: RandomSource) -> list[tuple[bool, float]]:
        """Pre-drawn random choices for a walk, as QuantumRWLE's initiator does.

        Each entry is (lazy?, fraction); the fraction indexes uniformly into
        the current node's neighbour list.  Pre-committing the choices is what
        lets the *centralized* Grover search treat a walk as a classical input
        x ∈ X (Section 5.2), at the cost of shipping Θ(τ log n) bits.
        """
        return [(rng.bernoulli(0.5), rng.uniform()) for _ in range(length)]

    def follow_choices(self, start: int, choices: list[tuple[bool, float]]) -> int:
        """Deterministically replay pre-drawn choices from ``start``."""
        position = start
        for lazy, fraction in choices:
            if lazy:
                continue
            neighbours = self._topology.adjacency_list(position)
            index = min(int(fraction * len(neighbours)), len(neighbours) - 1)
            position = int(neighbours[index])
        return position

    # -- exact analysis ----------------------------------------------------------

    def distribution_after(self, start: int, steps: int) -> np.ndarray:
        """Exact distribution of the walk position after ``steps`` steps."""
        state = np.zeros(self._topology.n)
        state[start] = 1.0
        transposed = self._matrix().T
        for _ in range(steps):
            state = transposed @ state
        return state

    def hit_probability(
        self, start: int, steps: int, targets: Collection[int]
    ) -> float:
        """P[walk endpoint ∈ targets] after exactly ``steps`` steps."""
        if not targets:
            return 0.0
        distribution = self.distribution_after(start, steps)
        return float(sum(distribution[t] for t in targets))
