"""Random walks, stationary measures, spectral gaps and mixing times.

QuantumRWLE (Section 5.2) assumes nodes know (an upper bound on) the network's
mixing time τ.  This module provides:

* column walk simulation — every walk of a phase advances together, one
  array step per hop (the referee and query walks),
* exact t-step distributions as sparse block products — every start's
  distribution advances together, one ``Pᵀ @ block`` product per hop (used
  to compute the exact marked fraction ε_f seen by the Grover phase),
* spectral-gap and mixing-time estimation for the lazy walk.

We use the *lazy* walk P = (I + D⁻¹A)/2 throughout so that periodicity (e.g.
on bipartite graphs like the hypercube) never spoils convergence.  P and the
default-accuracy τ are memoized on the topology object, as
:meth:`~repro.network.topology.Topology.port_table` memoizes its table, so
every trial that shares a topology object builds them once.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Collection, Iterator, Sequence
from typing import TYPE_CHECKING, TypeVar

import numpy as np

from repro.network.graphs import as_explicit
from repro.network.topology import ExplicitTopology, Topology
from repro.util.rng import RandomSource

if TYPE_CHECKING:
    import scipy.sparse as sp

__all__ = [
    "BLOCK_BYTES",
    "RandomWalk",
    "estimate_mixing_time",
    "hit_mass",
    "lazy_transition_matrix",
    "spectral_gap",
    "stationary_distribution",
]

#: Walk state one column group of :meth:`RandomWalk.distributions_after` may
#: hold: its current and next (n × width) float64 blocks stay under this many
#: bytes, so memory does not grow with the number of starts.  On a 2-core
#: x86_64 host (scipy 1.17) the product's cost per column stops falling at
#: about 32 columns on Q_10 and Q_13; this budget gives Q_13 (n = 8,192)
#: groups of 32 columns and Q_10 groups of 256.
BLOCK_BYTES = 1 << 22

_T = TypeVar("_T")


def _memoized(topology: Topology, attribute: str, build: Callable[[Topology], _T]) -> _T:
    """``build(topology)``, computed once per topology object and kept on it.

    ``build`` is deterministic, so two threads racing here only build twice.
    """
    value = getattr(topology, attribute, None)
    if value is None:
        value = build(topology)
        setattr(topology, attribute, value)
    return value


def _degrees(topology: Topology) -> np.ndarray:
    """Every node's degree, read from the topology's cached port table."""
    return topology.port_table().degrees_of(np.arange(topology.n, dtype=np.int64))


def lazy_transition_matrix(topology: Topology) -> sp.csr_matrix:
    """Row-stochastic lazy transition matrix P = (I + D⁻¹A)/2.

    Read from the topology's cached port table with array operations, so
    implicit families never materialize adjacency lists.  Row v holds ½ on
    the diagonal and ½/deg(v) on each neighbour, columns ascending.
    """
    import scipy.sparse as sp  # deferred: see repro.network.deferred

    n = topology.n
    table = topology.port_table()
    nodes = np.arange(n, dtype=np.int64)
    degrees = table.degrees_of(nodes)
    isolated = np.flatnonzero(degrees == 0)
    if isolated.size:
        raise ValueError(f"node {int(isolated[0])} is isolated; walks undefined")
    senders = np.repeat(nodes, degrees)
    first_port = np.repeat(np.cumsum(degrees) - degrees, degrees)
    neighbours = table.receivers(senders, np.arange(senders.size) - first_port)
    rows = np.concatenate([nodes, senders])
    cols = np.concatenate([nodes, neighbours])
    values = np.concatenate([np.full(n, 0.5), 0.5 / degrees[senders]])
    order = np.lexsort((cols, rows))
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(degrees + 1, out=indptr[1:])
    return sp.csr_matrix((values[order], cols[order], indptr), shape=(n, n))


def _transition(topology: Topology) -> sp.csr_matrix:
    """P, built once per topology object (callers never mutate it)."""
    return _memoized(topology, "_lazy_transition_memo", lazy_transition_matrix)


def stationary_distribution(topology: Topology) -> np.ndarray:
    """π(v) = deg(v) / 2m — stationary for both the simple and lazy walks."""
    degrees = _degrees(topology).astype(float)
    return degrees / degrees.sum()


def spectral_gap(topology: Topology) -> float:
    """Spectral gap 1 - λ₂ of the lazy walk (λ₂ = second-largest eigenvalue).

    Uses the symmetric normalized form D^{1/2} P D^{-1/2} so that ``eigsh``
    applies.  All lazy-walk eigenvalues lie in [0, 1], so the gap is positive
    for connected graphs.
    """
    import scipy.sparse as sp  # deferred: see repro.network.deferred

    n = topology.n
    transition = _transition(topology)
    scale = np.sqrt(_degrees(topology).astype(float))
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
    which is exactly what the paper assumes nodes know.  The default
    accuracy 1/(4n) gives the τ the protocols use; it is estimated once per
    topology object.
    """
    if accuracy is None:
        return _memoized(
            topology,
            "_mixing_time_memo",
            lambda t: estimate_mixing_time(t, 1.0 / (4.0 * t.n)),
        )
    gap = spectral_gap(topology)
    pi_min = float(stationary_distribution(topology).min())
    tau = math.log(1.0 / (accuracy * pi_min)) / gap
    return max(1, math.ceil(tau))


def hit_mass(distribution: np.ndarray, targets: np.ndarray) -> float:
    """Mass of ``distribution`` on the nodes ``targets``, added left to right.

    ``np.cumsum`` adds in order, as a Python ``sum`` over the targets does;
    :meth:`RandomWalk.hit_probability` and QuantumRWLE both sum through
    here, so the same targets always give the same bits.
    """
    if targets.size == 0:
        return 0.0
    return float(np.cumsum(distribution[targets])[-1])


class RandomWalk:
    """Simulation and exact analysis of lazy random walks on a topology."""

    def __init__(self, topology: Topology):
        self._graph = topology
        self._ports = topology.port_table()
        self._explicit: ExplicitTopology | None = None

    @property
    def topology(self) -> ExplicitTopology:
        """The walked topology as sorted adjacency lists (built on first use)."""
        if self._explicit is None:
            self._explicit = as_explicit(self._graph)
        return self._explicit

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
        topology = self.topology
        position = start
        for lazy, fraction in choices:
            if lazy:
                continue
            neighbours = topology.adjacency_list(position)
            index = min(int(fraction * len(neighbours)), len(neighbours) - 1)
            position = int(neighbours[index])
        return position

    # -- exact analysis ----------------------------------------------------------

    def distributions_after(
        self, starts: Sequence[int] | np.ndarray, steps: int
    ) -> Iterator[np.ndarray]:
        """Exact distribution of the walk after ``steps`` steps, per start.

        Yields one length-n column per entry of ``starts``, in order.  The
        starts advance in column groups, one ``Pᵀ @ block`` product per hop
        for the whole group; a group's current and next blocks stay under
        :data:`BLOCK_BYTES`.  Each column is bit-identical to a chain of
        one-vector products: scipy's multi-vector kernel adds into every
        entry over the same rows, in the same order, as its one-vector
        kernel.
        """
        starts = np.asarray(starts, dtype=np.int64)
        n = self._graph.n
        transposed = _transition(self._graph).T
        width = max(1, BLOCK_BYTES // (2 * n * 8))
        for first in range(0, starts.size, width):
            group = starts[first:first + width]
            block = np.zeros((n, group.size))
            block[group, np.arange(group.size)] = 1.0
            for _ in range(steps):
                block = transposed @ block
            yield from block.T

    def distribution_after(self, start: int, steps: int) -> np.ndarray:
        """Exact distribution of the walk position after ``steps`` steps."""
        return next(self.distributions_after([start], steps))

    def hit_probability(
        self, start: int, steps: int, targets: Collection[int]
    ) -> float:
        """P[walk endpoint ∈ targets] after exactly ``steps`` steps."""
        if len(targets) == 0:
            return 0.0
        indices = np.fromiter(targets, dtype=np.int64, count=len(targets))
        return hit_mass(self.distribution_after(start, steps), indices)
