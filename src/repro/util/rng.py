"""Seeded randomness for reproducible distributed simulations.

The paper's model gives every node access to *private* unbiased random bits,
and (for the agreement protocol of Section 6 only) a *global shared coin*.
``RandomSource`` materializes that split: a root source spawns independent
child generators, while ``SharedCoin`` wraps one generator that all nodes
may read but none may bias.

Private bits need not mean one generator per node.  A value every node
draws once (a candidacy coin, a ring id) is one column from a single
child stream — entry v is node v's draw, independent of every other
entry — and only the few nodes that keep drawing (candidates sampling
referees or probes) get a child stream of their own.
"""

from __future__ import annotations

import numpy as np

__all__ = ["RandomSource", "SharedCoin"]


class RandomSource:
    """A tree of independent, reproducible random generators.

    Children are derived with :class:`numpy.random.SeedSequence` spawning, so
    two children never share a stream and re-running with the same root seed
    reproduces every coin flip in the simulation.
    """

    def __init__(self, seed: int | np.random.SeedSequence | None = None):
        if isinstance(seed, np.random.SeedSequence):
            self._sequence = seed
        else:
            self._sequence = np.random.SeedSequence(seed)
        self.generator = np.random.default_rng(self._sequence)

    @property
    def seed_entropy(self) -> int | None:
        """Root entropy, for logging/reproduction."""
        entropy = self._sequence.entropy
        if isinstance(entropy, (list, tuple)):
            return int(entropy[0])
        return None if entropy is None else int(entropy)

    def spawn(self) -> "RandomSource":
        """Derive one independent child source."""
        return RandomSource(self._sequence.spawn(1)[0])

    def spawn_many(self, count: int) -> list["RandomSource"]:
        """Derive ``count`` independent child sources."""
        return [RandomSource(seq) for seq in self._sequence.spawn(count)]

    # -- convenience wrappers -------------------------------------------------

    def bernoulli(self, probability: float) -> bool:
        """One private coin flip with success probability ``probability``."""
        if not 0.0 <= probability <= 1.0:
            raise ValueError(f"probability must be in [0, 1], got {probability}")
        return bool(self.generator.random() < probability)

    def uniform_int(self, low: int, high: int) -> int:
        """Uniform integer in the inclusive range [low, high].

        Handles ranges beyond int64 (the rank space {1, …, n⁴} overflows
        64 bits already at n = 2^16) by rejection-sampling 32-bit chunks.
        """
        if low > high:
            raise ValueError(f"empty range [{low}, {high}]")
        span = high - low + 1
        if span <= 1 << 62:
            return low + int(self.generator.integers(0, span))
        bits = span.bit_length()
        while True:
            value = 0
            remaining = bits
            while remaining > 0:
                chunk = min(remaining, 32)
                value = (value << chunk) | int(
                    self.generator.integers(0, 1 << chunk)
                )
                remaining -= chunk
            if value < span:
                return low + value

    def uniform_ints(self, low: int, high: int, size: int) -> np.ndarray:
        """``size`` independent uniform integers in [low, high], as a column.

        The column is int64 while the range fits it (``high`` < 2⁶³).
        Past that it is an object array of exact Python ints, drawn one by
        one with :meth:`uniform_int`.
        """
        if low > high:
            raise ValueError(f"empty range [{low}, {high}]")
        if -(1 << 63) <= low and high < 1 << 63:
            return self.generator.integers(
                low, high, size=size, dtype=np.int64, endpoint=True
            )
        return np.array(
            [self.uniform_int(low, high) for _ in range(size)], dtype=object
        )

    def uniform(self) -> float:
        """Uniform float in [0, 1)."""
        return float(self.generator.random())

    def choice(self, items, size=None, replace=True):
        """Uniform choice from a sequence (delegates to numpy)."""
        return self.generator.choice(items, size=size, replace=replace)

    def sample_without_replacement(self, population: int, count: int) -> np.ndarray:
        """``count`` distinct integers drawn uniformly from range(population)."""
        if count > population:
            raise ValueError(
                f"cannot sample {count} distinct items from a population of {population}"
            )
        return self.generator.choice(population, size=count, replace=False)

    def shuffled(self, items: list) -> list:
        """A new list with the items in uniformly random order."""
        order = self.generator.permutation(len(items))
        return [items[i] for i in order]


class SharedCoin:
    """The global shared coin of Section 6 (oblivious to the input adversary).

    All nodes observe the *same* sequence of values; the simulation enforces
    this by routing every read through one generator owned by the coin.
    """

    def __init__(self, source: RandomSource):
        self._source = source
        self._flips = 0

    @property
    def flips(self) -> int:
        """Number of shared values drawn so far."""
        return self._flips

    def next_uniform(self) -> float:
        """Next shared uniform value in [0, 1) (Algorithm 4, line 5)."""
        self._flips += 1
        return self._source.uniform()

    def next_bits(self, count: int) -> list[int]:
        """Next ``count`` shared unbiased bits."""
        self._flips += count
        return [self._source.uniform_int(0, 1) for _ in range(count)]
