"""Distributed procedure abstractions (Section 4.2's Checking / Setup / Update).

A *search oracle* bundles the classical description of a function
f : X → {0, 1} with the CONGEST cost of its distributed ``Checking``
procedure.  The quantum subroutines consume oracles in two independent ways:

* **outcome**: ``marked_count`` / ``sample_marked`` drive the exact
  measurement dynamics (the simulator is omniscient about f, exactly like a
  proof is);
* **cost**: ``charge_checking`` bills the CONGEST messages and rounds of each
  *coherent* invocation of Checking to the metrics recorder.  A coherent
  invocation is charged once regardless of the superposition's width
  (Section 3.1's max-over-branches rule).

``charge_checking`` may be a plain (messages, rounds) pair or an arbitrary
hook — QuantumQWLE's Checking, for instance, internally runs nested Grover
searches whose costs depend on the current candidate population.  Either
way a hook must be additive in ``calls``: charging a + b calls bills what
charging a calls and then b calls would.  GroverSearch, ApproxCount and
the node-parallel stages charge a whole search's (or stage's) calls at
once.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass

from repro.network.metrics import MetricsRecorder
from repro.util.rng import RandomSource

__all__ = [
    "ChargeHook",
    "SearchOracle",
    "SetOracle",
    "uniform_charge",
]

#: A hook charging the cost of ``calls`` coherent invocations of a procedure;
#: additive in ``calls`` (see the module docstring).
ChargeHook = Callable[[MetricsRecorder, int], None]


def uniform_charge(messages: int, rounds: int, label: str) -> ChargeHook:
    """A :data:`ChargeHook` with fixed per-call cost (the common case).

    The two-round, two-message Checking of Algorithm 1 is
    ``uniform_charge(2, 2, "quantum-le.checking")``.
    """
    if messages < 0 or rounds < 0:
        raise ValueError(
            f"per-call costs must be non-negative, got messages={messages}, "
            f"rounds={rounds}"
        )

    def charge(metrics: MetricsRecorder, calls: int) -> None:
        metrics.charge(label, messages=messages * calls, rounds=rounds * calls)

    return charge


class SearchOracle:
    """Classical view of f : X → {0, 1} plus its distributed Checking cost.

    Subclasses (or direct instances via :class:`SetOracle`) must keep
    ``marked_count`` consistent with ``evaluate``; tests verify this for the
    library's own oracles.
    """

    def __init__(self, domain_size: int, charge_checking: ChargeHook):
        if domain_size < 1:
            raise ValueError(f"domain must be non-empty, got {domain_size}")
        self.domain_size = domain_size
        self.charge_checking = charge_checking

    # -- classical description (override) --------------------------------------

    def marked_count(self) -> int:
        raise NotImplementedError

    def sample_marked(self, rng: RandomSource):
        raise NotImplementedError

    def sample_unmarked(self, rng: RandomSource):
        raise NotImplementedError

    def evaluate(self, x) -> bool:
        raise NotImplementedError

    # -- derived ----------------------------------------------------------------

    def marked_fraction(self) -> float:
        return self.marked_count() / self.domain_size


class SetOracle(SearchOracle):
    """Oracle over an explicit domain sequence with an explicit marked set."""

    def __init__(
        self,
        domain: Sequence,
        marked: set,
        charge_checking: ChargeHook,
    ):
        super().__init__(len(domain), charge_checking)
        self._domain = domain
        self._marked = set(marked)
        self._marked_list = sorted(self._marked, key=repr)
        self._unmarked_list: list | None = None
        domain_set = set(domain)
        stray = self._marked - domain_set
        if stray:
            raise ValueError(f"marked elements outside the domain: {sorted(map(repr, stray))[:3]}")

    def marked_count(self) -> int:
        return len(self._marked)

    def sample_marked(self, rng: RandomSource):
        if not self._marked_list:
            raise ValueError("no marked elements to sample")
        return self._marked_list[rng.uniform_int(0, len(self._marked_list) - 1)]

    def sample_unmarked(self, rng: RandomSource):
        if self._unmarked_list is None:
            self._unmarked_list = [x for x in self._domain if x not in self._marked]
        if not self._unmarked_list:
            raise ValueError("every element is marked")
        return self._unmarked_list[rng.uniform_int(0, len(self._unmarked_list) - 1)]

    def evaluate(self, x) -> bool:
        return x in self._marked


@dataclass
class CountOracle(SearchOracle):
    """Oracle defined by counts and samplers — for domains too large to list.

    QuantumLE's domain is all n nodes; materializing it per candidate would
    cost Θ(n) per run, defeating the point of a sublinear-message protocol's
    *simulation* being fast.  This oracle keeps everything implicit.
    """

    def __init__(
        self,
        domain_size: int,
        marked: int,
        charge_checking: ChargeHook,
        sample_marked_fn: Callable[[RandomSource], object],
        sample_unmarked_fn: Callable[[RandomSource], object] | None = None,
        evaluate_fn: Callable[[object], bool] | None = None,
    ):
        super().__init__(domain_size, charge_checking)
        if not 0 <= marked <= domain_size:
            raise ValueError(
                f"marked count must be in [0, {domain_size}], got {marked}"
            )
        self._marked_count = marked
        self._sample_marked = sample_marked_fn
        self._sample_unmarked = sample_unmarked_fn
        self._evaluate = evaluate_fn

    def marked_count(self) -> int:
        return self._marked_count

    def sample_marked(self, rng: RandomSource):
        if self._marked_count == 0:
            raise ValueError("no marked elements to sample")
        return self._sample_marked(rng)

    def sample_unmarked(self, rng: RandomSource):
        if self._sample_unmarked is None:
            return None
        return self._sample_unmarked(rng)

    def evaluate(self, x) -> bool:
        if self._evaluate is None:
            raise NotImplementedError("this oracle has no explicit evaluate()")
        return self._evaluate(x)
