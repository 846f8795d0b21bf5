"""Result dataclasses returned by every protocol in the library."""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field
from types import MappingProxyType

import numpy as np

from repro.network.batch import (
    STATUS_CODES,
    STATUS_ELECTED,
    STATUS_NON_ELECTED,
)
from repro.network.metrics import MetricsRecorder
from repro.network.node import Status

__all__ = ["AgreementResult", "LeaderElectionResult"]


@dataclass
class LeaderElectionResult:
    """Outcome of one leader-election run.

    ``success`` is the Section 2.2 condition: exactly one node ELECTED, all
    others NON_ELECTED (implicit variant: non-leaders need not know the
    leader's identity; ``explicit`` runs additionally populate
    ``known_leader``).

    ``status_codes`` holds every node's final status as one int8 column of
    the ``STATUS_*`` codes of :mod:`repro.network.batch`, so the
    correctness reductions are array reductions rather than O(n) Python
    passes; :attr:`statuses` is the per-node enum view of it.

    Under an adversary, ``crashed`` lists the crash-stopped nodes; as is
    standard for crash-stop faults, the correctness condition then applies
    to the *surviving* nodes only (a crashed candidate frozen at ⊥ does
    not invalidate the survivors' election).
    """

    n: int
    status_codes: np.ndarray
    metrics: MetricsRecorder
    meta: dict = field(default_factory=dict)
    known_leader: dict[int, int] | None = None
    crashed: frozenset[int] = frozenset()

    def __post_init__(self) -> None:
        self.status_codes = np.asarray(self.status_codes, dtype=np.int8)
        if self.status_codes.shape != (self.n,):
            raise ValueError(
                f"status_codes must have shape ({self.n},), "
                f"got {self.status_codes.shape}"
            )

    @property
    def statuses(self) -> Mapping[int, Status]:
        """Read-only ``node → Status`` view of ``status_codes``, built per read."""
        return MappingProxyType(
            {
                v: STATUS_CODES[code]
                for v, code in enumerate(self.status_codes.tolist())
            }
        )

    def _surviving(self, mask: np.ndarray) -> np.ndarray:
        """``mask`` (a fresh per-node array) with the crashed nodes cleared."""
        if self.crashed:
            mask[list(self.crashed)] = False
        return mask

    @property
    def elected(self) -> list[int]:
        winners = self._surviving(self.status_codes == STATUS_ELECTED)
        return np.flatnonzero(winners).tolist()

    @property
    def leader(self) -> int | None:
        winners = self.elected
        return winners[0] if len(winners) == 1 else None

    @property
    def success(self) -> bool:
        codes = self.status_codes
        if np.count_nonzero(self._surviving(codes == STATUS_ELECTED)) != 1:
            return False
        non_elected = int(
            np.count_nonzero(self._surviving(codes == STATUS_NON_ELECTED))
        )
        return non_elected == self.n - len(self.crashed) - 1

    @property
    def explicit_success(self) -> bool:
        """Explicit LE: everyone additionally knows the unique leader."""
        if not self.success or self.known_leader is None:
            return False
        leader = self.leader
        return all(self.known_leader.get(v) == leader for v in range(self.n))

    @property
    def messages(self) -> int:
        return self.metrics.messages

    @property
    def rounds(self) -> int:
        return self.metrics.rounds


@dataclass
class AgreementResult:
    """Outcome of one implicit-agreement run (Section 2.2).

    ``decisions`` maps node → decided value, with None for ⊥ (undecided).
    Validity requires every decided node to agree on a value that is some
    node's input, and at least one node to be decided.
    """

    n: int
    inputs: dict[int, int]
    decisions: dict[int, int | None]
    metrics: MetricsRecorder
    meta: dict = field(default_factory=dict)

    @property
    def decided_nodes(self) -> list[int]:
        return [v for v, d in self.decisions.items() if d is not None]

    @property
    def agreed_value(self) -> int | None:
        values = {self.decisions[v] for v in self.decided_nodes}
        return values.pop() if len(values) == 1 else None

    @property
    def success(self) -> bool:
        decided = self.decided_nodes
        if not decided:
            return False
        values = {self.decisions[v] for v in decided}
        if len(values) != 1:
            return False
        value = values.pop()
        return value in set(self.inputs.values())

    @property
    def messages(self) -> int:
        return self.metrics.messages

    @property
    def rounds(self) -> int:
        return self.metrics.rounds
