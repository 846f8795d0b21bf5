"""Precomputed port-routing tables for vectorized message delivery.

In the KT0 port model every directed message is addressed as ``(sender,
port)``; delivering it needs two lookups — the receiver
(``neighbor_at_port(sender, port)``) and the receiver-side port
(``port_to(receiver, sender)``).  Doing those one Python call at a time is
what bounds the synchronous engine: on K_n the naive ``port_to`` fallback
is O(n) *per message*.

A :class:`PortTable` precomputes both directions so a whole round of
messages resolves with a handful of numpy gathers:

* :class:`CSRPortTable` materializes flat CSR-style arrays (degree
  offsets, neighbor array, reverse-port array) for any explicit graph —
  O(m) memory, O(1) per lookup;
* the implicit families (:class:`CompletePortTable`,
  :class:`StarPortTable`, :class:`BipartitePortTable`,
  :class:`HypercubePortTable`) compute both directions arithmetically,
  so K_n routing never materializes its Θ(n²) edge set.

Tables are exposed through :meth:`repro.network.topology.Topology.port_table`,
which caches one instance per topology object.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

__all__ = [
    "BipartitePortTable",
    "CSRPortTable",
    "CompletePortTable",
    "CyclePortTable",
    "HypercubePortTable",
    "MASK_MAX_ROWS",
    "PortTable",
    "StarPortTable",
]

#: Rounds with fewer rows than this check a uniform port range with one
#: boolean mask; larger rounds pass on the allocation-free ``min``/``max``
#: pair and build the mask only to locate a bad port.  On a 2-core x86_64 host (numpy 2.4) the mask takes 1.2–1.5 µs
#: against the pair's 2.2–2.5 µs up to 512 rows, the two tie at 4,096
#: rows, and the pair is 1.3–1.7× faster at 16k–128k rows.
MASK_MAX_ROWS = 4096


class PortTable(ABC):
    """Vectorized two-way port routing for one fixed topology.

    All array methods accept int64 numpy arrays of equal length and return
    int64 arrays; entries are *not* validated (the engine validates port
    ranges once per round via :meth:`degrees_of`).
    """

    @property
    @abstractmethod
    def n(self) -> int:
        """Number of nodes."""

    @property
    @abstractmethod
    def max_ports(self) -> int:
        """Maximum degree; ``sender * max_ports + port`` is a unique
        directed-edge slot id (used for CONGEST duplicate detection)."""

    @abstractmethod
    def degrees_of(self, nodes: np.ndarray) -> np.ndarray:
        """Degree of each node in ``nodes``."""

    @abstractmethod
    def receivers(self, senders: np.ndarray, ports: np.ndarray) -> np.ndarray:
        """``neighbor_at_port`` vectorized: who each message reaches."""

    @abstractmethod
    def reverse_ports(
        self, senders: np.ndarray, ports: np.ndarray, receivers: np.ndarray
    ) -> np.ndarray:
        """``port_to(receiver, sender)`` vectorized: the arrival port."""

    def find_bad_port(self, senders: np.ndarray, ports: np.ndarray) -> int | None:
        """Index of the first out-of-range port, or None when all are valid.

        Uniform-degree tables override this with a range check that
        allocates nothing on rounds of :data:`MASK_MAX_ROWS` rows or more;
        this generic version gathers per-sender degrees.
        """
        bad = (ports < 0) | (ports >= self.degrees_of(senders))
        if np.count_nonzero(bad):
            return int(np.argmax(bad))
        return None

    def _find_bad_port_uniform(
        self, ports: np.ndarray, degree: int
    ) -> int | None:
        if (
            len(ports) >= MASK_MAX_ROWS
            and int(ports.min()) >= 0
            and int(ports.max()) < degree
        ):
            return None
        # Viewed as unsigned, a negative int64 port is huge, so one
        # comparison catches both ends of the range.
        bad = ports.view(np.uint64) >= degree
        if np.count_nonzero(bad):
            return int(np.argmax(bad))
        return None

    def route(
        self, senders: np.ndarray, ports: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Both routing gathers at once: (receivers, arrival ports).

        ``senders`` must ascend, as in the engine's canonical send order
        (the engine checks it before routing a round); a table may rely
        on that, as :class:`CyclePortTable` does.
        """
        receivers = self.receivers(senders, ports)
        return receivers, self.reverse_ports(senders, ports, receivers)

    def port_to(self, v: int, u: int) -> int:
        """Scalar port of ``v`` leading to neighbour ``u``."""
        s = np.asarray([v], dtype=np.int64)
        deg = int(self.degrees_of(s)[0])
        ports = np.arange(deg, dtype=np.int64)
        hits = np.nonzero(self.receivers(np.full(deg, v, dtype=np.int64), ports) == u)[0]
        if hits.size == 0:
            raise ValueError(f"{u} is not a neighbour of {v}")
        return int(hits[0])


class CSRPortTable(PortTable):
    """Materialized CSR routing arrays for an arbitrary explicit graph.

    ``neighbors[offsets[v] + p]`` is the neighbour behind port ``p`` of
    ``v``; ``reverse[offsets[v] + p]`` is the port at which that neighbour
    sees ``v`` back.  Scalar ``port_to`` runs in O(log deg) through a
    key-sorted index built once at construction.
    """

    def __init__(self, offsets: np.ndarray, neighbors: np.ndarray):
        self._offsets = np.ascontiguousarray(offsets, dtype=np.int64)
        self._neighbors = np.ascontiguousarray(neighbors, dtype=np.int64)
        self._n = len(self._offsets) - 1
        n = self._n
        degrees = np.diff(self._offsets)
        self._max_ports = int(degrees.max()) if n else 0
        src = np.repeat(np.arange(n, dtype=np.int64), degrees)
        keys = src * n + self._neighbors
        order = np.argsort(keys, kind="stable")
        sorted_keys = keys[order]
        # Index of each directed edge's mirror (u → v for v → u); a simple
        # undirected graph always has one.
        rev_pos = np.searchsorted(sorted_keys, self._neighbors * n + src)
        if np.any(rev_pos >= len(sorted_keys)) or np.any(
            sorted_keys[np.minimum(rev_pos, len(sorted_keys) - 1)]
            != self._neighbors * n + src
        ):
            raise ValueError("adjacency is not symmetric: not an undirected graph")
        self._reverse = order[rev_pos] - self._offsets[self._neighbors]
        self._sorted_keys = sorted_keys
        self._order = order

    @classmethod
    def from_adjacency(cls, adjacency: list[list[int]]) -> "CSRPortTable":
        """Build from per-node neighbour lists in port order."""
        degrees = np.fromiter(
            (len(nbrs) for nbrs in adjacency), dtype=np.int64, count=len(adjacency)
        )
        offsets = np.zeros(len(adjacency) + 1, dtype=np.int64)
        np.cumsum(degrees, out=offsets[1:])
        if int(offsets[-1]):
            neighbors = np.concatenate(
                [np.asarray(nbrs, dtype=np.int64) for nbrs in adjacency if nbrs]
            )
        else:
            neighbors = np.empty(0, dtype=np.int64)
        return cls(offsets, neighbors)

    @classmethod
    def from_topology(cls, topology) -> "CSRPortTable":
        """Build from any :class:`~repro.network.topology.Topology`."""
        return cls.from_adjacency(
            [list(topology.neighbors(v)) for v in range(topology.n)]
        )

    @property
    def n(self) -> int:
        return self._n

    @property
    def max_ports(self) -> int:
        return self._max_ports

    def degrees_of(self, nodes: np.ndarray) -> np.ndarray:
        return self._offsets[nodes + 1] - self._offsets[nodes]

    def receivers(self, senders: np.ndarray, ports: np.ndarray) -> np.ndarray:
        return self._neighbors[self._offsets[senders] + ports]

    def reverse_ports(
        self, senders: np.ndarray, ports: np.ndarray, receivers: np.ndarray
    ) -> np.ndarray:
        return self._reverse[self._offsets[senders] + ports]

    def route(
        self, senders: np.ndarray, ports: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        base = self._offsets[senders] + ports
        return self._neighbors[base], self._reverse[base]

    def port_to(self, v: int, u: int) -> int:
        key = v * self._n + u
        pos = int(np.searchsorted(self._sorted_keys, key))
        if pos < len(self._sorted_keys) and self._sorted_keys[pos] == key:
            return int(self._order[pos] - self._offsets[v])
        raise ValueError(f"{u} is not a neighbour of {v}")


class CompletePortTable(PortTable):
    """K_n: port ``p`` of ``v`` reaches ``(v + 1 + p) mod n`` — all arithmetic."""

    def __init__(self, n: int):
        self._n = n

    @property
    def n(self) -> int:
        return self._n

    @property
    def max_ports(self) -> int:
        return self._n - 1

    def degrees_of(self, nodes: np.ndarray) -> np.ndarray:
        return np.full(len(nodes), self._n - 1, dtype=np.int64)

    def receivers(self, senders: np.ndarray, ports: np.ndarray) -> np.ndarray:
        return (senders + 1 + ports) % self._n

    def reverse_ports(
        self, senders: np.ndarray, ports: np.ndarray, receivers: np.ndarray
    ) -> np.ndarray:
        return (senders - receivers - 1) % self._n

    def find_bad_port(self, senders: np.ndarray, ports: np.ndarray) -> int | None:
        return self._find_bad_port_uniform(ports, self._n - 1)

    def port_to(self, v: int, u: int) -> int:
        if u == v:
            raise ValueError("no port to self")
        return (u - v - 1) % self._n


class StarPortTable(PortTable):
    """Star: centre 0's port ``p`` reaches leaf ``p + 1``; leaves have port 0."""

    def __init__(self, n: int):
        self._n = n

    @property
    def n(self) -> int:
        return self._n

    @property
    def max_ports(self) -> int:
        return self._n - 1

    def degrees_of(self, nodes: np.ndarray) -> np.ndarray:
        return np.where(nodes == 0, self._n - 1, 1).astype(np.int64)

    def receivers(self, senders: np.ndarray, ports: np.ndarray) -> np.ndarray:
        return np.where(senders == 0, ports + 1, 0).astype(np.int64)

    def reverse_ports(
        self, senders: np.ndarray, ports: np.ndarray, receivers: np.ndarray
    ) -> np.ndarray:
        return np.where(senders == 0, 0, senders - 1).astype(np.int64)

    def port_to(self, v: int, u: int) -> int:
        if v == 0 and 1 <= u < self._n:
            return u - 1
        if v != 0 and u == 0:
            return 0
        raise ValueError(f"{u} is not a neighbour of {v}")


class BipartitePortTable(PortTable):
    """K_{a,b}: left node's port ``p`` reaches ``a + p``; right's reaches ``p``."""

    def __init__(self, a: int, b: int):
        self._a = a
        self._b = b

    @property
    def n(self) -> int:
        return self._a + self._b

    @property
    def max_ports(self) -> int:
        return max(self._a, self._b)

    def degrees_of(self, nodes: np.ndarray) -> np.ndarray:
        return np.where(nodes < self._a, self._b, self._a).astype(np.int64)

    def receivers(self, senders: np.ndarray, ports: np.ndarray) -> np.ndarray:
        return np.where(senders < self._a, self._a + ports, ports).astype(np.int64)

    def reverse_ports(
        self, senders: np.ndarray, ports: np.ndarray, receivers: np.ndarray
    ) -> np.ndarray:
        return np.where(senders < self._a, senders, senders - self._a).astype(np.int64)

    def port_to(self, v: int, u: int) -> int:
        if (v < self._a) == (u < self._a):
            raise ValueError(f"{u} is not a neighbour of {v}")
        return u - self._a if v < self._a else u


class HypercubePortTable(PortTable):
    """Q_d: port ``p`` flips bit ``p``, so the reverse port is ``p`` itself."""

    def __init__(self, dimension: int):
        self._d = dimension
        self._n = 1 << dimension

    @property
    def n(self) -> int:
        return self._n

    @property
    def max_ports(self) -> int:
        return self._d

    def degrees_of(self, nodes: np.ndarray) -> np.ndarray:
        return np.full(len(nodes), self._d, dtype=np.int64)

    def receivers(self, senders: np.ndarray, ports: np.ndarray) -> np.ndarray:
        return np.bitwise_xor(senders, np.left_shift(np.int64(1), ports))

    def reverse_ports(
        self, senders: np.ndarray, ports: np.ndarray, receivers: np.ndarray
    ) -> np.ndarray:
        return ports

    def find_bad_port(self, senders: np.ndarray, ports: np.ndarray) -> int | None:
        return self._find_bad_port_uniform(ports, self._d)

    def port_to(self, v: int, u: int) -> int:
        diff = u ^ v
        if diff == 0 or diff & (diff - 1):
            raise ValueError(f"{u} is not a neighbour of {v}")
        return diff.bit_length() - 1


class CyclePortTable(PortTable):
    """C_n: both ports of every node computed arithmetically.

    Million-node rings never materialize their edge list.  The port
    convention matches the explicit builder's sorted-adjacency order
    exactly (so the two representations are trace-interchangeable): port
    0 reaches the *smaller*-id neighbour, port 1 the larger.  For a
    middle node ``v`` that is ``v-1``/``v+1``; the wrap nodes 0 and
    ``n-1`` see their neighbours re-sorted (0: ports → 1, n−1;
    n−1: ports → 0, n−2).

    :meth:`route` resolves a round in one arithmetic pass: away from the
    wrap, port ``p`` of ``v`` reaches ``v - 1 + 2p`` and arrives on port
    ``1 - p``.  Only senders next to the wrap (``v < 2`` or ``v > n − 3``,
    whose receiver may be a wrap node) go through :meth:`receivers` and
    :meth:`reverse_ports`.  Senders ascend, so the first and last rows
    tell whether any sender is next to the wrap.
    """

    def __init__(self, n: int):
        if n < 3:
            raise ValueError(f"cycle needs at least 3 nodes, got {n}")
        self._n = n

    @property
    def n(self) -> int:
        return self._n

    @property
    def max_ports(self) -> int:
        return 2

    def degrees_of(self, nodes: np.ndarray) -> np.ndarray:
        return np.full(len(nodes), 2, dtype=np.int64)

    def _sorted_neighbors(
        self, nodes: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        n = self._n
        prev = (nodes - 1) % n
        nxt = (nodes + 1) % n
        return np.minimum(prev, nxt), np.maximum(prev, nxt)

    def receivers(self, senders: np.ndarray, ports: np.ndarray) -> np.ndarray:
        lo, hi = self._sorted_neighbors(senders)
        return np.where(ports == 0, lo, hi)

    def reverse_ports(
        self, senders: np.ndarray, ports: np.ndarray, receivers: np.ndarray
    ) -> np.ndarray:
        lo, _ = self._sorted_neighbors(receivers)
        return np.where(senders == lo, 0, 1).astype(np.int64)

    def route(
        self, senders: np.ndarray, ports: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        receivers = senders + 2 * ports - 1
        arrivals = 1 - ports
        if len(senders) and (
            int(senders[0]) < 2 or int(senders[-1]) > self._n - 3
        ):
            near = np.nonzero((senders < 2) | (senders > self._n - 3))[0]
            s, p = senders[near], ports[near]
            receivers[near] = self.receivers(s, p)
            arrivals[near] = self.reverse_ports(s, p, receivers[near])
        return receivers, arrivals

    def find_bad_port(self, senders: np.ndarray, ports: np.ndarray) -> int | None:
        return self._find_bad_port_uniform(ports, 2)

    def port_to(self, v: int, u: int) -> int:
        n = self._n
        prev, nxt = (v - 1) % n, (v + 1) % n
        if u not in (prev, nxt):
            raise ValueError(f"{u} is not a neighbour of {v}")
        return 0 if u == min(prev, nxt) else 1
