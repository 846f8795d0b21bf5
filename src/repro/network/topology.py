"""Network topologies with a uniform, KT0-friendly interface.

Nodes are integers ``0..n-1``.  In the KT0 (clean network) model a node knows
only its *ports* ``0..deg(v)-1``; the mapping from port to neighbour id is a
property of the wiring that protocols may discover only by communicating.
The :class:`Topology` interface therefore exposes neighbours *by port*.

Two representations coexist behind the same interface:

* :class:`ExplicitTopology` stores adjacency lists — any graph.
* Implicit families (:class:`CompleteTopology`, :class:`StarTopology`,
  :class:`CompleteBipartiteTopology`, :class:`HypercubeTopology`) compute
  neighbours on demand so that benchmarks on K_n never materialize the
  Θ(n²) edge set.
"""

from __future__ import annotations

import bisect
from abc import ABC, abstractmethod
from collections import deque
from collections.abc import Iterable, Iterator

from repro.util.mathx import is_power_of_two

__all__ = [
    "CompleteBipartiteTopology",
    "CompleteTopology",
    "CycleTopology",
    "ExplicitTopology",
    "HypercubeTopology",
    "StarTopology",
    "Topology",
    "bfs_distances",
    "diameter",
    "eccentricity",
    "is_connected",
]


class Topology(ABC):
    """Abstract undirected, connected, simple graph on nodes 0..n-1."""

    @property
    @abstractmethod
    def n(self) -> int:
        """Number of nodes."""

    @abstractmethod
    def degree(self, v: int) -> int:
        """Degree of node v."""

    @abstractmethod
    def neighbor_at_port(self, v: int, port: int) -> int:
        """Neighbour reached through port ``port`` of node ``v``."""

    @abstractmethod
    def has_edge(self, u: int, v: int) -> bool:
        """True when {u, v} is an edge."""

    @abstractmethod
    def edge_count(self) -> int:
        """Number of undirected edges m."""

    # -- derived helpers -------------------------------------------------------

    def neighbors(self, v: int) -> Iterator[int]:
        """Iterate over the neighbours of v in port order."""
        for port in range(self.degree(v)):
            yield self.neighbor_at_port(v, port)

    def port_to(self, v: int, u: int) -> int:
        """Port of v leading to neighbour u (via the cached port table).

        Subclasses with arithmetic port structure override this with O(1)
        formulas; the generic path costs O(log deg) after the table is
        built once.
        """
        self.validate_node(v)
        self.validate_node(u)
        return self.port_table().port_to(v, u)

    def port_table(self):
        """The cached :class:`~repro.network.porttable.PortTable`.

        Built lazily on first use and shared by every consumer of this
        topology object (the fast engine, ``port_to``, ...).
        """
        table = getattr(self, "_port_table_cache", None)
        if table is None:
            table = self._build_port_table()
            self._port_table_cache = table
        return table

    def _build_port_table(self):
        from repro.network.porttable import CSRPortTable

        return CSRPortTable.from_topology(self)

    def nodes(self) -> range:
        return range(self.n)

    def edges(self) -> Iterator[tuple[int, int]]:
        """Iterate over undirected edges as (u, v) with u < v."""
        for v in self.nodes():
            for u in self.neighbors(v):
                if v < u:
                    yield (v, u)

    def validate_node(self, v: int) -> None:
        if not 0 <= v < self.n:
            raise ValueError(f"node {v} outside range [0, {self.n})")

    def average_degree(self) -> float:
        return 2.0 * self.edge_count() / self.n

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(n={self.n}, m={self.edge_count()})"


class ExplicitTopology(Topology):
    """Adjacency-list topology for arbitrary graphs."""

    def __init__(self, n: int, edges: Iterable[tuple[int, int]]):
        if n < 1:
            raise ValueError(f"need at least one node, got n={n}")
        adjacency: list[list[int]] = [[] for _ in range(n)]
        seen: set[tuple[int, int]] = set()
        for u, v in edges:
            if u == v:
                raise ValueError(f"self-loop at node {u} not allowed")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) outside node range [0, {n})")
            key = (min(u, v), max(u, v))
            if key in seen:
                continue
            seen.add(key)
            adjacency[u].append(v)
            adjacency[v].append(u)
        self._n = n
        self._adjacency = [sorted(nbrs) for nbrs in adjacency]
        self._m = len(seen)
        self._port_index: list[dict[int, int] | None] = [None] * n

    @classmethod
    def from_networkx(cls, graph) -> "ExplicitTopology":
        """Build from a networkx graph with integer-convertible labels."""
        nodes = sorted(graph.nodes())
        index = {node: i for i, node in enumerate(nodes)}
        edges = [(index[u], index[v]) for u, v in graph.edges()]
        return cls(len(nodes), edges)

    @property
    def n(self) -> int:
        return self._n

    def degree(self, v: int) -> int:
        self.validate_node(v)
        return len(self._adjacency[v])

    def neighbor_at_port(self, v: int, port: int) -> int:
        self.validate_node(v)
        return self._adjacency[v][port]

    def neighbors(self, v: int) -> Iterator[int]:
        self.validate_node(v)
        return iter(self._adjacency[v])

    def port_to(self, v: int, u: int) -> int:
        self.validate_node(v)
        index = self._port_index[v]
        if index is None:
            index = {nbr: port for port, nbr in enumerate(self._adjacency[v])}
            self._port_index[v] = index
        try:
            return index[u]
        except KeyError:
            raise ValueError(f"{u} is not a neighbour of {v}") from None

    def has_edge(self, u: int, v: int) -> bool:
        self.validate_node(u)
        self.validate_node(v)
        neighbours = self._adjacency[u]
        position = bisect.bisect_left(neighbours, v)
        return position < len(neighbours) and neighbours[position] == v

    def edge_count(self) -> int:
        return self._m

    def adjacency_list(self, v: int) -> list[int]:
        """Sorted neighbour list (internal, used by walk machinery)."""
        return self._adjacency[v]

    def _build_port_table(self):
        from repro.network.porttable import CSRPortTable

        return CSRPortTable.from_adjacency(self._adjacency)


class CompleteTopology(Topology):
    """K_n without materialized edges; port i of v maps to (v + 1 + i) mod n."""

    def __init__(self, n: int):
        if n < 2:
            raise ValueError(f"complete graph needs n >= 2, got {n}")
        self._n = n

    @property
    def n(self) -> int:
        return self._n

    def degree(self, v: int) -> int:
        self.validate_node(v)
        return self._n - 1

    def neighbor_at_port(self, v: int, port: int) -> int:
        self.validate_node(v)
        if not 0 <= port < self._n - 1:
            raise ValueError(f"port {port} outside [0, {self._n - 1})")
        return (v + 1 + port) % self._n

    def port_to(self, v: int, u: int) -> int:
        self.validate_node(v)
        self.validate_node(u)
        if u == v:
            raise ValueError("no port to self")
        return (u - v - 1) % self._n

    def has_edge(self, u: int, v: int) -> bool:
        self.validate_node(u)
        self.validate_node(v)
        return u != v

    def edge_count(self) -> int:
        return self._n * (self._n - 1) // 2

    def _build_port_table(self):
        from repro.network.porttable import CompletePortTable

        return CompletePortTable(self._n)


class CycleTopology(Topology):
    """C_n with arithmetic ports — million-node rings stay O(1) memory.

    Port order matches :class:`ExplicitTopology`'s sorted adjacency (port
    0 → smaller-id neighbour), so ``graphs.cycle`` swapping to this class
    changes no trace: for a middle node that is ``v-1``/``v+1``; node 0's
    ports reach 1 then n−1, node n−1's reach 0 then n−2.
    """

    def __init__(self, n: int):
        if n < 3:
            raise ValueError(f"cycle needs at least 3 nodes, got {n}")
        self._n = n

    @property
    def n(self) -> int:
        return self._n

    def degree(self, v: int) -> int:
        self.validate_node(v)
        return 2

    def _sorted_neighbors(self, v: int) -> tuple[int, int]:
        prev, nxt = (v - 1) % self._n, (v + 1) % self._n
        return (prev, nxt) if prev < nxt else (nxt, prev)

    def neighbor_at_port(self, v: int, port: int) -> int:
        self.validate_node(v)
        if port not in (0, 1):
            raise ValueError(f"port {port} outside [0, 2)")
        return self._sorted_neighbors(v)[port]

    def port_to(self, v: int, u: int) -> int:
        self.validate_node(v)
        self.validate_node(u)
        lo, hi = self._sorted_neighbors(v)
        if u == lo:
            return 0
        if u == hi:
            return 1
        raise ValueError(f"{u} is not a neighbour of {v}")

    def has_edge(self, u: int, v: int) -> bool:
        self.validate_node(u)
        self.validate_node(v)
        diff = (u - v) % self._n
        return diff in (1, self._n - 1)

    def edge_count(self) -> int:
        return self._n

    def _build_port_table(self):
        from repro.network.porttable import CyclePortTable

        return CyclePortTable(self._n)


class StarTopology(Topology):
    """Star S_n: node 0 is the centre, 1..n-1 are leaves.  Diameter 2."""

    def __init__(self, n: int):
        if n < 2:
            raise ValueError(f"star needs n >= 2, got {n}")
        self._n = n

    @property
    def n(self) -> int:
        return self._n

    @property
    def center(self) -> int:
        return 0

    def degree(self, v: int) -> int:
        self.validate_node(v)
        return self._n - 1 if v == 0 else 1

    def neighbor_at_port(self, v: int, port: int) -> int:
        self.validate_node(v)
        if v == 0:
            if not 0 <= port < self._n - 1:
                raise ValueError(f"port {port} outside centre's range")
            return port + 1
        if port != 0:
            raise ValueError(f"leaf {v} has a single port, got {port}")
        return 0

    def port_to(self, v: int, u: int) -> int:
        self.validate_node(v)
        self.validate_node(u)
        if v == 0 and u != 0:
            return u - 1
        if v != 0 and u == 0:
            return 0
        raise ValueError(f"{u} is not a neighbour of {v}")

    def has_edge(self, u: int, v: int) -> bool:
        self.validate_node(u)
        self.validate_node(v)
        return (u == 0) != (v == 0)

    def edge_count(self) -> int:
        return self._n - 1

    def _build_port_table(self):
        from repro.network.porttable import StarPortTable

        return StarPortTable(self._n)


class CompleteBipartiteTopology(Topology):
    """K_{a,b}: left part 0..a-1, right part a..a+b-1.  Diameter 2."""

    def __init__(self, a: int, b: int):
        if a < 1 or b < 1:
            raise ValueError(f"both parts need >= 1 node, got a={a}, b={b}")
        if a == 1 and b == 1:
            raise ValueError("K_{1,1} is a single edge; use a larger part")
        self._a = a
        self._b = b

    @property
    def n(self) -> int:
        return self._a + self._b

    @property
    def left_size(self) -> int:
        return self._a

    @property
    def right_size(self) -> int:
        return self._b

    def is_left(self, v: int) -> bool:
        self.validate_node(v)
        return v < self._a

    def degree(self, v: int) -> int:
        self.validate_node(v)
        return self._b if v < self._a else self._a

    def neighbor_at_port(self, v: int, port: int) -> int:
        self.validate_node(v)
        if v < self._a:
            if not 0 <= port < self._b:
                raise ValueError(f"port {port} outside left node's range")
            return self._a + port
        if not 0 <= port < self._a:
            raise ValueError(f"port {port} outside right node's range")
        return port

    def port_to(self, v: int, u: int) -> int:
        self.validate_node(v)
        self.validate_node(u)
        if (v < self._a) == (u < self._a):
            raise ValueError(f"{u} is not a neighbour of {v}")
        return u - self._a if v < self._a else u

    def has_edge(self, u: int, v: int) -> bool:
        self.validate_node(u)
        self.validate_node(v)
        return (u < self._a) != (v < self._a)

    def edge_count(self) -> int:
        return self._a * self._b

    def _build_port_table(self):
        from repro.network.porttable import BipartitePortTable

        return BipartitePortTable(self._a, self._b)


class HypercubeTopology(Topology):
    """d-dimensional hypercube Q_d on n = 2^d nodes; port i flips bit i."""

    def __init__(self, dimension: int):
        if dimension < 1:
            raise ValueError(f"dimension must be >= 1, got {dimension}")
        self._d = dimension
        self._n = 1 << dimension

    @property
    def n(self) -> int:
        return self._n

    @property
    def dimension(self) -> int:
        return self._d

    @classmethod
    def of_size(cls, n: int) -> "HypercubeTopology":
        """Hypercube with exactly n = 2^d nodes."""
        if not is_power_of_two(n):
            raise ValueError(f"hypercube size must be a power of two, got {n}")
        return cls(n.bit_length() - 1)

    def degree(self, v: int) -> int:
        self.validate_node(v)
        return self._d

    def neighbor_at_port(self, v: int, port: int) -> int:
        self.validate_node(v)
        if not 0 <= port < self._d:
            raise ValueError(f"port {port} outside [0, {self._d})")
        return v ^ (1 << port)

    def port_to(self, v: int, u: int) -> int:
        self.validate_node(v)
        self.validate_node(u)
        diff = u ^ v
        if diff == 0 or diff & (diff - 1):
            raise ValueError(f"{u} is not a neighbour of {v}")
        return diff.bit_length() - 1

    def has_edge(self, u: int, v: int) -> bool:
        self.validate_node(u)
        self.validate_node(v)
        diff = u ^ v
        return diff != 0 and (diff & (diff - 1)) == 0

    def edge_count(self) -> int:
        return self._n * self._d // 2

    def _build_port_table(self):
        from repro.network.porttable import HypercubePortTable

        return HypercubePortTable(self._d)


# -- graph measurements --------------------------------------------------------


def bfs_distances(topology: Topology, source: int) -> list[int]:
    """Hop distances from ``source``; -1 marks unreachable nodes."""
    topology.validate_node(source)
    distances = [-1] * topology.n
    distances[source] = 0
    frontier = deque([source])
    while frontier:
        v = frontier.popleft()
        for u in topology.neighbors(v):
            if distances[u] < 0:
                distances[u] = distances[v] + 1
                frontier.append(u)
    return distances


def is_connected(topology: Topology) -> bool:
    """True when every node is reachable from node 0."""
    return all(d >= 0 for d in bfs_distances(topology, 0))


def eccentricity(topology: Topology, v: int) -> int:
    """Largest hop distance from v (graph must be connected)."""
    distances = bfs_distances(topology, v)
    worst = max(distances)
    if min(distances) < 0:
        raise ValueError("graph is disconnected")
    return worst


def diameter(topology: Topology) -> int:
    """Exact diameter by all-sources BFS — O(n·m); intended for tests."""
    return max(eccentricity(topology, v) for v in topology.nodes())
