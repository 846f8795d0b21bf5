"""Port tables must agree with the scalar topology interface everywhere."""

import numpy as np
import pytest

from repro.network import graphs
from repro.network.porttable import (
    BipartitePortTable,
    CSRPortTable,
    CompletePortTable,
    CyclePortTable,
    HypercubePortTable,
    PortTable,
    StarPortTable,
)
from repro.util.rng import RandomSource


def _all_family_topologies():
    """One small instance of every topology family in the catalogue."""
    rng = RandomSource(2024)
    return {
        "complete": graphs.complete(11),
        "star": graphs.star(9),
        "cycle": graphs.cycle(8),
        # Every node of C_3 and C_4 is next to the wrap.
        "cycle-3": graphs.cycle(3),
        "cycle-4": graphs.cycle(4),
        "path": graphs.path(7),
        "wheel": graphs.wheel(9),
        "hypercube": graphs.hypercube(4),
        "torus": graphs.torus(3, 4),
        "barbell": graphs.barbell(4),
        "lollipop": graphs.lollipop(5, 3),
        "complete-bipartite": graphs.complete_bipartite(3, 5),
        "random-regular": graphs.random_regular(10, 4, rng),
        "erdos-renyi": graphs.erdos_renyi(12, 0.4, rng),
        "diameter2-gnp": graphs.diameter_two_gnp(16, rng),
    }


ALL_FAMILIES = _all_family_topologies()


def _directed_edges(topology):
    senders, ports = [], []
    for v in range(topology.n):
        for port in range(topology.degree(v)):
            senders.append(v)
            ports.append(port)
    return (
        np.asarray(senders, dtype=np.int64),
        np.asarray(ports, dtype=np.int64),
    )


class TestTableAgainstScalarInterface:
    @pytest.mark.parametrize("family", sorted(ALL_FAMILIES))
    def test_receivers_and_reverse_ports_match(self, family):
        topology = ALL_FAMILIES[family]
        table = topology.port_table()
        senders, ports = _directed_edges(topology)
        receivers = table.receivers(senders, ports)
        arrivals = table.reverse_ports(senders, ports, receivers)
        for i in range(len(senders)):
            v, port = int(senders[i]), int(ports[i])
            u = topology.neighbor_at_port(v, port)
            assert int(receivers[i]) == u
            assert int(arrivals[i]) == topology.port_to(u, v)
            # Alone, a row meets only its own sender's routing branch.
            alone = table.route(senders[i : i + 1], ports[i : i + 1])
            assert (int(alone[0][0]), int(alone[1][0])) == (u, arrivals[i])
        routed_receivers, routed_arrivals = table.route(senders, ports)
        assert routed_receivers.tolist() == receivers.tolist()
        assert routed_arrivals.tolist() == arrivals.tolist()

    @pytest.mark.parametrize("family", sorted(ALL_FAMILIES))
    def test_degrees_match(self, family):
        topology = ALL_FAMILIES[family]
        table = topology.port_table()
        degrees = table.degrees_of(np.arange(topology.n, dtype=np.int64))
        assert degrees.tolist() == [topology.degree(v) for v in range(topology.n)]
        assert table.max_ports == max(degrees.tolist())
        assert table.n == topology.n

    @pytest.mark.parametrize("family", sorted(ALL_FAMILIES))
    def test_scalar_port_to_round_trips(self, family):
        topology = ALL_FAMILIES[family]
        table = topology.port_table()
        for v in range(topology.n):
            for port in range(topology.degree(v)):
                u = topology.neighbor_at_port(v, port)
                assert table.port_to(v, u) == port
                assert topology.port_to(v, u) == port

    @pytest.mark.parametrize("family", sorted(ALL_FAMILIES))
    def test_matches_generic_csr_build(self, family):
        """Arithmetic tables agree with a materialized CSR of the same graph."""
        topology = ALL_FAMILIES[family]
        table = topology.port_table()
        csr = CSRPortTable.from_topology(topology)
        senders, ports = _directed_edges(topology)
        assert (
            table.receivers(senders, ports) == csr.receivers(senders, ports)
        ).all()
        receivers = csr.receivers(senders, ports)
        assert (
            table.reverse_ports(senders, ports, receivers)
            == csr.reverse_ports(senders, ports, receivers)
        ).all()


class TestTableKinds:
    def test_implicit_families_avoid_materialization(self):
        assert isinstance(graphs.complete(6).port_table(), CompletePortTable)
        assert isinstance(graphs.star(6).port_table(), StarPortTable)
        assert isinstance(
            graphs.complete_bipartite(3, 4).port_table(), BipartitePortTable
        )
        assert isinstance(graphs.hypercube(3).port_table(), HypercubePortTable)
        assert isinstance(graphs.cycle(5).port_table(), CyclePortTable)

    def test_explicit_topology_uses_csr(self):
        assert isinstance(graphs.path(5).port_table(), CSRPortTable)

    def test_table_is_cached_per_topology(self):
        topology = graphs.cycle(5)
        assert topology.port_table() is topology.port_table()

    def test_tables_are_port_tables(self):
        for topology in ALL_FAMILIES.values():
            assert isinstance(topology.port_table(), PortTable)


class TestPortToErrors:
    def test_non_neighbours_raise(self):
        cases = [
            (graphs.complete(5), 2, 2),  # self
            (graphs.star(5), 1, 2),  # leaf to leaf
            (graphs.complete_bipartite(2, 3), 0, 1),  # same side
            (graphs.hypercube(3), 0, 3),  # two bits apart
            (graphs.cycle(6), 0, 3),  # opposite side
            (graphs.path(4), 0, 2),  # two hops
        ]
        for topology, v, u in cases:
            with pytest.raises(ValueError):
                topology.port_to(v, u)
            with pytest.raises(ValueError):
                topology.port_table().port_to(v, u)

    def test_asymmetric_adjacency_rejected(self):
        with pytest.raises(ValueError, match="not an undirected graph"):
            CSRPortTable.from_adjacency([[1], []])
