"""Tests for repro.network.graphs generators."""

import pytest

from repro.network import graphs
from repro.network.topology import ExplicitTopology, diameter, is_connected
from repro.util.rng import RandomSource


@pytest.fixture
def rng():
    return RandomSource(2024)


class TestDeterministicFamilies:
    def test_cycle(self):
        t = graphs.cycle(8)
        assert t.n == 8 and t.edge_count() == 8
        assert all(t.degree(v) == 2 for v in range(8))

    def test_cycle_rejects_small(self):
        with pytest.raises(ValueError):
            graphs.cycle(2)

    def test_path(self):
        t = graphs.path(5)
        assert t.edge_count() == 4
        assert t.degree(0) == 1 and t.degree(2) == 2

    def test_wheel_diameter_two(self):
        t = graphs.wheel(10)
        assert diameter(t) == 2
        assert t.degree(0) == 9  # hub

    def test_torus(self):
        t = graphs.torus(4, 5)
        assert t.n == 20
        assert all(t.degree(v) == 4 for v in range(20))
        assert is_connected(t)

    def test_barbell(self):
        t = graphs.barbell(5)
        assert t.n == 10
        assert is_connected(t)
        # bridge endpoints have degree k, others k-1
        assert t.degree(4) == 5 and t.degree(5) == 5
        assert t.degree(0) == 4

    def test_lollipop(self):
        t = graphs.lollipop(4, 3)
        assert t.n == 7
        assert is_connected(t)
        assert t.degree(6) == 1  # tail end

    def test_complete_and_star_wrappers(self):
        assert graphs.complete(5).edge_count() == 10
        assert graphs.star(5).edge_count() == 4
        assert graphs.complete_bipartite(2, 3).edge_count() == 6
        assert graphs.hypercube(3).n == 8


class TestRandomFamilies:
    def test_random_regular_connected_and_regular(self, rng):
        t = graphs.random_regular(50, 4, rng)
        assert is_connected(t)
        assert all(t.degree(v) == 4 for v in range(50))

    def test_random_regular_validates_parity(self, rng):
        with pytest.raises(ValueError):
            graphs.random_regular(7, 3, rng)  # odd n * odd degree

    def test_random_regular_validates_degree(self, rng):
        with pytest.raises(ValueError):
            graphs.random_regular(10, 2, rng)

    def test_erdos_renyi_connected(self, rng):
        t = graphs.erdos_renyi(60, 0.15, rng)
        assert is_connected(t)
        assert t.n == 60

    def test_erdos_renyi_rejects_bad_p(self, rng):
        with pytest.raises(ValueError):
            graphs.erdos_renyi(10, 0.0, rng)

    def test_diameter_two_gnp_really_diameter_two(self, rng):
        t = graphs.diameter_two_gnp(80, rng)
        assert diameter(t) == 2

    def test_reproducible_with_same_seed(self):
        a = graphs.erdos_renyi(40, 0.2, RandomSource(5))
        b = graphs.erdos_renyi(40, 0.2, RandomSource(5))
        assert sorted(a.edges()) == sorted(b.edges())

    def test_as_explicit_roundtrip(self):
        t = graphs.complete(6)
        e = graphs.as_explicit(t)
        assert e.edge_count() == t.edge_count()
        assert sorted(e.edges()) == sorted(t.edges())


def _networkx_gnp(n, p, rng, ensure_connected=True):
    """G(n, p) drawn through networkx itself, retried as ``erdos_renyi``
    retries."""
    import networkx as nx

    for _ in range(100 if ensure_connected else 1):
        seed = rng.uniform_int(0, 2**31 - 1)
        topology = ExplicitTopology.from_networkx(
            nx.fast_gnp_random_graph(n, p, seed=seed)
        )
        if not ensure_connected or is_connected(topology):
            return topology
    raise AssertionError("no connected draw")


def _adjacency(topology):
    return [topology.adjacency_list(v) for v in range(topology.n)]


class TestGnpMatchesNetworkx:
    """``erdos_renyi`` draws networkx's G(n, p) for every seed, without
    networkx: same adjacency, same stream consumed."""

    @pytest.mark.parametrize(
        "n, p",
        [(2, 0.5), (12, 0.3), (64, 0.1), (96, 0.5), (40, 0.97), (20, 1.0)],
    )
    def test_single_draws(self, n, p):
        for seed in range(200):
            ours, theirs = RandomSource(seed), RandomSource(seed)
            drawn = graphs.erdos_renyi(n, p, ours, ensure_connected=False)
            expected = _networkx_gnp(n, p, theirs, ensure_connected=False)
            assert _adjacency(drawn) == _adjacency(expected)
            assert drawn.edge_count() == expected.edge_count()

    @pytest.mark.parametrize("n, p", [(30, 0.1), (50, 0.08)])
    def test_connectivity_retry(self, n, p):
        retried = 0
        for seed in range(200):
            ours, theirs = RandomSource(seed), RandomSource(seed)
            drawn = graphs.erdos_renyi(n, p, ours)
            expected = _networkx_gnp(n, p, theirs)
            assert _adjacency(drawn) == _adjacency(expected)
            state = ours.generator.bit_generator.state
            assert state == theirs.generator.bit_generator.state
            first = RandomSource(seed)
            first.uniform_int(0, 2**31 - 1)
            retried += state != first.generator.bit_generator.state
        assert retried > 0  # the grid exercises the retry

    def test_has_edge_on_sorted_adjacency(self):
        topology = graphs.erdos_renyi(40, 0.2, RandomSource(3))
        edges = set(topology.edges())
        for u in range(40):
            for v in range(40):
                expected = (min(u, v), max(u, v)) in edges
                assert topology.has_edge(u, v) == expected
