"""Tests for repro.network.random_walk."""

import math

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given
from hypothesis import strategies as st

from repro.core.leader_election.mixing import quantum_rwle
from repro.network import graphs, random_walk
from repro.network.random_walk import (
    RandomWalk,
    estimate_mixing_time,
    hit_mass,
    lazy_transition_matrix,
    spectral_gap,
    stationary_distribution,
)
from repro.network.topology import ExplicitTopology
from repro.util.rng import RandomSource


@pytest.fixture
def rng():
    return RandomSource(99)


class TestTransitionMatrix:
    def test_rows_are_stochastic(self):
        t = graphs.cycle(10)
        matrix = lazy_transition_matrix(t)
        rows = np.asarray(matrix.sum(axis=1)).ravel()
        assert np.allclose(rows, 1.0)

    def test_laziness_diagonal_half(self):
        t = graphs.complete(5)
        matrix = lazy_transition_matrix(t).toarray()
        assert np.allclose(np.diag(matrix), 0.5)

    def test_stationarity(self):
        """π P = π for the lazy walk."""
        t = graphs.lollipop(5, 4)
        matrix = lazy_transition_matrix(t)
        pi = stationary_distribution(t)
        assert np.allclose(pi @ matrix.toarray(), pi, atol=1e-12)


class TestStationaryDistribution:
    def test_uniform_on_regular_graphs(self):
        t = graphs.cycle(12)
        pi = stationary_distribution(t)
        assert np.allclose(pi, 1.0 / 12.0)

    def test_proportional_to_degree(self):
        t = graphs.star(5)
        pi = stationary_distribution(t)
        assert pi[0] == pytest.approx(4 / 8)
        assert pi[1] == pytest.approx(1 / 8)

    def test_sums_to_one(self):
        t = graphs.barbell(4)
        assert stationary_distribution(t).sum() == pytest.approx(1.0)


class TestSpectralGap:
    def test_complete_graph_large_gap(self):
        gap = spectral_gap(graphs.complete(16))
        # Lazy walk on K_n: eigenvalues {1, (1 - 1/(n-1) …)}/2-ish; gap ≈ 1/2.
        assert gap > 0.4

    def test_hypercube_gap_is_inverse_dimension(self):
        gap = spectral_gap(graphs.hypercube(5))
        assert gap == pytest.approx(1.0 / 5.0, rel=1e-6)

    def test_barbell_gap_tiny(self):
        assert spectral_gap(graphs.barbell(8)) < 0.05

    def test_gap_positive_for_connected(self):
        assert spectral_gap(graphs.cycle(30)) > 0

    def test_large_graph_sparse_path(self):
        """n > 256 exercises the eigsh branch: C_17 x C_17 has a closed form.

        The simple walk's eigenvalues are (cos 2πj/17 + cos 2πk/17)/2, so
        the lazy walk's gap is (1 - cos(2π/17))/4.
        """
        t = graphs.torus(17, 17)
        expected = (1.0 - math.cos(2.0 * math.pi / 17.0)) / 4.0
        assert spectral_gap(t) == pytest.approx(expected, abs=1e-9)

    def test_large_hypercube_sparse_path(self):
        """Q_9 (512 nodes, eigsh branch): simple-walk λ₂ = 1 - 2/9, lazy gap 1/9."""
        assert spectral_gap(graphs.hypercube(9)) == pytest.approx(1.0 / 9.0, abs=1e-9)


class TestMixingTime:
    def test_expander_mixes_much_faster_than_cycle(self, rng):
        expander = graphs.random_regular(128, 6, rng)
        ring = graphs.cycle(128)
        tau_expander = estimate_mixing_time(expander)
        tau_ring = estimate_mixing_time(ring)
        assert tau_expander < 128  # strongly sublinear: O(log n) up to constants
        assert tau_ring > 5 * tau_expander  # Θ(n²) vs Θ(log n)

    def test_barbell_mixes_slowly(self):
        fast = estimate_mixing_time(graphs.complete(16))
        slow = estimate_mixing_time(graphs.barbell(8))
        assert slow > 5 * fast

    def test_at_least_one(self):
        assert estimate_mixing_time(graphs.complete(4)) >= 1


class TestRandomWalkSimulation:
    def test_endpoints_length_and_adjacency(self, rng):
        t = graphs.cycle(10)
        walk = RandomWalk(t)
        trajectory = [np.arange(10)]
        for _ in range(20):
            trajectory.append(walk.endpoints(trajectory[-1], 1, rng))
        assert len(trajectory) == 21
        for a, b in zip(trajectory, trajectory[1:]):
            assert len(b) == 10
            for x, y in zip(a.tolist(), b.tolist()):
                assert x == y or t.has_edge(x, y)

    def test_endpoint_matches_run_semantics(self, rng):
        t = graphs.complete(6)
        walk = RandomWalk(t)
        endpoint = walk.endpoint(2, 15, rng)
        assert 0 <= endpoint < 6

    def test_distribution_after_converges_to_stationary(self):
        t = graphs.complete(8)
        walk = RandomWalk(t)
        dist = walk.distribution_after(0, 40)
        assert np.allclose(dist, stationary_distribution(t), atol=1e-6)

    def test_distribution_is_probability(self):
        t = graphs.lollipop(4, 3)
        walk = RandomWalk(t)
        dist = walk.distribution_after(0, 7)
        assert dist.sum() == pytest.approx(1.0)
        assert (dist >= 0).all()

    def test_hit_probability_empty_targets(self):
        walk = RandomWalk(graphs.cycle(5))
        assert walk.hit_probability(0, 3, set()) == 0.0

    def test_hit_probability_matches_distribution(self):
        t = graphs.cycle(7)
        walk = RandomWalk(t)
        dist = walk.distribution_after(0, 5)
        targets = {1, 3}
        assert walk.hit_probability(0, 5, targets) == pytest.approx(
            dist[1] + dist[3]
        )

    def test_follow_choices_deterministic(self, rng):
        t = graphs.hypercube(3)
        walk = RandomWalk(t)
        choices = walk.choices_for_walk(12, rng)
        a = walk.follow_choices(0, choices)
        b = walk.follow_choices(0, choices)
        assert a == b

    def test_follow_choices_lazy_steps_stay(self):
        t = graphs.cycle(5)
        walk = RandomWalk(t)
        choices = [(True, 0.9)] * 6  # all lazy
        assert walk.follow_choices(3, choices) == 3

    def test_empirical_endpoint_distribution_close_to_exact(self, rng):
        t = graphs.star(6)
        walk = RandomWalk(t)
        steps = 4
        exact = walk.distribution_after(1, steps)
        samples = [walk.endpoint(1, steps, rng) for _ in range(4000)]
        empirical = np.bincount(samples, minlength=6) / 4000
        assert np.abs(empirical - exact).max() < 0.05


class TestColumnWalks:
    """``RandomWalk.endpoints``: every walk advances one array step per hop."""

    @pytest.mark.parametrize(
        "topology, start",
        [
            (graphs.star(6), 1),
            (graphs.cycle(7), 0),
            (graphs.hypercube(4), 5),
            (graphs.lollipop(5, 4), 8),  # uneven degrees: tail end of the stick
        ],
        ids=["star6", "cycle7", "hypercube4", "lollipop5-4"],
    )
    def test_endpoint_distribution_matches_exact(self, topology, start):
        walk = RandomWalk(topology)
        steps, count = 6, 20_000
        ends = walk.endpoints(np.full(count, start), steps, RandomSource(7))
        empirical = np.bincount(ends, minlength=topology.n) / count
        exact = walk.distribution_after(start, steps)
        # ~5σ at 20,000 samples (σ ≤ 0.5/√20,000 ≈ 0.0035), fixed beforehand.
        assert np.abs(empirical - exact).max() < 0.02

    def test_one_step_reaches_start_or_neighbour(self, rng):
        t = graphs.lollipop(5, 4)
        walk = RandomWalk(t)
        starts = np.repeat(np.arange(t.n), 50)
        ends = walk.endpoints(starts, 1, rng)
        for start, end in zip(starts.tolist(), ends.tolist()):
            assert end == start or t.has_edge(start, end)
        assert (ends != starts).any() and (ends == starts).any()

    def test_zero_length_returns_starts(self, rng):
        walk = RandomWalk(graphs.hypercube(3))
        starts = np.array([0, 3, 3, 7])
        assert walk.endpoints(starts, 0, rng).tolist() == [0, 3, 3, 7]

    def test_starts_left_unchanged(self, rng):
        walk = RandomWalk(graphs.cycle(9))
        starts = np.arange(9)
        walk.endpoints(starts, 12, rng)
        assert starts.tolist() == list(range(9))

    def test_same_seed_same_endpoints(self):
        walk = RandomWalk(graphs.lollipop(5, 4))
        starts = np.repeat(np.arange(9), 20)
        a = walk.endpoints(starts, 10, RandomSource(3))
        b = walk.endpoints(starts, 10, RandomSource(3))
        assert np.array_equal(a, b)

    @pytest.mark.parametrize(
        "topology", [graphs.cycle(7), graphs.lollipop(5, 4)], ids=["cycle7", "lollipop5-4"]
    )
    def test_distribution_after_matches_per_step_transpose(self, topology):
        """Hoisting Pᵀ out of the loop keeps the result bit-identical."""
        matrix = lazy_transition_matrix(topology)
        state = np.zeros(topology.n)
        state[0] = 1.0
        for _ in range(9):
            state = matrix.T @ state
        assert np.array_equal(RandomWalk(topology).distribution_after(0, 9), state)


def _reference_transition_matrix(topology):
    """P built node by node from sorted adjacency lists, as a plain loop."""
    explicit = graphs.as_explicit(topology)
    rows, cols, values = [], [], []
    for v in range(explicit.n):
        neighbours = explicit.adjacency_list(v)
        rows.append(v)
        cols.append(v)
        values.append(0.5)
        for u in neighbours:
            rows.append(v)
            cols.append(u)
            values.append(0.5 / len(neighbours))
    return sp.csr_matrix((values, (rows, cols)), shape=(explicit.n, explicit.n))


_FAMILIES = [
    (graphs.hypercube(6), "hypercube6"),
    (graphs.complete(17), "complete17"),
    (graphs.star(9), "star9"),
    (graphs.cycle(11), "cycle11"),
    (graphs.complete_bipartite(3, 5), "bipartite3-5"),
    (graphs.lollipop(5, 4), "lollipop5-4"),
    (graphs.barbell(6), "barbell6"),
    (graphs.torus(4, 5), "torus4x5"),
    (graphs.erdos_renyi(60, 0.2, RandomSource(3)), "gnp60"),
    (graphs.random_regular(40, 3, RandomSource(4)), "regular40-3"),
]


class TestPortTableTransitionMatrix:
    """``lazy_transition_matrix`` reads the port table, not adjacency lists."""

    @pytest.mark.parametrize(
        "topology", [t for t, _ in _FAMILIES], ids=[name for _, name in _FAMILIES]
    )
    def test_same_csr_arrays_as_reference_loop(self, topology):
        matrix = lazy_transition_matrix(topology)
        reference = _reference_transition_matrix(topology)
        for name in ("indptr", "indices", "data"):
            ours, theirs = getattr(matrix, name), getattr(reference, name)
            assert ours.dtype == theirs.dtype, name
            assert np.array_equal(ours, theirs), name

    def test_isolated_node_raises(self):
        with pytest.raises(ValueError, match="node 2 is isolated"):
            lazy_transition_matrix(ExplicitTopology(4, [(0, 1), (1, 3)]))


class TestBlockDistributions:
    """``distributions_after``: every start's distribution per block product."""

    CASES = [
        (graphs.hypercube(5), 9),
        (graphs.cycle(9), 13),
        (graphs.lollipop(5, 4), 11),
        (graphs.star(7), 6),
        (graphs.erdos_renyi(40, 0.15, RandomSource(5)), 10),
    ]
    IDS = ["hypercube5", "cycle9", "lollipop5-4", "star7", "gnp40"]

    def _check(self, topology, steps):
        walk = RandomWalk(topology)
        starts = np.array([0, topology.n - 1, 1, 0, topology.n // 2])
        columns = list(walk.distributions_after(starts, steps))
        assert len(columns) == len(starts)
        transposed = lazy_transition_matrix(topology).T
        for start, column in zip(starts.tolist(), columns):
            assert np.array_equal(column, walk.distribution_after(start, steps))
            state = np.zeros(topology.n)
            state[start] = 1.0
            for _ in range(steps):
                state = transposed @ state
            assert np.array_equal(column, state)

    @pytest.mark.parametrize("topology, steps", CASES, ids=IDS)
    def test_columns_match_one_start_chains(self, topology, steps):
        self._check(topology, steps)

    @pytest.mark.parametrize("topology, steps", CASES, ids=IDS)
    def test_columns_match_when_split_into_groups(self, topology, steps, monkeypatch):
        # Two columns per group: the five starts run as groups of 2, 2, 1.
        monkeypatch.setattr(random_walk, "BLOCK_BYTES", 2 * 2 * topology.n * 8)
        self._check(topology, steps)

    def test_group_width_follows_the_byte_budget(self, monkeypatch):
        monkeypatch.setattr(random_walk, "BLOCK_BYTES", 3 * 2 * 32 * 8)
        columns = list(RandomWalk(graphs.hypercube(5)).distributions_after(range(7), 4))
        # A column of an (n × width) C-ordered block steps width floats.
        widths = [column.strides[0] // column.itemsize for column in columns]
        assert widths == [3, 3, 3, 3, 3, 3, 1]

    def test_zero_steps_is_one_hot(self):
        columns = list(RandomWalk(graphs.cycle(5)).distributions_after([3, 0], 0))
        assert columns[0].tolist() == [0, 0, 0, 1, 0]
        assert columns[1].tolist() == [1, 0, 0, 0, 0]

    def test_no_starts_yields_nothing(self):
        assert list(RandomWalk(graphs.cycle(5)).distributions_after([], 3)) == []


class TestHitMass:
    @given(
        st.lists(
            st.floats(min_value=0.0, max_value=1.0, allow_subnormal=True),
            min_size=1,
            max_size=40,
        ),
        st.data(),
    )
    def test_cumsum_adds_left_to_right_like_sum(self, values, data):
        """``hit_mass`` is ``np.cumsum(x[idx])[-1]``: the Python ``sum``'s bits."""
        x = np.array(values)
        idx = data.draw(
            st.lists(st.integers(min_value=0, max_value=len(values) - 1), max_size=40)
        )
        assert hit_mass(x, np.array(idx, dtype=np.int64)) == sum(x[t] for t in idx)

    def test_hit_probability_sums_the_distribution_in_target_order(self):
        walk = RandomWalk(graphs.lollipop(5, 4))
        dist = walk.distribution_after(2, 7)
        targets = [8, 0, 3, 5]
        assert walk.hit_probability(2, 7, targets) == hit_mass(dist, np.array(targets))
        assert walk.hit_probability(2, 7, np.array(targets)) == hit_mass(
            dist, np.array(targets)
        )
        assert walk.hit_probability(2, 7, np.array([], dtype=np.int64)) == 0.0


class TestWalkMemo:
    """P and the default-accuracy τ live on the topology object."""

    def test_tau_estimated_once_per_topology_object(self, monkeypatch):
        calls = []
        original = random_walk.spectral_gap

        def counting(topology):
            calls.append(topology)
            return original(topology)

        monkeypatch.setattr(random_walk, "spectral_gap", counting)
        cube = graphs.hypercube(5)
        first = quantum_rwle(cube, RandomSource(1))
        second = quantum_rwle(cube, RandomSource(2))
        assert calls == [cube]
        assert first.meta["tau"] == second.meta["tau"]
        other = graphs.hypercube(5)
        third = quantum_rwle(other, RandomSource(1))
        assert calls == [cube, other]
        assert third.meta["tau"] == first.meta["tau"]

    def test_explicit_accuracy_is_not_memoized(self):
        cube = graphs.hypercube(4)
        default = estimate_mixing_time(cube)
        assert estimate_mixing_time(cube, accuracy=1e-9) > default
        assert estimate_mixing_time(cube) == default

    def test_transition_matrix_built_once_per_topology_object(self, monkeypatch):
        built = []
        original = random_walk.lazy_transition_matrix

        def counting(topology):
            built.append(topology)
            return original(topology)

        monkeypatch.setattr(random_walk, "lazy_transition_matrix", counting)
        cube = graphs.hypercube(4)
        for walk in (RandomWalk(cube), RandomWalk(cube)):
            walk.distribution_after(0, 3)
        spectral_gap(cube)
        assert built == [cube]

    @pytest.mark.parametrize(
        "topology",
        [graphs.hypercube(5), graphs.complete(9), graphs.cycle(8), graphs.star(6)],
        ids=["hypercube5", "complete9", "cycle8", "star6"],
    )
    def test_implicit_walks_never_build_adjacency_lists(self, topology, monkeypatch):
        def forbidden(topology):
            raise AssertionError("as_explicit called")

        monkeypatch.setattr(random_walk, "as_explicit", forbidden)
        walk = RandomWalk(topology)
        walk.endpoints(np.arange(topology.n), 5, RandomSource(0))
        assert len(list(walk.distributions_after([0, 1], 5))) == 2
        estimate_mixing_time(topology)
        with pytest.raises(AssertionError, match="as_explicit"):
            walk.topology
