"""Tests for the engine's array primitives (`repro.network.kernels`).

Each primitive matches a naive sequential reference on randomized
inputs, first-wins tie-breaking included, and the CSR table's routing
gather matches per-message port lookups.
"""

import numpy as np

from repro.network import graphs
from repro.network.batch import MessageBatch
from repro.network.kernels import (
    RADIX_MIN_ROWS,
    group_argmin_lex3,
    scatter_min_lex3,
    stable_receiver_order,
)


# -- naive references the primitives must match ------------------------------


def _naive_group_argmin_lex3(groups, w, a, b, size):
    pos = [-1] * size
    for i, g in enumerate(groups):
        p = pos[g]
        if p < 0 or (w[i], a[i], b[i]) < (w[p], a[p], b[p]):
            pos[g] = i
    return np.asarray(pos, dtype=np.int64)


def _random_rows(rng, count, size):
    groups = rng.integers(0, size, size=count)
    # Small value ranges force plenty of exact ties.
    w = rng.integers(0, 4, size=count).astype(np.float64)
    a = rng.integers(0, 3, size=count)
    b = rng.integers(0, 3, size=count)
    return groups, w, a, b


class TestKernelCorrectness:
    def test_route_csr_matches_port_table(self):
        from repro.util.rng import RandomSource

        topology = graphs.random_regular(24, 4, RandomSource(3))
        table = topology.port_table()
        rng = np.random.default_rng(7)
        senders = rng.integers(0, 24, size=60)
        ports = rng.integers(0, 4, size=60)
        receivers, arrivals = table.route(senders, ports)
        for i in range(60):
            expected = topology.neighbor_at_port(int(senders[i]), int(ports[i]))
            assert receivers[i] == expected
            assert topology.neighbor_at_port(
                int(receivers[i]), int(arrivals[i])
            ) == senders[i]

    def test_stable_receiver_order(self):
        rng = np.random.default_rng(11)
        cut, wide = RADIX_MIN_ROWS, 1 << 16
        cases = [(0, 5), (7, 3), (200, 16), (64, 4096)]
        # Both sides of the 16-bit key cut-over's row and group bounds.
        cases += [
            (rows, size)
            for rows in (cut - 1, cut, 4 * cut)
            for size in (300, wide, wide + 1)
        ]
        for count, size in cases:
            receivers = rng.integers(0, size, size=count)
            if count:
                receivers[count // 2] = size - 1  # the largest id must not wrap
            for rows in (receivers, np.sort(receivers)):
                order = stable_receiver_order(rows, size)
                expected = np.argsort(rows, kind="stable")
                assert np.array_equal(order, expected), (count, size)

    def test_group_argmin_lex3_first_wins(self):
        rng = np.random.default_rng(17)
        for count, size in [(0, 4), (50, 6), (400, 12)]:
            groups, w, a, b = _random_rows(rng, count, size)
            pos = group_argmin_lex3(groups, w, a, b, size)
            expected = _naive_group_argmin_lex3(
                groups.tolist(), w.tolist(), a.tolist(), b.tolist(), size
            )
            assert np.array_equal(pos, expected)

    def test_scatter_min_lex3(self):
        rng = np.random.default_rng(19)
        size = 8
        groups, w, a, b = _random_rows(rng, 300, size)
        best_w = np.full(size, np.inf)
        best_a = np.full(size, 2**62, dtype=np.int64)
        best_b = np.full(size, 2**62, dtype=np.int64)
        # Pre-seed one slot so "not better" rows must leave it alone.
        best_w[0], best_a[0], best_b[0] = -1.0, 0, 0
        expect = [(best_w[g], best_a[g], best_b[g]) for g in range(size)]
        for i in range(300):
            g = groups[i]
            if (w[i], a[i], b[i]) < expect[g]:
                expect[g] = (w[i], a[i], b[i])
        scatter_min_lex3(best_w, best_a, best_b, groups, w, a, b)
        for g in range(size):
            assert (best_w[g], best_a[g], best_b[g]) == expect[g]


# -- MessageBatch extras & empty-batch caching --------------------------------


class TestMessageBatchExtras:
    def test_empty_is_cached_per_mode(self):
        assert MessageBatch.empty() is MessageBatch.empty()
        assert MessageBatch.empty(True) is MessageBatch.empty(True)
        assert MessageBatch.empty() is not MessageBatch.empty(True)
        assert len(MessageBatch.empty()) == 0
        assert MessageBatch.empty(True).payloads == []

    def test_take_gathers_extras(self):
        batch = MessageBatch(
            senders=np.arange(5),
            ports=np.zeros(5, dtype=np.int64),
            kinds=np.zeros(5, dtype=np.int64),
            values=np.arange(5) * 10,
            extras={"hops": np.arange(5) + 100, "w": np.arange(5) * 0.5},
        )
        sub = batch.take(np.asarray([3, 1]))
        assert sub.values.tolist() == [30, 10]
        assert sub.extras["hops"].tolist() == [103, 101]
        assert sub.extras["w"].tolist() == [1.5, 0.5]
        assert sub.extras["w"].dtype == np.float64

    def test_take_skips_absent_optional_columns(self):
        batch = MessageBatch(
            senders=np.arange(4),
            ports=np.zeros(4, dtype=np.int64),
            kinds=np.zeros(4, dtype=np.int64),
            values=np.arange(4),
        )
        sub = batch.take(np.asarray([0, 2]))
        assert sub.bits is None
        assert sub.payloads is None
        assert sub.extras is None

    def test_take_nothing_returns_shared_empty(self):
        batch = MessageBatch(
            senders=np.arange(3),
            ports=np.zeros(3, dtype=np.int64),
            kinds=np.zeros(3, dtype=np.int64),
            values=np.arange(3),
            extras={"hops": np.arange(3)},
        )
        assert batch.take(np.empty(0, dtype=np.int64)) is MessageBatch.empty()
