"""Tests for the compiled kernel tier (`repro.network.kernels`).

Three layers:

* **selection semantics** — ``resolve_kernel`` / ``get_kernels`` honour the
  ``REPRO_KERNEL`` env default, ``auto`` resolves to whatever is installed,
  and an explicit ``numba`` request errors out when numba is absent
  instead of silently degrading;
* **kernel correctness** — every numpy kernel matches a naive sequential
  reference on randomized inputs (first-wins tie-breaking included); when
  numba is importable the compiled twins must be bit-identical to numpy;
* **invariance** — the kernel knob never leaks into results: the engine
  produces identical trials under either tier, and
  :class:`~repro.runtime.store.ResultStore` cache identities ignore
  ``REPRO_KERNEL`` entirely.
"""

import os

import numpy as np
import pytest

from repro.network import graphs
from repro.network.batch import MessageBatch
from repro.network.kernels import (
    KERNEL_CHOICES,
    RADIX_MIN_ROWS,
    KernelSet,
    default_kernel,
    get_kernels,
    numba_available,
    resolve_kernel,
)


@pytest.fixture
def clean_kernel_env(monkeypatch):
    monkeypatch.delenv("REPRO_KERNEL", raising=False)


class TestSelection:
    def test_default_is_auto(self, clean_kernel_env):
        assert default_kernel() == "auto"

    def test_env_overrides_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_KERNEL", "numpy")
        assert default_kernel() == "numpy"
        assert resolve_kernel() == "numpy"

    def test_bad_env_value_raises(self, monkeypatch):
        monkeypatch.setenv("REPRO_KERNEL", "fortran")
        with pytest.raises(ValueError, match="REPRO_KERNEL"):
            default_kernel()

    def test_bad_explicit_name_raises(self):
        with pytest.raises(ValueError, match="kernel must be one of"):
            resolve_kernel("fortran")

    def test_auto_resolves_to_installed_tier(self, clean_kernel_env):
        expected = "numba" if numba_available() else "numpy"
        assert resolve_kernel("auto") == expected
        assert resolve_kernel(None) == expected

    def test_numpy_always_available(self):
        assert resolve_kernel("numpy") == "numpy"
        assert get_kernels("numpy").name == "numpy"
        assert not get_kernels("numpy").is_numba

    @pytest.mark.skipif(
        numba_available(), reason="numba installed: explicit request succeeds"
    )
    def test_explicit_numba_without_numba_raises(self):
        with pytest.raises(RuntimeError, match="numba is not installed"):
            resolve_kernel("numba")
        with pytest.raises(RuntimeError, match="numba is not installed"):
            get_kernels("numba")

    @pytest.mark.skipif(
        not numba_available(), reason="needs the optional numba dependency"
    )
    def test_explicit_numba_with_numba(self):
        kernels = get_kernels("numba")
        assert kernels.name == "numba"
        assert kernels.is_numba

    def test_singletons_are_cached(self):
        assert get_kernels("numpy") is get_kernels("numpy")

    def test_choices_tuple(self):
        assert KERNEL_CHOICES == ("auto", "numba", "numpy")


# -- naive references the kernels must match ---------------------------------


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


def _all_kernel_sets():
    sets = [get_kernels("numpy")]
    if numba_available():
        sets.append(get_kernels("numba"))
    return sets


@pytest.mark.parametrize("kernels", _all_kernel_sets(), ids=lambda k: k.name)
class TestKernelCorrectness:
    def test_route_csr_matches_port_table(self, kernels):
        from repro.util.rng import RandomSource

        topology = graphs.random_regular(24, 4, RandomSource(3))
        table = topology.port_table()
        rng = np.random.default_rng(7)
        senders = rng.integers(0, 24, size=60)
        ports = rng.integers(0, 4, size=60)
        receivers, arrivals = table.route(senders, ports, kernels)
        for i in range(60):
            expected = topology.neighbor_at_port(int(senders[i]), int(ports[i]))
            assert receivers[i] == expected
            assert topology.neighbor_at_port(
                int(receivers[i]), int(arrivals[i])
            ) == senders[i]

    def test_stable_receiver_order(self, kernels):
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
                order = kernels.stable_receiver_order(rows, size)
                expected = np.argsort(rows, kind="stable")
                assert np.array_equal(order, expected), (count, size)

    def test_scatter_max_min(self, kernels):
        rng = np.random.default_rng(13)
        idx = rng.integers(0, 10, size=120)
        values = rng.integers(-50, 50, size=120)
        hi = np.full(10, -1000, dtype=np.int64)
        lo = np.full(10, 1000, dtype=np.int64)
        kernels.scatter_max(hi, idx, values)
        kernels.scatter_min(lo, idx, values)
        expect_hi = np.full(10, -1000, dtype=np.int64)
        expect_lo = np.full(10, 1000, dtype=np.int64)
        np.maximum.at(expect_hi, idx, values)
        np.minimum.at(expect_lo, idx, values)
        assert np.array_equal(hi, expect_hi)
        assert np.array_equal(lo, expect_lo)

    def test_group_argmin_lex3_first_wins(self, kernels):
        rng = np.random.default_rng(17)
        for count, size in [(0, 4), (50, 6), (400, 12)]:
            groups, w, a, b = _random_rows(rng, count, size)
            pos = kernels.group_argmin_lex3(groups, w, a, b, size)
            expected = _naive_group_argmin_lex3(
                groups.tolist(), w.tolist(), a.tolist(), b.tolist(), size
            )
            assert np.array_equal(pos, expected)

    def test_scatter_min_lex3(self, kernels):
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
        kernels.scatter_min_lex3(best_w, best_a, best_b, groups, w, a, b)
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


# -- invariance: the knob never changes results -------------------------------


def _lcr_trial(kernel):
    from repro.classical.leader_election.ring import lcr_ring
    from repro.util.rng import RandomSource

    os.environ["REPRO_KERNEL"] = kernel
    try:
        result = lcr_ring(48, RandomSource(23), node_api="batch")
    finally:
        del os.environ["REPRO_KERNEL"]
    return (
        result.messages,
        result.rounds,
        result.leader,
        dict(result.statuses),
        dict(result.meta),
    )


class TestInvariance:
    def test_engine_trials_identical_across_tiers(self):
        tiers = ["numpy", "auto"]
        snapshots = [_lcr_trial(tier) for tier in tiers]
        assert snapshots[0] == snapshots[1]

    def test_store_identity_ignores_kernel(self, monkeypatch, tmp_path):
        from repro.runtime.catalog import get_scenario
        from repro.runtime.store import ResultStore

        scenario = get_scenario("mst/boruvka-engine")
        store = ResultStore(root=tmp_path)

        monkeypatch.setenv("REPRO_KERNEL", "numpy")
        identity_numpy = ResultStore.identity(scenario, 32, 0)
        path_numpy = store.path_for(scenario, 32, 0)
        monkeypatch.setenv("REPRO_KERNEL", "auto")
        identity_auto = ResultStore.identity(scenario, 32, 0)
        path_auto = store.path_for(scenario, 32, 0)

        assert identity_numpy == identity_auto
        assert path_numpy == path_auto
        assert "kernel" not in identity_numpy
