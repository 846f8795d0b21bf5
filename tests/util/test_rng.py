"""Tests for repro.util.rng."""

import numpy as np
import pytest

from repro.core.candidates import rank_space
from repro.util.rng import RandomSource, SharedCoin


class TestRandomSource:
    def test_same_seed_reproduces_stream(self):
        a = RandomSource(7)
        b = RandomSource(7)
        assert [a.uniform_int(0, 100) for _ in range(20)] == [
            b.uniform_int(0, 100) for _ in range(20)
        ]

    def test_different_seeds_differ(self):
        a = RandomSource(1)
        b = RandomSource(2)
        assert [a.uniform_int(0, 10**9) for _ in range(5)] != [
            b.uniform_int(0, 10**9) for _ in range(5)
        ]

    def test_spawn_children_are_independent_and_reproducible(self):
        children_a = RandomSource(3).spawn_many(4)
        children_b = RandomSource(3).spawn_many(4)
        streams_a = [[c.uniform_int(0, 10**9) for _ in range(5)] for c in children_a]
        streams_b = [[c.uniform_int(0, 10**9) for _ in range(5)] for c in children_b]
        assert streams_a == streams_b
        # distinct children produce distinct streams
        assert streams_a[0] != streams_a[1]

    def test_spawn_differs_from_parent_stream(self):
        parent = RandomSource(5)
        child = parent.spawn()
        assert [parent.uniform_int(0, 10**9) for _ in range(5)] != [
            child.uniform_int(0, 10**9) for _ in range(5)
        ]

    def test_bernoulli_bounds(self):
        src = RandomSource(0)
        assert all(not src.bernoulli(0.0) for _ in range(50))
        assert all(src.bernoulli(1.0) for _ in range(50))

    def test_bernoulli_rejects_bad_probability(self):
        with pytest.raises(ValueError):
            RandomSource(0).bernoulli(1.5)
        with pytest.raises(ValueError):
            RandomSource(0).bernoulli(-0.1)

    def test_bernoulli_rate_roughly_matches(self):
        src = RandomSource(42)
        hits = sum(src.bernoulli(0.3) for _ in range(5000))
        assert 0.25 < hits / 5000 < 0.35

    def test_uniform_int_inclusive_range(self):
        src = RandomSource(9)
        values = {src.uniform_int(3, 5) for _ in range(200)}
        assert values == {3, 4, 5}

    def test_uniform_int_single_point(self):
        assert RandomSource(0).uniform_int(4, 4) == 4

    def test_uniform_int_rejects_empty_range(self):
        with pytest.raises(ValueError):
            RandomSource(0).uniform_int(5, 4)

    def test_uniform_in_unit_interval(self):
        src = RandomSource(1)
        assert all(0.0 <= src.uniform() < 1.0 for _ in range(100))

    def test_sample_without_replacement_distinct(self):
        src = RandomSource(2)
        sample = src.sample_without_replacement(50, 20)
        assert len(set(int(x) for x in sample)) == 20
        assert all(0 <= x < 50 for x in sample)

    def test_sample_without_replacement_rejects_oversample(self):
        with pytest.raises(ValueError):
            RandomSource(0).sample_without_replacement(3, 5)

    def test_shuffled_is_permutation(self):
        src = RandomSource(3)
        items = list(range(30))
        shuffled = src.shuffled(items)
        assert sorted(shuffled) == items
        assert items == list(range(30))  # original untouched

    def test_seed_entropy_exposed(self):
        assert RandomSource(123).seed_entropy == 123

    def test_seed_sequence_accepted(self):
        seq = np.random.SeedSequence(77)
        src = RandomSource(seq)
        assert src.seed_entropy == 77


class TestUniformInts:
    """The id column behind ring ids: {1, …, n⁴} as one draw."""

    #: Largest n whose rank space {1, …, n⁴} still fits int64.
    N_INT64 = 55_108

    def test_boundary_of_int64_rank_space(self):
        assert rank_space(self.N_INT64) < 2**63 <= rank_space(self.N_INT64 + 1)

    def test_deterministic_per_seed(self):
        space = rank_space(self.N_INT64)
        a = RandomSource(11).uniform_ints(1, space, 500)
        b = RandomSource(11).uniform_ints(1, space, 500)
        c = RandomSource(12).uniform_ints(1, space, 500)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_int64_column_below_two_to_the_63(self):
        space = rank_space(self.N_INT64)
        column = RandomSource(4).uniform_ints(1, space, 2000)
        assert column.dtype == np.int64
        assert column.shape == (2000,)
        assert column.min() >= 1 and column.max() <= space

    def test_inclusive_bounds(self):
        column = RandomSource(9).uniform_ints(3, 5, 300)
        assert set(column.tolist()) == {3, 4, 5}

    @pytest.mark.parametrize("n", [N_INT64 + 1, 2**20])
    def test_exact_python_ints_past_two_to_the_63(self, n):
        space = rank_space(n)
        column = RandomSource(5).uniform_ints(1, space, 200)
        again = RandomSource(5).uniform_ints(1, space, 200)
        assert column.dtype == object
        assert all(type(value) is int for value in column)
        assert all(1 <= value <= space for value in column)
        assert column.tolist() == again.tolist()

    def test_values_past_int64_are_drawn(self):
        space = rank_space(2**20)  # 2⁸⁰: almost every draw exceeds 2⁶³
        column = RandomSource(6).uniform_ints(1, space, 50)
        assert sum(value >= 2**63 for value in column) > 40

    def test_rejects_empty_range(self):
        with pytest.raises(ValueError):
            RandomSource(0).uniform_ints(5, 4, 3)


class TestSharedCoin:
    def test_values_in_unit_interval(self):
        coin = SharedCoin(RandomSource(0))
        assert all(0.0 <= coin.next_uniform() < 1.0 for _ in range(50))

    def test_flip_counter(self):
        coin = SharedCoin(RandomSource(0))
        coin.next_uniform()
        coin.next_bits(3)
        assert coin.flips == 4

    def test_bits_are_binary(self):
        coin = SharedCoin(RandomSource(1))
        assert set(coin.next_bits(200)) <= {0, 1}

    def test_same_seed_same_shared_sequence(self):
        a = SharedCoin(RandomSource(5))
        b = SharedCoin(RandomSource(5))
        assert [a.next_uniform() for _ in range(10)] == [
            b.next_uniform() for _ in range(10)
        ]
