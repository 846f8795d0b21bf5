"""Property-based tests for the phase-estimation outcome law."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.quantum.phase_estimation import (
    counting_estimate_from_outcome,
    eigenphase_turns,
    qpe_distribution,
    sample_counting_estimate,
    sample_counting_estimates,
)
from repro.util.rng import RandomSource

phases = st.floats(min_value=0.0, max_value=0.9999, allow_nan=False)
sizes = st.integers(min_value=1, max_value=512)


class TestQPEDistributionProperties:
    @given(phases, sizes)
    @settings(max_examples=60)
    def test_normalized_probability_vector(self, omega, P):
        distribution = qpe_distribution(omega, P)
        assert np.all(distribution >= -1e-12)
        assert distribution.sum() == np.float64(1.0) or abs(
            distribution.sum() - 1.0
        ) < 1e-9

    @given(sizes, st.integers(min_value=0, max_value=511))
    @settings(max_examples=60)
    def test_exact_grid_phase_deterministic(self, P, y_raw):
        y = y_raw % P
        distribution = qpe_distribution(y / P, P)
        assert distribution[y] > 1.0 - 1e-9

    @given(phases, st.integers(min_value=4, max_value=256))
    @settings(max_examples=60)
    def test_majority_mass_within_one_bin(self, omega, P):
        """Phase estimation puts ≥ 8/π² of the mass on the two bracketing
        outcomes — the standard QPE guarantee."""
        distribution = qpe_distribution(omega, P)
        lo = int(np.floor(omega * P)) % P
        hi = (lo + 1) % P
        assert distribution[lo] + distribution[hi] >= 8 / np.pi**2 - 1e-9


class TestCountingDecoder:
    @given(
        st.integers(min_value=0, max_value=1000),
        st.integers(min_value=1, max_value=1000),
    )
    @settings(max_examples=60)
    def test_eigenphase_in_first_half_turn(self, t_raw, N):
        t = t_raw % (N + 1)
        omega = eigenphase_turns(t, N)
        assert 0.0 <= omega <= 0.5

    @given(st.integers(min_value=1, max_value=256), st.integers(min_value=1, max_value=10**6))
    @settings(max_examples=60)
    def test_estimate_range(self, P, N):
        for y in range(0, P, max(1, P // 7)):
            estimate = counting_estimate_from_outcome(y, N, P)
            assert -1e-9 <= estimate <= N + 1e-9

    @given(st.integers(min_value=2, max_value=128))
    @settings(max_examples=40)
    def test_estimate_symmetric_in_y(self, P):
        """t̃(y) = t̃(P − y): conjugate eigenphases decode identically."""
        N = 1000
        for y in range(1, P):
            a = counting_estimate_from_outcome(y, N, P)
            b = counting_estimate_from_outcome(P - y, N, P)
            assert abs(a - b) < 1e-6


def _choice_estimate(t, N, P, rng):
    """One Count(P) outcome drawn with ``Generator.choice`` on the exact law."""
    omega = eigenphase_turns(t, N)
    if 0 < t < N and rng.bernoulli(0.5):
        omega = 1.0 - omega
    y = int(rng.generator.choice(P, p=qpe_distribution(omega, P)))
    return counting_estimate_from_outcome(y, N, P)


class TestColumnSampling:
    @given(
        st.integers(min_value=0, max_value=300),
        st.integers(min_value=1, max_value=300),
        st.integers(min_value=1, max_value=300),
        st.integers(min_value=1, max_value=40),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_column_equals_one_run_draws(self, t_raw, N, P, runs, seed):
        """``runs`` estimates in one column are the ``runs`` one-run draws
        of a source with the same seed, and leave it in the same state."""
        t = t_raw % (N + 1)
        column_rng = RandomSource(seed)
        column = sample_counting_estimates(t, N, P, column_rng, runs)
        for one_run in (sample_counting_estimate, _choice_estimate):
            rng = RandomSource(seed)
            draws = [one_run(t, N, P, rng) for _ in range(runs)]
            assert column.tolist() == draws
            assert rng.generator.bit_generator.state == (
                column_rng.generator.bit_generator.state
            )
