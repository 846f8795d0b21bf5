"""Tests for repro.quantum.phase_estimation (quantum counting law)."""

import math

import numpy as np
import pytest

from repro.quantum import phase_estimation
from repro.quantum.phase_estimation import (
    counting_error_bound,
    counting_estimate_from_outcome,
    eigenphase_turns,
    qpe_distribution,
    sample_counting_estimate,
    sample_counting_estimates,
)
from repro.util.rng import RandomSource


class TestEigenphase:
    def test_endpoints(self):
        assert eigenphase_turns(0, 100) == 0.0
        assert eigenphase_turns(100, 100) == pytest.approx(0.5)

    def test_quarter(self):
        assert eigenphase_turns(25, 100) == pytest.approx(
            math.asin(0.5) / math.pi
        )

    def test_rejects_bad_counts(self):
        with pytest.raises(ValueError):
            eigenphase_turns(-1, 10)
        with pytest.raises(ValueError):
            eigenphase_turns(11, 10)


class TestQPEDistribution:
    def test_normalized(self):
        for omega in (0.0, 0.13, 0.25, 0.4999):
            assert qpe_distribution(omega, 32).sum() == pytest.approx(1.0)

    def test_exact_phase_is_deterministic(self):
        """When ω = y/P exactly, outcome y has probability 1."""
        distribution = qpe_distribution(3 / 16, 16)
        assert distribution[3] == pytest.approx(1.0)

    def test_concentrates_near_true_phase(self):
        omega = 0.2371
        P = 64
        distribution = qpe_distribution(omega, P)
        best = int(np.argmax(distribution))
        assert abs(best / P - omega) < 1.0 / P
        # The two outcomes bracketing ω carry ≥ 8/π² of the mass.
        lo = math.floor(omega * P) % P
        hi = (lo + 1) % P
        assert distribution[lo] + distribution[hi] >= 8 / math.pi**2 - 1e-9

    def test_rejects_bad_P(self):
        with pytest.raises(ValueError):
            qpe_distribution(0.1, 0)


class TestCountingEstimate:
    def test_decoder_formula(self):
        assert counting_estimate_from_outcome(0, 100, 16) == 0.0
        assert counting_estimate_from_outcome(8, 100, 16) == pytest.approx(100.0)

    def test_zero_count_always_estimates_zero(self, ):
        rng = RandomSource(0)
        for _ in range(20):
            assert sample_counting_estimate(0, 50, 16, rng) == 0.0

    def test_full_count_estimates_full(self):
        rng = RandomSource(1)
        for _ in range(20):
            estimate = sample_counting_estimate(50, 50, 16, rng)
            assert estimate == pytest.approx(50.0, abs=1e-9)

    def test_theorem_4_2_error_law(self):
        """|t − t̃| < (2π/P)√(tN) + (π²/P²)N with probability ≥ 8/π²."""
        rng = RandomSource(42)
        t, N, P = 30, 200, 64
        bound = counting_error_bound(t, N, P)
        trials = 600
        hits = sum(
            abs(sample_counting_estimate(t, N, P, rng) - t) < bound
            for _ in range(trials)
        )
        # 8/π² ≈ 0.81; with 600 trials the rate stays comfortably above 0.75.
        assert hits / trials > 0.75

    def test_estimates_unbiased_enough_for_median(self):
        """The median of many estimates lands within the error bound."""
        rng = RandomSource(7)
        t, N, P = 40, 256, 128
        estimates = [sample_counting_estimate(t, N, P, rng) for _ in range(101)]
        median = sorted(estimates)[50]
        assert abs(median - t) < counting_error_bound(t, N, P)

    def test_larger_P_tightens_estimates(self):
        rng = RandomSource(3)
        t, N = 64, 512
        coarse = [abs(sample_counting_estimate(t, N, 16, rng) - t) for _ in range(200)]
        fine = [abs(sample_counting_estimate(t, N, 256, rng) - t) for _ in range(200)]
        assert np.median(fine) < np.median(coarse)

    def test_error_bound_formula(self):
        assert counting_error_bound(25, 100, 10) == pytest.approx(
            (2 * math.pi / 10) * 50 + (math.pi**2 / 100) * 100
        )


class TestCachedLaw:
    """The cached outcome CDFs keep ``Generator.choice``'s checks on the law
    and cannot be written through."""

    @pytest.fixture
    def law(self, monkeypatch):
        """Serve a chosen outcome law in place of the exact one."""
        served = {}
        monkeypatch.setattr(
            phase_estimation, "qpe_distribution", lambda omega, P: served["law"]
        )
        phase_estimation._outcome_cdf.cache_clear()
        yield served
        phase_estimation._outcome_cdf.cache_clear()

    def _assert_rejected(self, law, served):
        served["law"] = law
        with pytest.raises(ValueError):
            np.random.default_rng(0).choice(len(law), p=law)
        with pytest.raises(ValueError):
            sample_counting_estimates(0, 8, len(law), RandomSource(0), 3)

    def test_rejects_non_finite_law(self, law):
        self._assert_rejected(np.array([0.5, np.nan, 0.5]), law)
        self._assert_rejected(np.array([0.5, np.inf, 0.5]), law)

    def test_rejects_negative_law(self, law):
        self._assert_rejected(np.array([0.6, 0.6, -0.2]), law)

    def test_rejects_mass_away_from_one(self, law):
        self._assert_rejected(np.array([0.5, 0.5 + 1e-6]), law)
        law["law"] = np.array([0.5, 0.5 + 1e-10])  # within √eps, as choice allows
        assert sample_counting_estimates(0, 8, 2, RandomSource(0), 3).shape == (3,)

    def test_cached_cdf_is_read_only(self):
        sample_counting_estimates(3, 16, 8, RandomSource(0), 5)
        cdf = phase_estimation._outcome_cdf(3, 16, 8, False)
        assert not cdf.flags.writeable
        with pytest.raises(ValueError):
            cdf[0] = 1.0
        assert cdf[-1] == 1.0

    def test_rejects_empty_column(self):
        with pytest.raises(ValueError):
            sample_counting_estimates(3, 16, 8, RandomSource(0), 0)
