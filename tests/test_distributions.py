"""Tests for the empirical traffic distributions."""

import random

import pytest
from hypothesis import given, strategies as st

from repro.workloads.distributions import (
    BACKGROUND_FLOW_SIZE_CDF,
    BACKGROUND_INTERARRIVAL_CDF,
    SHORT_MESSAGE_SIZE_CDF,
    EmpiricalCDF,
    exponential_interarrival_ns,
    sample_flow_size_bytes,
)


class TestValidation:
    def test_needs_two_points(self):
        with pytest.raises(ValueError):
            EmpiricalCDF([(1.0, 1.0)])

    def test_values_strictly_increasing(self):
        with pytest.raises(ValueError):
            EmpiricalCDF([(2.0, 0.0), (2.0, 1.0)])

    def test_probs_non_decreasing(self):
        with pytest.raises(ValueError):
            EmpiricalCDF([(1.0, 0.5), (2.0, 0.4), (3.0, 1.0)])

    def test_last_prob_must_be_one(self):
        with pytest.raises(ValueError):
            EmpiricalCDF([(1.0, 0.0), (2.0, 0.9)])

    def test_log_interp_needs_positive_values(self):
        with pytest.raises(ValueError):
            EmpiricalCDF([(0.0, 0.0), (1.0, 1.0)], log_interp=True)


class TestQuantile:
    CDF = EmpiricalCDF([(10.0, 0.0), (100.0, 0.5), (1000.0, 1.0)])

    def test_endpoints(self):
        assert self.CDF.quantile(0.0) == 10.0
        assert self.CDF.quantile(1.0) == 1000.0

    def test_knot(self):
        assert self.CDF.quantile(0.5) == pytest.approx(100.0)

    def test_log_interpolation_midpoint(self):
        # halfway in probability between 10 and 100 -> geometric mean
        assert self.CDF.quantile(0.25) == pytest.approx((10 * 100) ** 0.5)

    def test_linear_interpolation(self):
        cdf = EmpiricalCDF([(0.0, 0.0), (10.0, 1.0)], log_interp=False)
        assert cdf.quantile(0.3) == pytest.approx(3.0)

    def test_bounds_validated(self):
        with pytest.raises(ValueError):
            self.CDF.quantile(-0.1)
        with pytest.raises(ValueError):
            self.CDF.quantile(1.1)

    @given(st.floats(min_value=0.0, max_value=1.0))
    def test_quantile_within_support(self, u):
        v = self.CDF.quantile(u)
        assert 10.0 <= v <= 1000.0

    @given(st.floats(min_value=0, max_value=1), st.floats(min_value=0, max_value=1))
    def test_quantile_monotone(self, u1, u2):
        lo, hi = sorted((u1, u2))
        assert self.CDF.quantile(lo) <= self.CDF.quantile(hi)


class TestSampling:
    def test_samples_within_support(self):
        rng = random.Random(1)
        for _ in range(100):
            v = BACKGROUND_FLOW_SIZE_CDF.sample(rng)
            assert 1024 <= v <= 50 * 1024 * 1024

    def test_sample_flow_size_at_least_one(self):
        tiny = EmpiricalCDF([(0.1, 0.0), (0.2, 1.0)])
        assert sample_flow_size_bytes(random.Random(1), tiny) == 1

    def test_deterministic_given_seed(self):
        a = [BACKGROUND_FLOW_SIZE_CDF.sample(random.Random(7)) for _ in range(5)]
        b = [BACKGROUND_FLOW_SIZE_CDF.sample(random.Random(7)) for _ in range(5)]
        assert a == b

    def test_heavy_tail_shape(self):
        """Most flows are small, most bytes live in the tail (DCTCP paper)."""
        rng = random.Random(3)
        sizes = sorted(BACKGROUND_FLOW_SIZE_CDF.sample(rng) for _ in range(4000))
        median = sizes[len(sizes) // 2]
        assert median < 100 * 1024  # median well under 100 KB
        top_decile_bytes = sum(sizes[int(0.9 * len(sizes)):])
        assert top_decile_bytes > 0.5 * sum(sizes)

    def test_short_message_band(self):
        rng = random.Random(4)
        for _ in range(100):
            v = SHORT_MESSAGE_SIZE_CDF.sample(rng)
            assert 50 * 1024 <= v <= 1024 * 1024

    def test_interarrival_support(self):
        rng = random.Random(5)
        for _ in range(100):
            v = BACKGROUND_INTERARRIVAL_CDF.sample(rng)
            assert 1_000_000 <= v <= 300_000_000


class TestExponential:
    def test_positive(self):
        rng = random.Random(1)
        for _ in range(100):
            assert exponential_interarrival_ns(rng, 1_000_000) >= 1

    def test_mean_roughly_correct(self):
        rng = random.Random(2)
        n = 5000
        mean = sum(exponential_interarrival_ns(rng, 10_000_000) for _ in range(n)) / n
        assert mean == pytest.approx(10_000_000, rel=0.1)

    def test_rejects_bad_mean(self):
        with pytest.raises(ValueError):
            exponential_interarrival_ns(random.Random(1), 0)
