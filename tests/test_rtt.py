"""Tests for RFC 6298 RTT estimation."""

import pytest
from hypothesis import example, given, strategies as st

from repro.sim.units import MS, SEC, US
from repro.tcp.rtt import RttEstimator


def make(rto_min=200 * MS, rto_max=60 * SEC, initial=1 * SEC, seed=None):
    return RttEstimator(rto_min, rto_max, initial, seed)


class TestFirstSample:
    def test_initial_rto_before_samples(self):
        est = make(initial=3 * SEC, rto_min=1 * MS)
        assert est.rto_ns == 3 * SEC

    def test_first_sample_sets_srtt_and_var(self):
        est = make(rto_min=1)
        est.add_sample(100 * US)
        assert est.srtt_ns == 100 * US
        assert est.rttvar_ns == 50 * US
        # RTO = srtt + 4*rttvar = 300 us
        assert est.rto_ns == 300 * US

    def test_seed_counts_as_sample(self):
        est = make(seed=100 * US)
        assert est.samples == 1
        assert est.srtt_ns == 100 * US


class TestSmoothing:
    def test_constant_samples_converge(self):
        est = make(rto_min=1)
        for _ in range(100):
            est.add_sample(100 * US)
        assert est.srtt_ns == pytest.approx(100 * US, rel=1e-6)
        assert est.rttvar_ns == pytest.approx(0, abs=100)

    def test_ewma_gains(self):
        est = make(rto_min=1)
        est.add_sample(100 * US)
        est.add_sample(200 * US)
        # srtt = 7/8*100 + 1/8*200 = 112.5 us
        assert est.srtt_ns == pytest.approx(112_500)
        # rttvar = 3/4*50 + 1/4*|100-200| = 62.5 us
        assert est.rttvar_ns == pytest.approx(62_500)

    def test_rejects_negative_sample(self):
        with pytest.raises(ValueError):
            make().add_sample(-1)


class TestClamping:
    def test_rto_min_clamp(self):
        est = make(rto_min=200 * MS)
        est.add_sample(100 * US)
        assert est.rto_ns == 200 * MS

    def test_rto_max_clamp(self):
        est = make(rto_min=1, rto_max=1 * SEC)
        est.add_sample(10 * SEC)
        assert est.rto_ns == 1 * SEC

    @given(st.lists(st.integers(min_value=0, max_value=10 * SEC), min_size=1, max_size=50))
    def test_rto_always_within_bounds(self, samples):
        est = make(rto_min=10 * MS, rto_max=5 * SEC)
        for s in samples:
            est.add_sample(s)
        assert 10 * MS <= est.rto_ns <= 5 * SEC


class TestBackoff:
    def test_exponential_doubling(self):
        est = make(rto_min=200 * MS, seed=100 * US)
        assert est.backed_off_rto_ns(0) == 200 * MS
        assert est.backed_off_rto_ns(1) == 400 * MS
        assert est.backed_off_rto_ns(2) == 800 * MS

    def test_backoff_capped_at_max(self):
        est = make(rto_min=200 * MS, rto_max=1 * SEC, seed=100 * US)
        assert est.backed_off_rto_ns(10) == 1 * SEC

    def test_negative_exponent_treated_as_zero(self):
        est = make(seed=100 * US)
        assert est.backed_off_rto_ns(-3) == est.rto_ns


def rfc6298_rtos(samples, rto_min, rto_max, initial):
    """RTO before any sample, then after each one, straight from RFC 6298's
    equations (RTTVAR updated from the old SRTT first) and the clamp."""
    rtos = [max(rto_min, min(rto_max, initial))]
    srtt = rttvar = None
    for r in samples:
        if srtt is None:
            srtt, rttvar = float(r), r / 2.0
        else:
            rttvar = 0.75 * rttvar + 0.25 * abs(srtt - r)
            srtt = 0.875 * srtt + 0.125 * r
        rtos.append(max(rto_min, min(rto_max, int(srtt + 4 * rttvar))))
    return rtos


class TestStoredRto:
    """``rto_ns`` is stored, recomputed by each sample: it must read what
    the formula gives at every step."""

    @given(
        samples=st.lists(st.integers(0, 5 * SEC), min_size=1, max_size=30),
        rto_min=st.integers(1, 50 * MS),
        headroom=st.integers(0, 2 * SEC),
        initial=st.integers(1, 3 * SEC),
        seeded=st.booleans(),
    )
    @example(samples=[100 * US], rto_min=200 * MS, headroom=0, initial=SEC, seeded=True)
    @example(samples=[10 * SEC], rto_min=1, headroom=SEC, initial=SEC, seeded=False)
    def test_rto_is_the_clamped_formula_after_every_sample(
        self, samples, rto_min, headroom, initial, seeded
    ):
        rto_max = rto_min + headroom
        expected = rfc6298_rtos(samples, rto_min, rto_max, initial)
        if seeded:
            # The seed sample is folded in at construction.
            est = make(rto_min, rto_max, initial, samples[0])
            expected, samples = expected[1:], samples[1:]
        else:
            est = make(rto_min, rto_max, initial)
        assert est.rto_ns == expected[0]
        for sample, rto in zip(samples, expected[1:]):
            est.add_sample(sample)
            assert est.rto_ns == rto

    def test_both_clamps_and_the_cold_start(self):
        assert make(rto_min=5 * MS, rto_max=SEC, initial=3 * SEC).rto_ns == SEC
        assert make(rto_min=2 * SEC, rto_max=3 * SEC, initial=SEC).rto_ns == 2 * SEC
        est = make(rto_min=200 * MS, rto_max=SEC, seed=100 * US)
        assert est.rto_ns == 200 * MS  # 300 us, raised to the floor
        est.add_sample(10 * SEC)
        assert est.rto_ns == SEC  # lowered to the cap
