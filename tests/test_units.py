"""Unit tests for repro.sim.units (time/size constants, rate conversions)."""

import pytest

from repro.sim import units


class TestTimeConversions:
    def test_constants_ratios(self):
        assert units.SECOND == 1000 * units.MILLISECOND
        assert units.MILLISECOND == 1000 * units.MICROSECOND
        assert units.MICROSECOND == 1000 * units.NANOSECOND


class TestTransmissionTime:
    def test_full_mss_at_gigabit(self):
        # 1500 B at 1 Gbps = 12 us exactly
        assert units.transmission_time_ns(1500, units.GBPS) == 12_000

    def test_rounds_up(self):
        # 1 byte at 3 bps: 8/3 s -> ceil
        assert units.transmission_time_ns(1, 3) == -(-8 * units.SECOND // 3)

    def test_zero_bytes(self):
        assert units.transmission_time_ns(0, units.GBPS) == 0

    def test_rejects_nonpositive_rate(self):
        with pytest.raises(ValueError):
            units.transmission_time_ns(100, 0)
        with pytest.raises(ValueError):
            units.transmission_time_ns(100, -5)

    def test_rejects_negative_size(self):
        with pytest.raises(ValueError):
            units.transmission_time_ns(-1, units.GBPS)

    def test_back_to_back_never_overlap(self):
        # ceil rounding means k packets take at least k * exact_time
        t1 = units.transmission_time_ns(1461, units.GBPS)
        assert 10 * t1 >= units.transmission_time_ns(14610, units.GBPS)


class TestThroughput:
    def test_bits_per_second(self):
        # 125 MB in 1 s = 1 Gbps
        assert units.bits_per_second(125_000_000, units.SECOND) == pytest.approx(1e9)

    def test_zero_duration(self):
        assert units.bits_per_second(1000, 0) == 0.0

    def test_negative_duration(self):
        assert units.bits_per_second(1000, -5) == 0.0


class TestDataSizes:
    def test_kb_mb(self):
        assert units.MB == 1024 * units.KB
        assert units.KB == 1024
