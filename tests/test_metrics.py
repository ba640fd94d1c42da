"""Tests for flow stats and the telemetry numbers: cwnd/ECE shares, CDFs, summaries, tables."""

from bisect import bisect_right

import pytest
from hypothesis import given, strategies as st

from repro.tcp.flowstats import FlowStats
from repro.tcp.timeouts import TimeoutKind, classify_timeout
from repro.telemetry.export import format_table
from repro.telemetry.taxonomy import (
    Summary,
    cdf_at,
    cwnd_frequency,
    stack_state_row,
    stack_state_shares,
    timeout_taxonomy_from_stats,
)


class TestFlowStats:
    def test_fct_requires_completion(self):
        fs = FlowStats(flow_id=1)
        assert fs.fct_ns is None
        fs.start_time_ns = 100
        fs.completion_time_ns = 600
        assert fs.fct_ns == 500
        assert fs.completed

    def test_snapshot_accumulation(self):
        fs = FlowStats()
        fs.record_send_snapshot(2, True)
        fs.record_send_snapshot(2, True)
        fs.record_send_snapshot(3, False)
        assert fs.send_snapshots == {(2, True): 2, (3, False): 1}

    def test_snapshot_fraction_empty(self):
        # a flow that never sent: no share, not a division by zero
        shares = stack_state_shares([FlowStats()])
        assert shares.transmissions == 0
        assert shares.cwnd2_ece1_share == 0.0

    def test_cwnd_histogram_merges_ece(self):
        fs = FlowStats()
        fs.record_send_snapshot(2, True)
        fs.record_send_snapshot(2, False)
        assert fs.cwnd_histogram() == {2: 2}

    def test_timeout_bookkeeping(self):
        fs = FlowStats()
        fs.record_timeout(10, TimeoutKind.FLOSS)
        fs.record_timeout(20, TimeoutKind.LACK)
        fs.record_timeout(30, TimeoutKind.FLOSS)
        assert fs.timeout_count == 3
        assert fs.timeout_count_of(TimeoutKind.FLOSS) == 2


class TestTimeoutClassification:
    def test_silent_is_floss(self):
        assert classify_timeout(0) is TimeoutKind.FLOSS

    def test_any_ack_is_lack(self):
        assert classify_timeout(1) is TimeoutKind.LACK
        assert classify_timeout(2) is TimeoutKind.LACK

    def test_str(self):
        assert str(TimeoutKind.FLOSS) == "FLoss-TO"
        assert str(TimeoutKind.LACK) == "LAck-TO"


class TestCwndTracker:
    def _stats(self):
        a, b = FlowStats(), FlowStats()
        for _ in range(3):
            a.record_send_snapshot(2, True)
        a.record_send_snapshot(4, False)
        b.record_send_snapshot(2, False)
        b.record_send_snapshot(1, False)
        a.record_timeout(1, TimeoutKind.FLOSS)
        b.record_timeout(2, TimeoutKind.LACK)
        return [a, b]

    def test_merged_histogram(self):
        # merged across flows and ECE states, keyed in cwnd order
        assert cwnd_frequency(self._stats()) == {1: 1 / 6, 2: 4 / 6, 4: 1 / 6}

    def test_frequency_normalized(self):
        freq = cwnd_frequency(self._stats())
        assert sum(freq.values()) == pytest.approx(1.0)
        assert freq[2] == pytest.approx(4 / 6)

    def test_frequency_empty(self):
        assert cwnd_frequency([]) == {}

    def test_stack_state_shares(self):
        shares = stack_state_shares(self._stats())
        assert shares.transmissions == 6
        assert shares.cwnd2_ece1_share == pytest.approx(3 / 6)
        assert shares.timeout_share == pytest.approx(2 / 6)
        assert shares.floss_share == pytest.approx(0.5)
        assert shares.lack_share == pytest.approx(0.5)

    def test_stack_state_shares_empty(self):
        shares = stack_state_shares([])
        assert shares.cwnd2_ece1_share == 0.0
        assert shares.timeout_share == 0.0

    def test_timeout_fraction_by_kind(self):
        counts = timeout_taxonomy_from_stats(self._stats())
        assert counts == {"FLOSS": 1, "LACK": 1}


class TestStats:
    def test_mean(self):
        assert Summary.of([1, 2, 3]).mean == 2.0
        assert Summary.of([]).mean == 0.0

    def test_percentile(self):
        s = Summary.of(list(range(101)))
        assert s.p50 == pytest.approx(50.0)
        assert s.p95 == pytest.approx(95.0)
        assert s.p99 == pytest.approx(99.0)
        assert Summary.of([]).p95 == 0.0

    def test_cdf_points_last_is_one(self):
        # the empirical CDF evaluated at its own sorted sample points
        values = [3, 1, 2]
        probs = cdf_at(values, sorted(values))
        assert probs == pytest.approx([1 / 3, 2 / 3, 1.0])
        assert probs[-1] == 1.0

    def test_cdf_points_empty(self):
        assert cdf_at([], []) == []
        assert cdf_at([3, 1, 2], []) == []

    def test_cdf_at(self):
        probs = cdf_at([1, 2, 3, 4], [0, 2, 10])
        assert probs == [0.0, 0.5, 1.0]

    def test_cdf_at_empty(self):
        assert cdf_at([], [1, 2]) == [0.0, 0.0]

    @given(st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=1, max_size=100))
    def test_cdf_at_monotone(self, values):
        thresholds = sorted({-1e7, 0.0, 1e7, min(values), max(values)})
        probs = cdf_at(values, thresholds)
        assert probs == sorted(probs)
        assert probs[-1] == 1.0
        # the per-threshold loop it replaced, as the exact reference
        ordered = sorted(values)
        assert probs == [bisect_right(ordered, t) / len(values) for t in thresholds]

    def test_summary(self):
        s = Summary.of(list(range(1, 101)))
        assert s.count == 100
        assert s.mean == pytest.approx(50.5)
        assert s.p50 == pytest.approx(50.5)
        assert s.p95 == pytest.approx(95.05)
        assert s.maximum == 100

    def test_summary_empty(self):
        s = Summary.of([])
        assert s.count == 0 and s.mean == 0.0 and s.p50 == 0.0


class TestReport:
    def test_format_table_alignment(self):
        text = format_table(["a", "bb"], [[1, 2.5], [33, 4.0]])
        lines = text.splitlines()
        assert "a" in lines[0] and "bb" in lines[0]
        assert len(lines) == 4  # header, separator, two rows

    def test_format_table_title(self):
        text = format_table(["x"], [[1]], title="T")
        assert text.startswith("T\n=")

    def test_row_width_mismatch_rejected(self):
        with pytest.raises(ValueError):
            format_table(["a", "b"], [[1]])

    def test_format_percent(self):
        dctcp = FlowStats()
        for _ in range(5816):
            dctcp.record_send_snapshot(2, True)
        for _ in range(10_000 - 5816):
            dctcp.record_send_snapshot(4, False)
        row = stack_state_row([dctcp], [])
        assert row[0] == "58.16%"
        assert row[1:] == ["0.00%"] * 4

    def test_float_rendering(self):
        text = format_table(["v"], [[1234.5], [12.34], [0.1234], [0]])
        assert "1,234" in text or "1,235" in text
        assert "12.3" in text
        assert "0.123" in text
