"""Aggregation of per-transmission (cwnd, ECE) snapshots.

The senders record a ``(cwnd in MSS, ECE pending)`` snapshot before every
data transmission (the paper's ``tcp_probe`` tracing).  This module turns
those snapshots into:

- the cwnd-size frequency distribution of Fig. 2 (``cwnd = 1`` indicating
  a timeout, per the paper's convention), and
- Table I's per-flow percentages: the ``cwnd=2, ECE=1`` "incapable" share,
  the timeout fraction, and the FLoss-TO / LAck-TO split.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Sequence, Tuple

from ..tcp.timeouts import TimeoutKind
from ..telemetry.collector import Collector
from .flowstats import FlowStats


def merged_cwnd_histogram(stats: Iterable[FlowStats]) -> Dict[int, int]:
    """Combine per-flow cwnd histograms (counts per cwnd-in-MSS value)."""
    merged: Dict[int, int] = {}
    for fs in stats:
        for cwnd_mss, count in fs.cwnd_histogram().items():
            merged[cwnd_mss] = merged.get(cwnd_mss, 0) + count
    return merged


def cwnd_frequency(stats: Iterable[FlowStats]) -> Dict[int, float]:
    """Normalized cwnd-size distribution across all transmissions (Fig. 2)."""
    hist = merged_cwnd_histogram(stats)
    total = sum(hist.values())
    if total == 0:
        return {}
    return {cwnd: count / total for cwnd, count in sorted(hist.items())}


@dataclass
class StackStateShares:
    """Table I's per-row statistics for one protocol / flow count."""

    #: share of transmissions taken with cwnd == 2 MSS while the last ACK
    #: carried ECE — the state where DCTCP *cannot* slow down further.
    cwnd2_ece1_share: float
    #: timeouts per transmission (the paper's "Timeout" column).
    timeout_share: float
    #: split of those timeouts by kind (fractions of all timeouts).
    floss_share: float
    lack_share: float
    transmissions: int
    timeouts: int


def stack_state_shares(stats: Iterable[FlowStats], incapable_cwnd_mss: int = 2) -> StackStateShares:
    """Compute Table I's percentages over a set of flows.

    The paper traces "one flow randomly selected" over the whole
    experiment; aggregating over all flows gives the same expectation with
    less variance, which is what we report.
    """
    stats = list(stats)
    transmissions = sum(sum(fs.send_snapshots.values()) for fs in stats)
    incapable = sum(fs.send_snapshots.get((incapable_cwnd_mss, True), 0) for fs in stats)
    timeouts = sum(fs.timeout_count for fs in stats)
    floss = sum(fs.timeout_count_of(TimeoutKind.FLOSS) for fs in stats)
    lack = sum(fs.timeout_count_of(TimeoutKind.LACK) for fs in stats)
    return StackStateShares(
        cwnd2_ece1_share=incapable / transmissions if transmissions else 0.0,
        timeout_share=timeouts / transmissions if transmissions else 0.0,
        floss_share=floss / timeouts if timeouts else 0.0,
        lack_share=lack / timeouts if timeouts else 0.0,
        transmissions=transmissions,
        timeouts=timeouts,
    )


class CwndTracker(Collector):
    """Pure-aggregation collector over per-flow cwnd snapshot histograms.

    Unlike the periodic samplers this schedules nothing: the senders
    already record a ``(cwnd, ECE)`` snapshot per transmission, so the
    tracker just accumulates :class:`FlowStats` objects and renders the
    Fig. 2 frequency distribution (plus Table I's shares) through the
    shared :class:`~repro.telemetry.collector.Collector` surface.
    """

    def __init__(self, stats: Iterable[FlowStats] = ()):
        self.flow_stats: List[FlowStats] = list(stats)

    def add(self, stats: FlowStats) -> None:
        self.flow_stats.append(stats)

    def histogram(self) -> Dict[int, int]:
        return merged_cwnd_histogram(self.flow_stats)

    def frequency(self) -> Dict[int, float]:
        return cwnd_frequency(self.flow_stats)

    def shares(self, incapable_cwnd_mss: int = 2) -> StackStateShares:
        return stack_state_shares(self.flow_stats, incapable_cwnd_mss)

    # -- Collector surface ----------------------------------------------------
    def schema(self) -> Tuple[str, ...]:
        return ("cwnd_mss", "transmissions", "frequency")

    def rows(self) -> List[Sequence]:
        hist = self.histogram()
        total = sum(hist.values())
        return [
            [cwnd, count, count / total if total else 0.0]
            for cwnd, count in sorted(hist.items())
        ]
