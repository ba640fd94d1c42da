"""The numbers the paper reports, computed from telemetry and flow stats.

This is the analysis half of the telemetry subsystem: pure functions that
turn trace records and per-flow counters into the FLoss-TO / LAck-TO
split and stack-state shares of Table I, the cwnd distribution of Fig. 2,
the queue-occupancy CDF of Fig. 9 and the mean/percentile summaries of
Fig. 13.  ``python -m repro trace`` prints them;
:func:`repro.experiments.figures.table1` is a thin consumer of
:func:`stack_state_row`.

numpy is imported inside the functions that use it, so importing the
package does not load it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Iterable, List, Sequence

from ..tcp.timeouts import TimeoutKind
from .tracer import TraceRecord

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..tcp.flowstats import FlowStats


def timeout_taxonomy(records: Iterable[TraceRecord]) -> Dict[str, int]:
    """Count RTOs by kind name ("FLOSS"/"LACK") from a trace stream.

    The classification travels in the ``detail`` column of ``rto`` records
    (written by the sender at the moment the timer expired from the same
    ``classify_timeout`` call that feeds the per-flow stats), so trace- and
    stats-derived taxonomies agree by construction.
    """
    counts = {kind.name: 0 for kind in TimeoutKind}
    for record in records:
        if record.kind == "rto":
            counts[TimeoutKind.from_label(record.detail).name] += 1
    return counts


def timeout_taxonomy_from_stats(stats: Iterable["FlowStats"]) -> Dict[str, int]:
    """The same counts derived from per-flow statistics (legacy channel)."""
    counts = {kind.name: 0 for kind in TimeoutKind}
    for fs in stats:
        for _, kind in fs.timeouts:
            counts[kind.name] += 1
    return counts


def cwnd_frequency(stats: Iterable["FlowStats"]) -> Dict[int, float]:
    """Normalized cwnd-size distribution across all transmissions (Fig. 2).

    The senders record a ``(cwnd in MSS, ECE pending)`` snapshot before
    every data transmission (the paper's ``tcp_probe`` tracing); ``cwnd =
    1`` indicates a timeout, per the paper's convention.
    """
    hist: Dict[int, int] = {}
    for fs in stats:
        for cwnd_mss, count in fs.cwnd_histogram().items():
            hist[cwnd_mss] = hist.get(cwnd_mss, 0) + count
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


def stack_state_shares(
    stats: Iterable["FlowStats"], incapable_cwnd_mss: int = 2
) -> StackStateShares:
    """Compute Table I's percentages over a set of flows.

    The paper traces "one flow randomly selected" over the whole
    experiment; aggregating over all flows gives the same expectation with
    less variance, which is what we report.
    """
    stats = list(stats)
    transmissions = sum(sum(fs.send_snapshots.values()) for fs in stats)
    incapable = sum(fs.send_snapshots.get((incapable_cwnd_mss, True), 0) for fs in stats)
    by_kind = timeout_taxonomy_from_stats(stats)
    timeouts = sum(by_kind.values())
    return StackStateShares(
        cwnd2_ece1_share=incapable / transmissions if transmissions else 0.0,
        timeout_share=timeouts / transmissions if transmissions else 0.0,
        floss_share=by_kind["FLOSS"] / timeouts if timeouts else 0.0,
        lack_share=by_kind["LACK"] / timeouts if timeouts else 0.0,
        transmissions=transmissions,
        timeouts=timeouts,
    )


def stack_state_row(
    dctcp_stats: Iterable["FlowStats"], tcp_stats: Iterable["FlowStats"]
) -> List[str]:
    """One formatted Table-I row: incapable share, timeout shares, TO split."""

    def percent(fraction: float) -> str:
        return f"{fraction * 100:.2f}%"

    d = stack_state_shares(dctcp_stats)
    t = stack_state_shares(tcp_stats)
    return [
        percent(d.cwnd2_ece1_share),
        percent(d.timeout_share),
        percent(t.timeout_share),
        percent(d.floss_share),
        percent(d.lack_share),
    ]


def cdf_at(values: Sequence[float], thresholds: Sequence[float]) -> List[float]:
    """P(X <= t) for each threshold t (one vectorized searchsorted)."""
    import numpy as np

    arr = np.sort(np.asarray(values, dtype=np.float64))
    if arr.size == 0:
        return [0.0] * len(thresholds)
    counts = np.searchsorted(arr, np.asarray(thresholds, dtype=np.float64), side="right")
    return (counts / arr.size).tolist()


@dataclass
class Summary:
    """count / mean / p50 / p95 / p99 / max of a sample (linear percentiles).

    The one summary statistic: Fig. 13's FCT columns and the trace
    report's queue-occupancy block both print it.
    """

    count: int
    mean: float
    p50: float
    p95: float
    p99: float
    maximum: float

    @classmethod
    def of(cls, values: Sequence[float]) -> "Summary":
        if len(values) == 0:
            return cls(0, 0.0, 0.0, 0.0, 0.0, 0.0)
        import numpy as np

        arr = np.asarray(values, dtype=np.float64)
        return cls(
            count=int(arr.size),
            mean=float(arr.mean()),
            p50=float(np.percentile(arr, 50)),
            p95=float(np.percentile(arr, 95)),
            p99=float(np.percentile(arr, 99)),
            maximum=float(arr.max()),
        )
