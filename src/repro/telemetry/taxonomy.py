"""Timeout-taxonomy and queue-occupancy analysis over telemetry.

This is the analysis half of the telemetry subsystem: pure functions that
turn trace records (or the legacy per-flow counters) into the numbers the
paper reports — the FLoss-TO / LAck-TO split of Table I and the queue
occupancy distribution of Fig. 9.  ``python -m repro trace`` prints them;
:mod:`repro.experiments.table1_timeout_taxonomy` is a thin consumer of
:func:`stack_state_row`.

Imports from the rest of the package are deliberately function-local so
the telemetry core stays import-light (and cycle-free: metrics imports
telemetry's collector base).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Iterable, List, Sequence

from .tracer import TraceRecord

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids import cycles
    from ..metrics.flowstats import FlowStats


def timeout_taxonomy(records: Iterable[TraceRecord]) -> Dict[str, int]:
    """Count RTOs by kind name ("FLOSS"/"LACK") from a trace stream.

    The classification travels in the ``detail`` column of ``rto`` records
    (written by the sender at the moment the timer expired from the same
    ``classify_timeout`` call that feeds the per-flow stats), so trace- and
    stats-derived taxonomies agree by construction.
    """
    from ..tcp.timeouts import TimeoutKind

    counts = {kind.name: 0 for kind in TimeoutKind}
    for record in records:
        if record.kind == "rto":
            counts[TimeoutKind.from_label(record.detail).name] += 1
    return counts


def timeout_taxonomy_from_stats(stats: Iterable["FlowStats"]) -> Dict[str, int]:
    """The same counts derived from per-flow statistics (legacy channel)."""
    from ..tcp.timeouts import TimeoutKind

    counts = {kind.name: 0 for kind in TimeoutKind}
    for fs in stats:
        for _, kind in fs.timeouts:
            counts[kind.name] += 1
    return counts


def stack_state_row(
    dctcp_stats: Iterable["FlowStats"], tcp_stats: Iterable["FlowStats"]
) -> List[str]:
    """One formatted Table-I row: incapable share, timeout shares, TO split."""
    from ..metrics.cwnd_tracker import stack_state_shares
    from ..metrics.report import format_percent

    d = stack_state_shares(dctcp_stats)
    t = stack_state_shares(tcp_stats)
    return [
        format_percent(d.cwnd2_ece1_share),
        format_percent(d.timeout_share),
        format_percent(t.timeout_share),
        format_percent(d.floss_share),
        format_percent(d.lack_share),
    ]


def queue_occupancy_summary(samples_bytes: Sequence[int]) -> Dict[str, float]:
    """Mean / percentiles / max of sampled queue occupancy, in bytes."""
    import numpy as np

    if not len(samples_bytes):
        return {"samples": 0, "mean": 0.0, "p50": 0.0, "p95": 0.0, "p99": 0.0, "max": 0.0}
    arr = np.asarray(samples_bytes, dtype=np.float64)
    return {
        "samples": int(arr.size),
        "mean": float(arr.mean()),
        "p50": float(np.percentile(arr, 50)),
        "p95": float(np.percentile(arr, 95)),
        "p99": float(np.percentile(arr, 99)),
        "max": float(arr.max()),
    }
