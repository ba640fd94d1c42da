"""Instrumentation: per-flow stats, queue sampling, cwnd histograms, tables."""

from .cwnd_tracker import (
    CwndTracker,
    StackStateShares,
    cwnd_frequency,
    merged_cwnd_histogram,
    stack_state_shares,
)
from .flowstats import FlowStats
from .queue_sampler import DEFAULT_SAMPLE_INTERVAL_NS, QueueSampler
from .report import format_percent, format_table
from .stats import Summary, cdf_at, cdf_points, mean, percentile
from .timeline import SAMPLED_FIELDS, FlowTracer, TraceEvent

__all__ = [
    "FlowStats",
    "CwndTracker",
    "QueueSampler",
    "DEFAULT_SAMPLE_INTERVAL_NS",
    "StackStateShares",
    "cwnd_frequency",
    "merged_cwnd_histogram",
    "stack_state_shares",
    "Summary",
    "cdf_at",
    "cdf_points",
    "mean",
    "percentile",
    "format_table",
    "format_percent",
    "FlowTracer",
    "TraceEvent",
    "SAMPLED_FIELDS",
]
