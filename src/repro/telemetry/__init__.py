"""repro.telemetry — the one observability package.

One layer shared by experiments, bench and fuzz runs:

- :class:`Tracer` + :class:`TraceRecord` — typed, append-only event
  records (drops, marks, retransmits, RTOs with FLoss/LAck classification,
  slow_time machine activity) fed by cheap engine hook points, plus one
  ``queue_hwm`` record per queue per run read off the queue's inline peak
  field (``DropTailQueue.peak_bytes``, the one peak; ControlEnv's
  observations read it too); strictly zero-cost when tracing is off.
- :class:`HookRegistry` — the single fan-out point those hook points talk
  to; the invariant checker and the tracer are both plain subscribers.
- :class:`Collector` — the start/stop + export protocol every probe
  shares, and the periodic probe on it: :class:`QueueSampler` (100 µs
  queue length).  Per-flow events (RTOs, slow_time changes, state
  transitions) are the :class:`Tracer`'s ``rto``/``slow_time``/``state``
  records.
- :class:`EngineProfiler` — opt-in dispatch-loop profiling by event kind.
- :mod:`repro.telemetry.export` — JSONL trace streams, CSV summaries and
  the text tables every experiment prints (:func:`format_table`).
- :mod:`repro.telemetry.taxonomy` — the paper's numbers: timeout taxonomy,
  stack-state shares, cwnd frequency, CDFs and :class:`Summary`
  (``python -m repro trace`` reports through it).
"""

from .collector import Collector, QueueSampler
from .export import (
    format_table,
    read_jsonl,
    records_from_jsonl,
    records_to_jsonl,
    write_csv,
    write_jsonl,
)
from .hooks import HookRegistry
from .profiler import EngineProfiler
from .taxonomy import stack_state_row, timeout_taxonomy, timeout_taxonomy_from_stats
from .tracer import EVENT_KINDS, Tracer, TraceRecord

__all__ = [
    "Tracer",
    "TraceRecord",
    "EVENT_KINDS",
    "HookRegistry",
    "Collector",
    "QueueSampler",
    "EngineProfiler",
    "records_to_jsonl",
    "records_from_jsonl",
    "write_jsonl",
    "read_jsonl",
    "write_csv",
    "format_table",
    "timeout_taxonomy",
    "timeout_taxonomy_from_stats",
    "stack_state_row",
]
