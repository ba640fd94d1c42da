"""Extensions — the enhancement beyond DCTCP (paper Section VII) and the
static-buffer assumption behind the incast wall.

- **TCP+**: the slow_time machine coalesced with plain New Reno.  Without
  ECN it only hears the loss channel, so it cannot match DCTCP+; the row
  pair records how much of the benefit survives.
- **D2TCP+**: a deadline-bound incast (every response within 50 ms) at a
  fan-in where un-enhanced protocols take 200 ms timeouts.  Any timeout
  blows the budget, so the enhancement — not deadline gamma-correction
  alone — decides how many rounds finish late.
- **shared buffer**: the paper (and DCTCP before it) pins its analysis on
  static 128 KB per-port buffers.  The same DCTCP incast into a switch
  whose four ports' worth of memory is one dynamically shared pool shows
  how much of the wall is that choice.
"""

from __future__ import annotations

from typing import Sequence

from ..tcp.cc import get_cc
from .common import ExperimentResult, run_incast_batch

EXPERIMENT_ID = "extensions"
TITLE = "Extensions: TCP+, D2TCP+ under deadlines, shared switch buffers"
#: Every row fixes its own fan-in, so the generic --n-values does not apply.
SUPPORTS_SWEEP_KWARGS = False

DEADLINE_NS = 50_000_000
_DEADLINE = dict(incast_overrides={"flow_deadline_ns": DEADLINE_NS})
_POOL_BYTES = 4 * 128 * 1024
_SHARED = dict(topo=dict(shared_pool_bytes=_POOL_BYTES, buffer_bytes=_POOL_BYTES))

#: (extension, variant, protocol, N, extra point kwargs), in table order.
ROWS = (
    ("loss-channel only", "TCP", "tcp", 40, {}),
    ("loss-channel only", "TCP+", "tcp+", 40, {}),
    ("50 ms deadline", "D2TCP", "d2tcp", 80, _DEADLINE),
    ("50 ms deadline", "D2TCP+", "d2tcp+", 80, _DEADLINE),
    ("switch buffer", "static 128 KB/port", "dctcp", 60, {}),
    ("switch buffer", "shared 512 KB pool", "dctcp", 60, _SHARED),
)


def run(rounds: int = 8, seeds: Sequence[int] = (1,)) -> ExperimentResult:
    # Traced, so the drop column counts the tracer's drop records.
    points = run_incast_batch(
        [
            dict(protocol=protocol, n_flows=n, rounds=rounds, seeds=seeds, trace=True, **extra)
            for _, _, protocol, n, extra in ROWS
        ]
    )
    rows = [
        [
            extension,
            variant,
            get_cc(protocol).label,
            n,
            round(point.goodput_mbps, 1),
            round(point.fct_ms, 2),
            point.timeouts,
            sum(1 for d in point.round_durations_ns if d > DEADLINE_NS),
            sum(1 for e in point.trace_events if e.kind == "drop"),
        ]
        for (extension, variant, protocol, n, _), point in zip(ROWS, points)
    ]
    return ExperimentResult(
        EXPERIMENT_ID,
        TITLE,
        [
            "extension",
            "variant",
            "CC",
            "N",
            "goodput (Mbps)",
            "FCT (ms)",
            "timeouts",
            "rounds > 50 ms",
            "drops",
        ],
        rows,
        notes=[
            f"{rounds} rounds x {len(seeds)} seed(s) per row",
            "expected: TCP+ does not hurt TCP; D2TCP misses its deadlines where",
            "D2TCP+ meets them; the burst that tail-drops a static port is",
            "absorbed by the shared pool",
        ],
    )
