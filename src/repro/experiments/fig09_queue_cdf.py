"""Fig. 9 — CDF of Switch-1 queue length at N = 30, 50, 80.

The queue behind the aggregator's port is sampled every 100 µs.  Paper
result: from N = 30 on, DCTCP+ holds a visibly shorter and more stable
queue than DCTCP, and both stay far below TCP's full-buffer operation.
"""

from __future__ import annotations

from typing import Sequence

from ..telemetry.taxonomy import cdf_at
from .common import ExperimentResult, run_incast_batch

EXPERIMENT_ID = "fig9"
TITLE = "CDF of bottleneck queue length (KB), 100 us samples"

#: queue-occupancy thresholds (KB) where the CDF is reported
THRESHOLDS_KB = (0, 8, 16, 24, 32, 48, 64, 96, 120, 128)


def run(
    n_values: Sequence[int] = (30, 50, 80),
    rounds: int = 20,
    seeds: Sequence[int] = (1, 2),
) -> ExperimentResult:
    requests = [
        dict(
            protocol=protocol,
            n_flows=n,
            rounds=rounds,
            seeds=seeds,
            sample_queue=True,
            min_cwnd_mss=1.0 if protocol == "dctcp+" else None,
        )
        for n in n_values
        for protocol in ("dctcp+", "dctcp", "tcp")
    ]
    headers = ["queue <= KB"]
    columns = []
    for request, point in zip(requests, run_incast_batch(requests)):
        probs = cdf_at([q / 1024.0 for q in point.queue_samples_bytes], THRESHOLDS_KB)
        headers.append(f"{request['protocol']}/N={request['n_flows']}")
        columns.append(probs)
    rows = []
    for i, kb in enumerate(THRESHOLDS_KB):
        row: list = [kb]
        for col in columns:
            row.append(round(col[i], 3))
        rows.append(row)
    return ExperimentResult(
        EXPERIMENT_ID,
        TITLE,
        headers,
        rows,
        notes=[
            "expected shape: DCTCP+'s CDF rises earlier (shorter queue) than",
            "DCTCP's from N=30 on; TCP operates near the 128 KB buffer limit",
        ],
    )
