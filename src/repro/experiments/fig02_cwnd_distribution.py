"""Fig. 2 — frequency distribution of cwnd sizes at N = 10, 20, 40, 60.

The paper snapshots cwnd before every transmission; with few flows the
distribution sits at 3-8 MSS, and as N grows, 60%+ of DCTCP's snapshots
land on 1-2 MSS (2 = the floor, 1 = timeout aftermath) while TCP lags in
reacting.
"""

from __future__ import annotations

from typing import Dict, Sequence

from ..telemetry.taxonomy import cwnd_frequency
from .common import ExperimentResult, run_incast_batch

EXPERIMENT_ID = "fig2"
TITLE = "cwnd-size frequency distribution (share of transmissions)"

#: histogram support reported by the paper's figure
CWND_BINS = tuple(range(1, 11))


def run(
    n_values: Sequence[int] = (10, 20, 40, 60),
    rounds: int = 20,
    seeds: Sequence[int] = (1, 2),
) -> ExperimentResult:
    requests = [
        dict(protocol=protocol, n_flows=n, rounds=rounds, seeds=seeds)
        for protocol in ("dctcp", "tcp")
        for n in n_values
    ]
    distributions: Dict[str, Dict[int, float]] = {}
    for request, point in zip(requests, run_incast_batch(requests)):
        key = f"{request['protocol']}/N={request['n_flows']}"
        distributions[key] = cwnd_frequency(point.flow_stats)

    headers = ["cwnd (MSS)"] + list(distributions.keys())
    rows = []
    for cwnd in CWND_BINS:
        row: list = [cwnd]
        for key in distributions:
            freq = distributions[key].get(cwnd, 0.0)
            row.append(round(freq, 4))
        rows.append(row)
    # Collect any mass beyond the plotted bins so columns sum to 1.
    tail_row: list = [">10"]
    for key in distributions:
        tail = sum(
            f for c, f in distributions[key].items() if c > CWND_BINS[-1] or c < CWND_BINS[0]
        )
        tail_row.append(round(tail, 4))
    rows.append(tail_row)
    return ExperimentResult(
        EXPERIMENT_ID,
        TITLE,
        headers,
        rows,
        notes=[
            "cwnd=1 marks post-timeout transmissions (paper convention)",
            "expected shape: at N>=20, DCTCP mass concentrates on 1-2 MSS",
        ],
    )
