"""Fig. 14 — Switch-1 queue length over time, DCTCP+, N = 50, 4 MB each.

The convergence-speed caveat (Section VII): DCTCP+ cannot act in the
first RTTs because no congestion feedback exists yet, so the buffer
overflows during the initial rounds before slow_time converges.  The
paper plots the 100 µs queue samples and observes overflow in the first
five rounds.

We report the per-round peak queue and drop counts plus a coarse
time-series, which shows the same signature: early peaks at the buffer
limit, then a regulated queue.
"""

from __future__ import annotations

from typing import List

from ..net.topology import build_two_tier
from ..sim.engine import Simulator
from ..telemetry.collector import QueueSampler
from ..workloads.incast import IncastConfig, IncastWorkload
from .common import ExperimentResult, make_spec

EXPERIMENT_ID = "fig14"
TITLE = "Queue vs time: DCTCP+ convergence, N=50, 4 MB per flow"
#: One fixed time-series simulation — no (n_values, rounds, seeds).
SUPPORTS_SWEEP_KWARGS = False


def run(
    n_flows: int = 50,
    bytes_per_flow: int = 4 * 1024 * 1024,
    rounds: int = 3,
    seed: int = 1,
    max_events: int = 800_000_000,
) -> ExperimentResult:
    sim = Simulator(seed=seed)
    tree = build_two_tier(sim)
    sampler = QueueSampler(sim, tree.bottleneck_port)
    sampler.start()
    spec = make_spec("dctcp+", min_cwnd_mss=1.0)
    config = IncastConfig(n_flows=n_flows, bytes_per_flow=bytes_per_flow, n_rounds=rounds)
    workload = IncastWorkload(sim, tree, spec, config)

    drop_marks: List[int] = []
    prev_drops = [0]

    def on_round(result):
        drops = tree.bottleneck_port.queue.dropped_packets
        drop_marks.append(drops - prev_drops[0])
        prev_drops[0] = drops

    workload.on_round_end = on_round
    workload.run_to_completion(max_events=max_events)
    sampler.stop()

    # Coarse time series: peak queue within consecutive 5 ms windows.
    rows = []
    t_ms, q_kb = sampler.time_series_kb()
    window_ms = 5.0
    if len(t_ms):
        end = t_ms[-1]
        start = 0.0
        idx = 0
        while start < end and len(rows) < 80:
            stop = start + window_ms
            peak = 0.0
            while idx < len(t_ms) and t_ms[idx] < stop:
                peak = max(peak, q_kb[idx])
                idx += 1
            rows.append([round(start, 1), round(peak, 1)])
            start = stop

    notes = [
        f"per-round drops at the bottleneck: {drop_marks}",
        "expected shape: queue pinned at ~128 KB with drops in the first",
        "round(s); later rounds regulated well below the buffer limit",
    ]
    return ExperimentResult(
        EXPERIMENT_ID,
        TITLE,
        ["t (ms, 5 ms windows)", "peak queue (KB)"],
        rows,
        notes=notes,
    )
