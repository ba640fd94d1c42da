"""Per-flow statistics collected by the transport endpoints.

A :class:`FlowStats` is attached to each TCP sender; the sender updates it
inline (cheap counter bumps) and experiment drivers aggregate afterwards.
This mirrors the paper's ``tcp_probe``-based tracing of in-kernel stack
variables.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from .timeouts import TimeoutKind


@dataclass
class FlowStats:
    """Counters and timestamps for one flow (one data transfer)."""

    flow_id: int = -1
    total_bytes: int = 0
    start_time_ns: int = -1
    completion_time_ns: int = -1

    data_packets_sent: int = 0
    retransmitted_packets: int = 0
    fast_retransmits: int = 0
    timeouts: List[Tuple[int, TimeoutKind]] = field(default_factory=list)
    acks_received: int = 0
    dupacks_received: int = 0
    ece_acks_received: int = 0

    #: Snapshots taken before each data transmission: maps
    #: ``(cwnd_in_mss, ece_pending)`` -> count.  This reproduces the paper's
    #: Fig. 2 histogram and Table I's "cwnd=2, ECE=1" statistic.
    send_snapshots: Dict[Tuple[int, bool], int] = field(default_factory=dict)

    def record_send_snapshot(self, cwnd_mss: int, ece_pending: bool) -> None:
        key = (cwnd_mss, ece_pending)
        self.send_snapshots[key] = self.send_snapshots.get(key, 0) + 1

    def record_timeout(self, time_ns: int, kind: TimeoutKind) -> None:
        self.timeouts.append((time_ns, kind))

    # -- derived ---------------------------------------------------------------
    @property
    def completed(self) -> bool:
        return self.completion_time_ns >= 0

    @property
    def fct_ns(self) -> Optional[int]:
        """Flow completion time, or None if the flow never finished."""
        if not self.completed or self.start_time_ns < 0:
            return None
        return self.completion_time_ns - self.start_time_ns

    @property
    def timeout_count(self) -> int:
        return len(self.timeouts)

    def timeout_count_of(self, kind: TimeoutKind) -> int:
        return sum(1 for _, k in self.timeouts if k is kind)

    def cwnd_histogram(self) -> Dict[int, int]:
        """Frequency of cwnd sizes (in MSS) observed at transmission time."""
        hist: Dict[int, int] = {}
        for (cwnd_mss, _ece), count in self.send_snapshots.items():
            hist[cwnd_mss] = hist.get(cwnd_mss, 0) + count
        return hist
