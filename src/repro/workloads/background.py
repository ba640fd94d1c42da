"""Persistent background (long) flows — the Fig. 10 scenario.

Two servers stream continuously to the aggregator through the same
bottleneck port as the incast traffic, consuming shared buffer.  The
paper reports each long flow averaging ~400 Mbps under DCTCP+ (fair
halves of the bottleneck when the incast traffic is quiet) and uses the
pair to show performance isolation between short and long flows.

A long flow is modelled as a sender whose application keeps the socket
buffer non-empty: whenever the unsent backlog drops below one chunk, the
"application" writes another chunk.  Throughput is recorded per
``report_interval`` (the paper samples per GB transferred).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from ..net.topology import TwoTierTree
from ..sim.engine import Simulator
from ..sim.units import MB, bits_per_second
from ..tcp.receiver import TcpReceiver
from ..tcp.sender import TcpSender
from .ids import next_flow_id
from .protocols import ProtocolSpec


@dataclass
class BackgroundConfig:
    """Long-flow scenario parameters."""

    n_flows: int = 2
    #: bytes the "application" writes per send() call.
    chunk_bytes: int = 1 * MB
    #: refill when fewer than this many bytes remain unsent.
    low_watermark_bytes: int = 256 * 1024
    #: record a throughput sample every this many delivered bytes
    #: (the paper samples the long flows' average every 1 GB).
    report_interval_bytes: int = 64 * MB

    def __post_init__(self) -> None:
        if self.n_flows < 1:
            raise ValueError("need at least one background flow")
        if self.chunk_bytes <= 0 or self.low_watermark_bytes < 0:
            raise ValueError("invalid chunk/watermark sizes")


@dataclass
class ThroughputSample:
    """One report-interval observation for a long flow."""

    flow_index: int
    start_ns: int
    end_ns: int
    bytes: int

    @property
    def throughput_bps(self) -> float:
        return bits_per_second(self.bytes, self.end_ns - self.start_ns)


class BackgroundTraffic:
    """Keeps ``n_flows`` long flows saturated for the lifetime of a run."""

    def __init__(
        self,
        sim: Simulator,
        tree: TwoTierTree,
        spec: ProtocolSpec,
        config: Optional[BackgroundConfig] = None,
        #: which servers source the long flows (defaults to the last ones,
        #: keeping them distinct from the first incast workers).
        server_indices: Optional[List[int]] = None,
    ):
        self.sim = sim
        self.tree = tree
        self.spec = spec.seeded_for(tree)
        self.config = config or BackgroundConfig()
        if server_indices is None:
            n = self.config.n_flows
            server_indices = [len(tree.servers) - 1 - i for i in range(n)]
        self.server_indices = server_indices
        self.senders: List[TcpSender] = []
        self.receivers: List[TcpReceiver] = []
        self.samples: List[ThroughputSample] = []
        self._interval_start_ns: List[int] = []
        self._interval_bytes: List[int] = []
        self._started = False

    def start(self) -> None:
        if self._started:
            raise RuntimeError("background traffic already started")
        self._started = True
        cfg = self.config
        for idx, server_idx in enumerate(self.server_indices):
            server = self.tree.servers[server_idx % len(self.tree.servers)]
            flow_id = next_flow_id()
            receiver = TcpReceiver(
                self.sim,
                self.tree.aggregator,
                server.node_id,
                flow_id,
                expected_bytes=None,
                on_data=self._make_on_data(idx),
            )
            sender = self.spec.make_sender(self.sim, server, self.tree.aggregator.node_id, flow_id)
            self.senders.append(sender)
            self.receivers.append(receiver)
            self._interval_start_ns.append(self.sim.now)
            self._interval_bytes.append(0)
            sender.send(cfg.chunk_bytes)
            self._schedule_refill(idx)

    def stop(self) -> None:
        for sender in self.senders:
            sender.close()
        for receiver in self.receivers:
            receiver.close()

    # -- internals ------------------------------------------------------------
    def _schedule_refill(self, idx: int) -> None:
        # Poll the socket backlog at a coarse tick; a real application
        # would block in send() and be woken by the socket, but a 1 ms poll
        # never lets a 1 Gbps path drain a 256 KB watermark unnoticed.
        self.sim.schedule(1_000_000, self._refill, idx)

    def _refill(self, idx: int) -> None:
        sender = self.senders[idx]
        if sender.closed:
            return
        cfg = self.config
        unsent = sender.total_bytes - sender.snd_una
        if unsent < cfg.low_watermark_bytes + cfg.chunk_bytes:
            sender.send(cfg.chunk_bytes)
        self._schedule_refill(idx)

    def _make_on_data(self, idx: int):
        cfg = self.config

        def _on_data(nbytes: int) -> None:
            self._interval_bytes[idx] += nbytes
            if self._interval_bytes[idx] >= cfg.report_interval_bytes:
                now = self.sim.now
                self.samples.append(
                    ThroughputSample(
                        flow_index=idx,
                        start_ns=self._interval_start_ns[idx],
                        end_ns=now,
                        bytes=self._interval_bytes[idx],
                    )
                )
                self._interval_start_ns[idx] = now
                self._interval_bytes[idx] = 0

        return _on_data

    # -- views ------------------------------------------------------------------
    def mean_throughput_bps(self, flow_index: Optional[int] = None) -> float:
        """Average long-flow throughput (per flow, or across all)."""
        samples = [s for s in self.samples if flow_index is None or s.flow_index == flow_index]
        if not samples:
            # Fall back to lifetime average from receiver byte counts.
            total = 0.0
            count = 0
            for i, receiver in enumerate(self.receivers):
                if flow_index is not None and i != flow_index:
                    continue
                elapsed = self.sim.now - (
                    self.senders[i].stats.start_time_ns
                    if self.senders[i].stats.start_time_ns >= 0
                    else self.sim.now
                )
                if elapsed > 0:
                    total += bits_per_second(receiver.bytes_delivered, elapsed)
                    count += 1
            return total / count if count else 0.0
        return sum(s.throughput_bps for s in samples) / len(samples)

    @property
    def total_delivered_bytes(self) -> int:
        return sum(r.bytes_delivered for r in self.receivers)
