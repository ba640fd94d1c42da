"""Shared scenario builders for the test suite."""

from __future__ import annotations

from typing import Optional, Tuple

from repro.net.pool import F_CE, PacketPool
from repro.net.topology import TopologyParams, TwoTierTree, build_star
from repro.sim.engine import Simulator
from repro.tcp.config import TcpConfig
from repro.tcp.receiver import TcpReceiver
from repro.tcp.sender import TcpSender
from repro.workloads.ids import next_flow_id


def data(
    sim: Simulator,
    flow: int,
    src: int,
    dst: int,
    seq: int,
    length: int,
    *,
    ect: bool = False,
    ce: bool = False,
    retx: bool = False,
) -> int:
    """Allocate a data segment in ``sim``'s pool and return its handle.

    The pool numbers it, as it numbers a sender's; ``ce`` is OR-ed into the
    flags afterwards, as a marking switch does.
    """
    pool = PacketPool.of(sim)
    h = pool.alloc_data(flow, src, dst, seq, length, ect, retx)
    if ce:
        pool.flags[h] |= F_CE
    return h


def ack(
    sim: Simulator,
    flow: int,
    src: int,
    dst: int,
    ack_seq: int,
    *,
    ece: bool = False,
    inc: bool = False,
) -> int:
    """Allocate a pure cumulative ACK in ``sim``'s pool and return its handle."""
    return PacketPool.of(sim).alloc_ack(flow, src, dst, ack_seq, ece, inc)


class Snap:
    """Frozen copy of one pooled packet's fields (survives the free)."""

    __slots__ = (
        "flow_id",
        "src",
        "dst",
        "seq",
        "payload_len",
        "ack_seq",
        "wire_bytes",
        "packet_id",
        "end_seq",
        "is_ack",
        "ect",
        "ce",
        "ece",
        "inc",
        "is_retransmit",
    )

    def __init__(self, pool: PacketPool, h: int):
        view = pool.view(h)
        for name in self.__slots__:
            setattr(self, name, getattr(view, name))


class CaptureEndpoint:
    """Flow endpoint that snapshots then frees every delivered handle."""

    def __init__(self, sim: Simulator):
        self.pool = PacketPool.of(sim)
        self.packets: list[Snap] = []

    def on_packet(self, h: int) -> None:
        self.packets.append(Snap(self.pool, h))
        self.pool.free(h)

#: a fast-firing RTO so loss tests don't simulate 200 ms of idle time
FAST_RTO = TcpConfig(rto_min_ns=2_000_000, seed_rtt_ns=100_000)


def single_flow(
    n_senders: int = 1,
    buffer_bytes: int = 128 * 1024,
    ecn_threshold: Optional[int] = 32 * 1024,
    config: Optional[TcpConfig] = None,
    sender_cls=TcpSender,
    total_bytes: int = 100_000,
    seed: int = 1,
    **sender_kwargs,
) -> Tuple[Simulator, TwoTierTree, TcpSender, TcpReceiver]:
    """One sender -> one receiver through a single switch (star)."""
    sim = Simulator(seed=seed)
    params = TopologyParams(buffer_bytes=buffer_bytes, ecn_threshold_bytes=ecn_threshold)
    tree = build_star(sim, n_senders=n_senders, params=params)
    flow_id = next_flow_id()
    receiver = TcpReceiver(
        sim,
        tree.aggregator,
        tree.servers[0].node_id,
        flow_id,
        expected_bytes=total_bytes,
    )
    cfg = config or TcpConfig(seed_rtt_ns=tree.baseline_rtt_ns())
    sender = sender_cls(
        sim,
        tree.servers[0],
        tree.aggregator.node_id,
        flow_id,
        config=cfg,
        **sender_kwargs,
    )
    return sim, tree, sender, receiver


def drain(sim: Simulator, max_events: int = 5_000_000) -> int:
    """Run the simulator dry with a runaway guard."""
    processed = sim.run(max_events=max_events)
    assert processed < max_events, "simulation did not converge"
    return processed
