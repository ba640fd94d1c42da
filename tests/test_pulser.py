"""Tests for the Pulser-style explicit incast-notification strategy."""

import pytest

from repro.exec.scenario import ScenarioSpec, run_scenario
from repro.net.queues import DropTailQueue
from repro.net.topology import TopologyParams, build_star, build_two_tier
from repro.sim.engine import Simulator
from repro.sim.units import MS, US
from repro.tcp.config import TcpConfig
from repro.tcp.pulser import INC_BACKOFF_FACTOR, PulserSender, install_incast_notification
from repro.tcp.receiver import TcpReceiver
from repro.workloads.ids import next_flow_id
from repro.net.pool import F_INC, PacketPool

from .helpers import CaptureEndpoint, data

MSS = 1460


def seg(sim, seq, inc=False):
    h = data(sim, 1, 0, 0, seq, 1000, ect=True)
    if inc:
        PacketPool.of(sim).flags[h] |= F_INC
    return h


class TestQueueMarking:
    def test_disabled_by_default(self):
        sim = Simulator()
        pool = PacketPool.of(sim)
        q = DropTailQueue(capacity_bytes=10_000, ecn_threshold_bytes=None, pool=pool)
        for i in range(9):
            q.enqueue(seg(sim, i * 1000))
        assert q.inc_marked_packets == 0
        assert len(q) == 9 and all(not pool.view(h).inc for h in q)

    def test_marks_above_threshold_only(self):
        sim = Simulator()
        pool = PacketPool.of(sim)
        q = DropTailQueue(capacity_bytes=100_000, ecn_threshold_bytes=None, pool=pool)
        q.inc_threshold_bytes = 3_000
        handles = [seg(sim, i * 1000) for i in range(6)]
        for h in handles:
            q.enqueue(h)
        # Wire size is payload + header, so occupancy passes 3000 after
        # the third admit; the 4th..6th arrivals see occupancy > threshold.
        assert [pool.view(h).inc for h in handles] == [False, False, False, True, True, True]
        assert q.inc_marked_packets == 3

    def test_already_marked_packet_not_recounted(self):
        sim = Simulator()
        pool = PacketPool.of(sim)
        q = DropTailQueue(capacity_bytes=100_000, ecn_threshold_bytes=None, pool=pool)
        q.inc_threshold_bytes = 0
        q.enqueue(seg(sim, 0))  # occupancy 0 at arrival: not > 0, unmarked
        marked = seg(sim, 1000, inc=True)
        q.enqueue(marked)
        assert q.inc_marked_packets == 0


class TestInstall:
    def test_threshold_sits_above_ecn_knee(self):
        sim = Simulator()
        tree = build_two_tier(
            sim, params=TopologyParams(buffer_bytes=128 * 1024, ecn_threshold_bytes=32 * 1024)
        )
        install_incast_notification(tree)
        assert tree.bottleneck_port.queue.inc_threshold_bytes == 64 * 1024

    def test_threshold_capped_at_three_quarters_of_buffer(self):
        sim = Simulator()
        tree = build_two_tier(
            sim, params=TopologyParams(buffer_bytes=64 * 1024, ecn_threshold_bytes=32 * 1024)
        )
        install_incast_notification(tree)
        assert tree.bottleneck_port.queue.inc_threshold_bytes == 48 * 1024

    def test_no_ecn_uses_half_buffer(self):
        sim = Simulator()
        tree = build_two_tier(
            sim, params=TopologyParams(buffer_bytes=64 * 1024, ecn_threshold_bytes=None)
        )
        install_incast_notification(tree)
        assert tree.bottleneck_port.queue.inc_threshold_bytes == 32 * 1024


class TestReceiverEcho:
    def test_inc_echoed_once_then_cleared(self):
        sim = Simulator()
        tree = build_star(sim, n_senders=1)
        trap = CaptureEndpoint(sim)
        tree.servers[0].register_flow(1, trap)
        recv = TcpReceiver(sim, tree.aggregator, tree.servers[0].node_id, 1)
        recv.on_packet(seg(sim, 0, inc=True))
        recv.on_packet(data(sim, 1, 0, 0, 1000, 1000, ect=True))
        sim.run_until_idle()
        assert [a.inc for a in trap.packets] == [True, False]


def harness(total=100 * MSS):
    sim = Simulator()
    tree = build_star(sim, n_senders=1)
    cfg = TcpConfig(seed_rtt_ns=100 * US, rto_min_ns=5 * MS)
    s = PulserSender(
        sim, tree.servers[0], tree.aggregator.node_id, next_flow_id(), config=cfg
    )
    s.send(total)
    sim.run(until=1)
    return sim, s


def inc_ack(sender, ack_seq):
    """Deliver an incast-echo ACK straight into the sender state machine."""
    sender._on_ack(ack_seq, False, 1)


class TestSenderBackoff:
    def test_inc_echo_halves_window_once_per_window(self):
        sim, s = harness()
        s.cwnd = 20.0 * MSS
        before = s.cwnd
        inc_ack(s, MSS)
        assert s.incast_backoffs == 1
        assert s.cwnd == pytest.approx(before * INC_BACKOFF_FACTOR, rel=0.1)
        after_first = s.cwnd
        # A second echo inside the same window of data is ignored.
        inc_ack(s, 2 * MSS)
        assert s.incast_backoffs == 1
        assert s.inc_acks_received == 2
        assert s.cwnd <= after_first + MSS

    def test_guard_reopens_after_window_advances(self):
        sim, s = harness()
        s.cwnd = 20.0 * MSS
        inc_ack(s, MSS)
        guard = s._inc_guard_seq
        assert s.snd_una < guard <= s.snd_nxt
        # A plain ACK advances snd_una past the guard; the next echo is
        # a fresh window of data and backs off again.
        s._on_ack(guard, False, 0)
        assert s.snd_una >= guard
        inc_ack(s, s.snd_una)
        assert s.incast_backoffs == 2

    def test_window_never_below_floor(self):
        sim, s = harness()
        floor = s.config.min_cwnd_bytes
        s.cwnd = float(floor)
        inc_ack(s, MSS)
        assert s.cwnd >= floor


class TestEndToEnd:
    def test_pulser_incast_completes(self):
        spec = ScenarioSpec.create(protocol="pulser", n_flows=32, rounds=1, seed=1)
        result = run_scenario(spec)
        assert result.goodput_mbps > 0
        assert result.fct_ms > 0

    def test_pulser_single_flow_matches_dctcp_goodput(self):
        pulser = run_scenario(ScenarioSpec.create(protocol="pulser", n_flows=1, rounds=1, seed=1))
        dctcp = run_scenario(ScenarioSpec.create(protocol="dctcp", n_flows=1, rounds=1, seed=1))
        # One flow never trips the onset detector, so Pulser degenerates
        # to plain DCTCP.
        assert pulser.goodput_mbps == pytest.approx(dctcp.goodput_mbps)
