"""Tests for the DCTCP sender (alpha estimation, per-window ECN reaction)."""

import pytest

from repro.net.topology import TopologyParams, build_star
from repro.sim.engine import Simulator
from repro.sim.units import MS, US
from repro.tcp.config import TcpConfig
from repro.tcp.dctcp import DctcpSender
from repro.tcp.receiver import TcpReceiver
from repro.workloads.ids import next_flow_id

from . import helpers

MSS = 1460


def harness(total=40 * MSS, **cfg_overrides):
    sim = Simulator()
    tree = build_star(sim, n_senders=1)
    cfg = TcpConfig(seed_rtt_ns=100 * US, rto_min_ns=5 * MS, **cfg_overrides)
    s = DctcpSender(sim, tree.servers[0], tree.aggregator.node_id, next_flow_id(), cfg)
    s.send(total)
    sim.run(until=1)
    return sim, s


def ack(sender, ack_seq, ece=False):
    sender.on_packet(
        helpers.ack(
            sender.sim, sender.flow_id, sender.dst_node_id, sender.host.node_id, ack_seq, ece=ece
        )
    )


class TestEcnCapability:
    def test_forces_ecn_on(self):
        sim, s = harness()
        assert s.config.ecn_enabled

    def test_alpha_initial(self):
        sim, s = harness()
        assert s.alpha == pytest.approx(1.0)


class TestAlphaEstimation:
    def test_alpha_decays_without_marks(self):
        sim, s = harness()
        g = s.config.dctcp_g
        ack(s, MSS)
        ack(s, 2 * MSS)  # first window boundary crossed on the first ack
        expected = (1 - g) ** 2  # two window updates with F=0
        assert s.alpha == pytest.approx(expected, rel=1e-6)

    def test_alpha_tracks_marked_fraction(self):
        sim, s = harness()
        # first window (2 MSS): one marked, one clean -> F = 0.5
        s.alpha = 0.0
        ack(s, MSS, ece=False)  # window [0, win_end=0) boundary hit immediately
        # reset bookkeeping state for a clean measurement window
        s._win_end_seq = s.snd_nxt
        start = s.snd_una
        target = s._win_end_seq
        marked = 0
        seq = start
        while seq < target:
            nxt = min(seq + MSS, target)
            ece = marked == 0
            if ece:
                marked += 1
            ack(s, nxt, ece=ece)
            seq = nxt
        g = s.config.dctcp_g
        n_segs = (target - start + MSS - 1) // MSS
        expected_fraction = MSS * 1.0 / (target - start)
        assert s.alpha == pytest.approx(g * expected_fraction, rel=1e-6)

    def test_fully_marked_window_drives_alpha_up(self):
        sim, s = harness()
        s.alpha = 0.0
        for i in range(1, 20):
            ack(s, i * MSS, ece=True)
        assert s.alpha > 0.3


class TestWindowReduction:
    def test_single_reduction_per_window(self):
        sim, s = harness()
        # grow to a known window
        for i in range(1, 5):
            ack(s, i * MSS)
        s.alpha = 1.0
        cwnd_before = s.cwnd
        reductions_before = s.ecn_reductions
        # mark one ack inside the window; the reduction lands at the boundary
        boundary = s._win_end_seq
        ack(s, min(boundary, s.snd_una + MSS), ece=True)
        while s.snd_una < boundary:
            ack(s, min(boundary, s.snd_una + MSS))
        assert s.ecn_reductions == reductions_before + 1

    def test_reduction_magnitude_quantized(self):
        sim, s = harness()
        for i in range(1, 7):
            ack(s, i * MSS)
        s.alpha = 0.5
        s._win_saw_ece = True
        s._win_bytes_acked = 1
        s._win_end_seq = s.snd_una  # force boundary on next ack
        cwnd_before = s.cwnd
        ack(s, s.snd_una + MSS, ece=False)
        # cwnd * (1 - 0.25) floored to MSS multiple
        expected = (int(cwnd_before * 0.75) // MSS) * MSS
        assert s.cwnd == max(expected, s.config.min_cwnd_bytes)

    def test_floor_clamp_and_incapable_counter(self):
        sim, s = harness()
        s.cwnd = s.config.min_cwnd_bytes
        s.ssthresh = s.config.min_cwnd_bytes  # CA regime: no slow-start growth
        s.alpha = 1.0
        s._win_saw_ece = True
        s._win_bytes_acked = 1
        s._win_end_seq = s.snd_una
        before = s.floor_limited_reductions
        ack(s, s.snd_una + MSS, ece=True)
        assert s.cwnd == s.config.min_cwnd_bytes
        assert s.floor_limited_reductions == before + 1

    def test_floor_one_mss_config(self):
        sim, s = harness(min_cwnd_mss=1.0)
        s.cwnd = 2 * MSS
        s.alpha = 1.0
        s._win_saw_ece = True
        s._win_bytes_acked = 1
        s._win_end_seq = s.snd_una
        ack(s, s.snd_una + MSS, ece=True)
        # 2 * (1 - 0.5) = 1 MSS: reachable only with the lowered floor
        assert s.cwnd == 1 * MSS

    def test_no_reduction_without_marks(self):
        sim, s = harness()
        for i in range(1, 10):
            ack(s, i * MSS)
        assert s.ecn_reductions == 0


class TestLossBehaviour:
    def test_timeout_resets_marking_window(self):
        sim, s = harness()
        ack(s, MSS, ece=True)
        sim.run(until=sim.now + 20 * MS)  # force RTO
        assert s.stats.timeout_count >= 1
        assert s._win_bytes_acked == 0
        assert not s._win_saw_ece

    def test_inherits_fast_retransmit(self):
        sim, s = harness()
        for _ in range(3):
            ack(s, 0)
        assert s.in_fast_recovery


class TestEndToEndMarking:
    def test_dctcp_keeps_queue_near_threshold(self):
        """Two DCTCP flows into one port stabilize the shared queue near K,
        while two TCP flows fill the whole buffer (2:1 fan-in is needed —
        a single flow at equal line rates never builds a queue)."""
        from repro.tcp.sender import TcpSender

        occupancies = {}
        for cls in (DctcpSender, TcpSender):
            sim = Simulator()
            params = TopologyParams(buffer_bytes=64 * 1024, ecn_threshold_bytes=16 * 1024)
            tree = build_star(sim, n_senders=2, params=params)
            senders = []
            for i in range(2):
                flow = next_flow_id()
                TcpReceiver(
                    sim, tree.aggregator, tree.servers[i].node_id, flow,
                    expected_bytes=2_000_000,
                )
                cfg = TcpConfig(seed_rtt_ns=tree.baseline_rtt_ns())
                s = cls(sim, tree.servers[i], tree.aggregator.node_id, flow, cfg)
                s.send(2_000_000)
                senders.append(s)
            samples = []

            def sample():
                samples.append(tree.bottleneck_port.backlog_bytes)
                if not all(s.completed for s in senders):
                    sim.schedule(100_000, sample)

            sim.schedule(1_000_000, sample)
            sim.run(max_events=5_000_000)
            assert all(s.completed for s in senders)
            occupancies[cls.__name__] = {
                "mean": sum(samples) / max(1, len(samples)),
                "peak": max(samples),
                "drops": tree.bottleneck_port.queue.dropped_packets,
            }
        dctcp, tcp = occupancies["DctcpSender"], occupancies["TcpSender"]
        # ECN keeps DCTCP lossless with the queue regulated near K...
        assert dctcp["drops"] == 0
        assert dctcp["mean"] < 40 * 1024
        assert dctcp["peak"] < 48 * 1024
        # ...while TCP (no ECN) fills the buffer until it drops.
        assert tcp["drops"] > 0
        assert tcp["peak"] > 56 * 1024
