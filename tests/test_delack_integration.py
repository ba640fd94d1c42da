"""End-to-end: DCTCP senders against delayed-ACK receivers.

Validates that the coalesced ECN echo keeps DCTCP functional — the flows
complete, the switch queue stays regulated, and the marked-fraction
estimate remains meaningful — while the ACK-path packet count drops.
"""

import pytest

from repro.net.topology import TopologyParams, build_star
from repro.sim.engine import Simulator
from repro.tcp.config import TcpConfig
from repro.tcp.dctcp import DctcpSender
from repro.tcp.delack import DelayedAckReceiver
from repro.tcp.receiver import TcpReceiver
from repro.workloads.ids import next_flow_id

from .helpers import CaptureEndpoint, data

TOTAL = 2_000_000
MSS = 1460


def run_pair(receiver_cls):
    sim = Simulator(seed=4)
    params = TopologyParams(buffer_bytes=64 * 1024, ecn_threshold_bytes=16 * 1024)
    tree = build_star(sim, n_senders=2, params=params)
    senders, receivers = [], []
    for i in range(2):
        flow = next_flow_id()
        kwargs = {}
        if receiver_cls is DelayedAckReceiver:
            kwargs["delack_timeout_ns"] = 1_000_000  # 1 ms, DCN-tuned
        receivers.append(
            receiver_cls(
                sim, tree.aggregator, tree.servers[i].node_id, flow,
                expected_bytes=TOTAL, **kwargs,
            )
        )
        cfg = TcpConfig(seed_rtt_ns=tree.baseline_rtt_ns())
        sender = DctcpSender(sim, tree.servers[i], tree.aggregator.node_id, flow, cfg)
        sender.send(TOTAL)
        senders.append(sender)
    sim.run(max_events=10_000_000)
    assert all(s.completed for s in senders)
    return sim, tree, senders, receivers


class TestDelayedAckDctcp:
    def test_flows_complete_and_deliver_exactly(self):
        _, _, senders, receivers = run_pair(DelayedAckReceiver)
        for r in receivers:
            assert r.bytes_delivered == TOTAL

    def test_ack_count_roughly_halved(self):
        _, _, senders_imm, _ = run_pair(TcpReceiver)
        _, _, senders_del, _ = run_pair(DelayedAckReceiver)
        acks_imm = sum(s.stats.acks_received for s in senders_imm)
        acks_del = sum(s.stats.acks_received for s in senders_del)
        assert acks_del < 0.7 * acks_imm

    def test_alpha_still_tracks_congestion(self):
        _, _, senders, _ = run_pair(DelayedAckReceiver)
        # two flows squeezing through one marked port: alpha must be
        # meaningfully above zero on both
        for s in senders:
            assert 0.0 < s.alpha <= 1.0
            assert s.ecn_reductions > 0

    def test_queue_still_regulated_near_k(self):
        sim, tree, senders, _ = run_pair(DelayedAckReceiver)
        # no tail drops: ECN control survived the coalescing
        assert tree.bottleneck_port.queue.dropped_packets == 0

    def test_completion_time_comparable_to_immediate_acks(self):
        sim_d, *_ = run_pair(DelayedAckReceiver)
        sim_i, *_ = run_pair(TcpReceiver)
        # delayed ACKs must not degrade throughput by more than ~30%
        assert sim_d.now < 1.3 * sim_i.now


class TestAlphaPinnedToMarkSequence:
    """Pin Eq. (1) against a hand-written CE sequence routed through the
    delayed-ACK receiver's coalesced ECN echo."""

    def test_alpha_matches_hand_computed_ewma(self):
        # Receiver side: six MSS-sized segments with CE = F F T T F F.
        sim = Simulator()
        tree = build_star(sim, n_senders=1)
        trap = CaptureEndpoint(sim)
        acks = trap.packets
        tree.servers[0].register_flow(7, trap)
        recv = DelayedAckReceiver(
            sim, tree.aggregator, tree.servers[0].node_id, 7, ack_every=2
        )
        for i, ce in enumerate([False, False, True, True, False, False]):
            recv.on_packet(data(sim, 7, 0, 0, i * MSS, MSS, ect=True, ce=ce))
        sim.run_until_idle()
        # Coalescing: clean pair, marked pair, clean pair -> three ACKs.
        assert [(a.ack_seq, a.ece) for a in acks] == [
            (2 * MSS, False), (4 * MSS, True), (6 * MSS, False),
        ]

        # Sender side: replay the ACK stream into a DCTCP sender.
        sim2 = Simulator()
        tree2 = build_star(sim2, n_senders=1)
        cfg = TcpConfig(seed_rtt_ns=100_000)
        s = DctcpSender(sim2, tree2.servers[0], tree2.aggregator.node_id, next_flow_id(), cfg)
        s.cwnd = 20.0 * MSS
        s.send(6 * MSS)
        assert s.snd_nxt == 6 * MSS  # window 2 closes on the final ACK
        for ack in acks:
            s._on_ack(ack.ack_seq, ack.ece)

        g = cfg.dctcp_g
        # Window 1 ends on the first ACK (win_end_seq starts at 0): F = 0.
        # Window 2 covers the next two ACKs: 2 MSS marked of 4 MSS -> F = 1/2.
        expected = (1.0 - g) * ((1.0 - g) * cfg.dctcp_alpha_init + g * 0.0) + g * 0.5
        assert s.alpha == pytest.approx(expected)
        assert s.ecn_reductions == 1
