"""Controlled-ACK tests for the TCP New Reno sender.

Harness: the sender transmits into a dumbbell whose receiver side has no
registered endpoint (data is swallowed), and the test injects crafted
ACKs directly via ``sender.on_packet`` — full control over dupACK
sequences, ECE bits and timing.
"""

import pytest

from repro.net.topology import build_star
from repro.sim.engine import Simulator
from repro.sim.units import MS, US
from repro.tcp.config import TcpConfig
from repro.tcp.sender import TcpSender
from repro.tcp.timeouts import TimeoutKind
from repro.workloads.ids import next_flow_id

from . import helpers

MSS = 1460


def harness(total=20 * MSS, **cfg_overrides):
    sim = Simulator()
    tree = build_star(sim, n_senders=1)
    cfg = TcpConfig(seed_rtt_ns=100 * US, rto_min_ns=5 * MS, **cfg_overrides)
    flow = next_flow_id()
    sender = TcpSender(sim, tree.servers[0], tree.aggregator.node_id, flow, cfg)
    sender.send(total)
    sim.run(until=sim.now + 1)  # let initial transmissions depart
    return sim, sender


def ack(sender, ack_seq, ece=False):
    sender.on_packet(
        helpers.ack(
            sender.sim, sender.flow_id, sender.dst_node_id, sender.host.node_id, ack_seq, ece=ece
        )
    )


class TestWindowAndSending:
    def test_initial_window_limits_flight(self):
        sim, s = harness()
        assert s.snd_nxt == 2 * MSS  # init cwnd 2
        assert s.bytes_in_flight == 2 * MSS

    def test_slow_start_doubles_per_rtt(self):
        sim, s = harness()
        ack(s, MSS)
        ack(s, 2 * MSS)
        assert s.cwnd == 4 * MSS
        assert s.snd_nxt == 6 * MSS  # 4 in flight beyond snd_una=2MSS

    def test_congestion_avoidance_is_integer_stepped(self):
        sim, s = harness(init_ssthresh_mss=2.0)  # start in CA
        ack(s, MSS)
        assert s.cwnd == 2 * MSS  # not yet a full window's worth acked
        ack(s, 2 * MSS)
        assert s.cwnd == 3 * MSS  # one MSS step after cwnd bytes acked

    def test_rwnd_caps_cwnd(self):
        sim, s = harness(rwnd_bytes=3 * MSS)
        for i in range(1, 7):
            ack(s, i * MSS)
        assert s.cwnd <= 3 * MSS

    def test_effective_window_floor_one_segment(self):
        sim, s = harness()
        s.cwnd = 0.5 * MSS
        assert s.effective_window_bytes == MSS

    def test_send_rejects_nonpositive(self):
        sim, s = harness()
        with pytest.raises(ValueError):
            s.send(0)

    def test_partial_last_segment(self):
        sim = Simulator()
        tree = build_star(sim, n_senders=1)
        cfg = TcpConfig(seed_rtt_ns=100 * US)
        s = TcpSender(sim, tree.servers[0], tree.aggregator.node_id, next_flow_id(), cfg)
        s.send(MSS + 300)
        sim.run(until=1)
        assert s.snd_nxt == MSS + 300


class TestFastRetransmit:
    def test_third_dupack_triggers(self):
        sim, s = harness()
        before = s.stats.data_packets_sent
        for _ in range(3):
            ack(s, 0)
        assert s.stats.fast_retransmits == 1
        assert s.in_fast_recovery
        assert s.stats.retransmitted_packets == 1
        # retransmit plus any new data the inflated window (ssthresh + 3)
        # permits
        assert s.stats.data_packets_sent > before

    def test_two_dupacks_do_not_trigger(self):
        sim, s = harness()
        ack(s, 0)
        ack(s, 0)
        assert not s.in_fast_recovery

    def test_ssthresh_halves_flight(self):
        sim, s = harness()
        # grow the window first
        for i in range(1, 5):
            ack(s, i * MSS)
        flight = s.bytes_in_flight
        for _ in range(3):
            ack(s, 4 * MSS)
        assert s.ssthresh == pytest.approx(max((flight // 2) // MSS * MSS, 2 * MSS))

    def test_window_inflation_per_extra_dupack(self):
        sim, s = harness()
        for _ in range(3):
            ack(s, 0)
        cwnd_after_fr = s.cwnd
        ack(s, 0)
        assert s.cwnd == cwnd_after_fr + MSS

    def test_full_ack_exits_recovery_and_deflates(self):
        sim, s = harness()
        for _ in range(3):
            ack(s, 0)
        recover = s.recover
        ack(s, recover)
        assert not s.in_fast_recovery
        assert s.cwnd == s.ssthresh

    def test_partial_ack_retransmits_next_hole(self):
        sim, s = harness()
        ack(s, MSS)
        ack(s, 2 * MSS)  # cwnd now 4, snd_nxt 6*MSS
        for _ in range(3):
            ack(s, 2 * MSS)
        retx_before = s.stats.retransmitted_packets
        ack(s, 3 * MSS)  # partial: below recover point (6*MSS)
        assert s.in_fast_recovery
        assert s.stats.retransmitted_packets == retx_before + 1


class TestTimeout:
    def test_rto_fires_and_resets(self):
        sim, s = harness()
        sim.run(until=sim.now + 20 * MS)
        assert s.stats.timeout_count >= 1
        # after RTO: go-back-N from snd_una with cwnd = 1 MSS
        assert s.cwnd == 1 * MSS or s.stats.timeout_count > 1

    def test_floss_classification_when_silent(self):
        sim, s = harness()
        sim.run(until=sim.now + 20 * MS)
        kinds = {k for _, k in s.stats.timeouts}
        assert kinds == {TimeoutKind.FLOSS}

    def test_lack_classification_with_dupacks(self):
        sim, s = harness()
        ack(s, 0)  # one dupACK, not enough for fast retransmit
        sim.run(until=sim.now + 20 * MS)
        assert s.stats.timeouts[0][1] is TimeoutKind.LACK

    def test_backoff_doubles(self):
        sim, s = harness()
        sim.run(until=sim.now + 9 * MS)   # first RTO at ~5 ms
        assert s.stats.timeout_count == 1
        sim.run(until=sim.now + 12 * MS)  # second RTO needs ~10 ms more
        assert s.stats.timeout_count == 2
        t1, t2 = s.stats.timeouts[0][0], s.stats.timeouts[1][0]
        assert t2 - t1 >= 2 * (5 * MS) - 1 * MS

    def test_ack_resets_backoff(self):
        sim, s = harness()
        sim.run(until=sim.now + 6 * MS)
        assert s.rto_backoff == 1
        ack(s, MSS)
        assert s.rto_backoff == 0

    def test_in_rto_recovery_flag(self):
        sim, s = harness()
        high_water = s.snd_nxt
        sim.run(until=sim.now + 6 * MS)
        assert s.in_rto_recovery
        ack(s, high_water)
        assert not s.in_rto_recovery


class TestRttSampling:
    def test_clean_segments_sampled(self):
        sim, s = harness()
        before = s.rtt.samples
        ack(s, MSS)
        assert s.rtt.samples == before + 1

    def test_karn_skips_retransmitted(self):
        sim, s = harness()
        sim.run(until=sim.now + 6 * MS)  # RTO -> everything marked retransmit
        before = s.rtt.samples
        ack(s, MSS)
        assert s.rtt.samples == before  # no sample from a retransmitted segment


class TestCompletionAndClose:
    def test_completion_callback_and_timer_stop(self):
        done = []
        sim = Simulator()
        tree = build_star(sim, n_senders=1)
        cfg = TcpConfig(seed_rtt_ns=100 * US, rto_min_ns=5 * MS)
        s = TcpSender(
            sim, tree.servers[0], tree.aggregator.node_id, next_flow_id(), cfg,
            on_complete=done.append,
        )
        s.send(2 * MSS)
        sim.run(until=1)
        ack(s, 2 * MSS)
        assert done == [s]
        assert s.completed
        sim.run_until_idle()
        assert s.stats.timeout_count == 0  # timer was cancelled

    def test_close_cancels_timers_and_unregisters(self):
        sim, s = harness()
        s.close()
        sim.run_until_idle()
        assert s.stats.timeout_count == 0
        with pytest.raises(RuntimeError):
            s.send(100)

    def test_send_after_completion_restarts(self):
        sim, s = harness(total=2 * MSS)
        ack(s, 2 * MSS)
        assert s.completed
        s.send(MSS)
        assert not s.completed
        sim.run(until=sim.now + 1)
        assert s.snd_nxt == 3 * MSS


class TestCwndRestart:
    def test_idle_decay(self):
        sim, s = harness(total=4 * MSS)
        for i in range(1, 5):
            ack(s, i * MSS)
        assert s.completed
        cwnd_before = s.cwnd
        assert cwnd_before >= 4 * MSS
        # idle far beyond the RTO, then new data
        sim.run(until=sim.now + 500 * MS)
        s.send(2 * MSS)
        assert s.cwnd <= TcpConfig().init_cwnd_bytes

    def test_no_decay_when_active(self):
        sim, s = harness(total=4 * MSS)
        for i in range(1, 3):
            ack(s, i * MSS)
        cwnd_before = s.cwnd
        s.send(MSS)  # no idle gap
        assert s.cwnd == cwnd_before

    def test_disabled_by_config(self):
        sim, s = harness(total=4 * MSS, slow_start_after_idle=False)
        for i in range(1, 5):
            ack(s, i * MSS)
        cwnd_before = s.cwnd
        sim.run(until=sim.now + 500 * MS)
        s.send(2 * MSS)
        assert s.cwnd == cwnd_before


class TestSnapshots:
    def test_send_snapshots_record_cwnd_and_ece(self):
        sim, s = harness()
        assert (2, False) in s.stats.send_snapshots
        ack(s, MSS, ece=True)
        assert s.last_ack_ece
        # next transmissions are recorded with ECE pending
        assert any(key[1] for key in s.stats.send_snapshots)
