"""Failure-injection tests: lossy links and recovery machinery."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.net.faults import drop_data_once, drop_nth, make_lossy, never, random_loss
from repro.net.pool import PacketPool
from repro.net.topology import build_star
from repro.sim.engine import Simulator
from repro.sim.units import MS, US
from repro.tcp.config import TcpConfig
from repro.tcp.receiver import TcpReceiver
from repro.tcp.sender import TcpSender
from repro.tcp.timeouts import TimeoutKind
from repro.workloads.ids import next_flow_id

MSS = 1460


def lossy_flow(policy, total=30 * MSS, rto_min=4 * MS):
    """Single flow whose *data direction* switch->receiver link is faulty."""
    sim = Simulator(seed=1)
    tree = build_star(sim, n_senders=1)
    # splice a faulty link into the bottleneck port
    port = tree.bottleneck_port
    port.link = make_lossy(port.link, policy)
    flow = next_flow_id()
    receiver = TcpReceiver(
        sim, tree.aggregator, tree.servers[0].node_id, flow, expected_bytes=total
    )
    cfg = TcpConfig(seed_rtt_ns=tree.baseline_rtt_ns(), rto_min_ns=rto_min)
    sender = TcpSender(sim, tree.servers[0], tree.aggregator.node_id, flow, cfg)
    sender.send(total)
    return sim, sender, receiver, port.link


class TestPolicies:
    def test_never(self):
        policy = never()
        assert not policy(None, 0)

    def test_drop_nth(self):
        policy = drop_nth(1, 3)
        assert [policy(None, i) for i in range(5)] == [False, True, False, True, False]

    def test_random_loss_bounds(self):
        with pytest.raises(ValueError):
            random_loss(random.Random(1), 1.5)

    def test_random_loss_rate(self):
        policy = random_loss(random.Random(1), 0.3)
        drops = sum(policy(None, i) for i in range(10_000))
        assert 0.25 < drops / 10_000 < 0.35

    def test_drop_data_once_targets_seq(self):
        from .helpers import ack, data

        sim = Simulator()
        pool = PacketPool.of(sim)
        policy = drop_data_once(MSS)
        assert not policy(pool.view(ack(sim, 1, 0, 1, MSS)), 0)  # ACKs never match
        hit = pool.view(data(sim, 1, 0, 1, MSS, MSS))
        assert policy(hit, 1)
        assert not policy(hit, 2)  # only once


class TestRecoveryUnderInjectedLoss:
    def test_single_drop_recovers_by_fast_retransmit(self):
        sim, sender, receiver, link = lossy_flow(drop_data_once(2 * MSS))
        sim.run(max_events=2_000_000)
        assert sender.completed
        assert link.injected_drops == 1
        assert sender.stats.fast_retransmits == 1
        assert sender.stats.timeout_count == 0

    def test_tail_drop_forces_timeout(self):
        # drop the very last segment: no later packets -> no dupACKs
        total = 5 * MSS
        sim, sender, receiver, link = lossy_flow(drop_data_once(4 * MSS), total=total)
        sim.run(max_events=2_000_000)
        assert sender.completed
        assert sender.stats.timeout_count >= 1
        kinds = {k for _, k in sender.stats.timeouts}
        assert TimeoutKind.FLOSS in kinds or TimeoutKind.LACK in kinds

    def test_flow_completes_under_random_loss(self):
        sim, sender, receiver, link = lossy_flow(
            random_loss(random.Random(7), 0.05), total=60 * MSS
        )
        sim.run(max_events=5_000_000)
        assert sender.completed
        assert receiver.bytes_delivered == 60 * MSS
        assert link.injected_drops > 0

    def test_back_to_back_rto_keeps_recovery_point(self):
        """Regression: a second RTO must not lower ``rto_recovery_point``.

        Seed 1113 historically deadlocked: the first RTO set the recovery
        point to the old snd_nxt (13140), the go-back-N rewind brought
        snd_nxt down, and a *second* RTO then dropped the recovery point to
        the rewound snd_nxt — after which the receiver's cumulative ACK for
        13140 exceeded ``high_water`` and was discarded forever.
        """
        sim, sender, receiver, link = lossy_flow(
            random_loss(random.Random(1113), 0.10), total=20 * MSS
        )
        sim.run(max_events=5_000_000)
        assert sender.completed
        assert receiver.bytes_delivered == 20 * MSS

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_eventual_delivery_property(self, seed):
        """TCP must deliver everything exactly once under any i.i.d. loss
        pattern at 10%."""
        sim, sender, receiver, link = lossy_flow(
            random_loss(random.Random(seed), 0.10), total=20 * MSS
        )
        sim.run(max_events=5_000_000)
        assert sender.completed
        assert receiver.bytes_delivered == 20 * MSS
        assert receiver.rcv_nxt == 20 * MSS


class TestMidRunSplice:
    """Regression: lossy-link splicing composes with the rebinding
    ``OutputPort.link`` property *and* the event freelist.

    The splice rebinds the port's per-packet fast paths while events
    scheduled through the pre-splice bindings (serializations in flight,
    rearmed RTO timers whose handles may sit on the recycled-event
    freelist) are still pending; none of that may corrupt delivery or the
    port's packet accounting.
    """

    def _run_with_mid_run_splice(self, validate=False, policy_factory=None):
        total = 40 * MSS
        sim = Simulator(seed=2, validate=validate)
        tree = build_star(sim, n_senders=1)
        port = tree.bottleneck_port
        flow = next_flow_id()
        receiver = TcpReceiver(
            sim, tree.aggregator, tree.servers[0].node_id, flow, expected_bytes=total
        )
        cfg = TcpConfig(seed_rtt_ns=tree.baseline_rtt_ns(), rto_min_ns=4 * MS)
        sender = TcpSender(sim, tree.servers[0], tree.aggregator.node_id, flow, cfg)
        sender.send(total)

        state = {}

        def splice():
            # Mid-run: the pump is live and timers are armed.
            assert 0 < port.tx_packets and not sender.completed
            rto_event = sender._rto_event
            assert rto_event is not None and rto_event.deadline >= 0  # armed
            state["tx_before"] = port.tx_packets
            policy = (policy_factory or (lambda: random_loss(random.Random(9), 0.08)))()
            port.link = make_lossy(port.link, policy)
            state["rto_event"] = rto_event

        sim.schedule(400_000, splice)  # ~4 RTTs in: transfer is mid-flight
        sim.run(max_events=5_000_000)
        return sim, sender, receiver, port, state

    def test_splice_mid_run_conserves_delivery(self):
        sim, sender, receiver, port, state = self._run_with_mid_run_splice()
        assert sender.completed
        assert receiver.bytes_delivered == 40 * MSS
        assert receiver.rcv_nxt == 40 * MSS
        link = port.link
        assert link.injected_drops > 0  # the fault actually bit
        # every post-splice transmission was offered to the spliced link
        assert link.offered_packets == port.tx_packets - state["tx_before"]

    def test_splice_mid_run_conserves_port_counts(self):
        sim, sender, receiver, port, state = self._run_with_mid_run_splice()
        q = port.queue
        assert q.enqueued_packets == q.dequeued_packets + len(q)
        assert q.enqueued_bytes == q.dequeued_bytes + q.occupancy_bytes
        assert q.dequeued_packets == port.tx_packets  # pump drained

    def test_no_stale_handle_cancellation_after_splice(self):
        """The RTO handle captured at splice time was rearmed in place and
        eventually recycled; cancelling through the stale reference must
        not kill an unrelated (recycled) event."""
        sim, sender, receiver, port, state = self._run_with_mid_run_splice()
        assert len(sim.queue._free) > 0  # cancels recycled through the freelist
        stale = state["rto_event"]
        assert stale.deadline == -1  # fired or cancelled long ago
        pending_before = len(sim.queue)
        sim.cancel(stale)  # stale handle: must be a no-op
        assert len(sim.queue) == pending_before
        assert sender.completed

    def test_splice_composes_with_invariant_checker(self):
        sim, sender, receiver, port, state = self._run_with_mid_run_splice(validate=True)
        assert sender.completed
        assert receiver.bytes_delivered == 40 * MSS
        sim.checker.verify_all()

    def test_deterministic_drop_schedule_after_splice(self):
        sim, sender, receiver, port, state = self._run_with_mid_run_splice(
            policy_factory=lambda: drop_nth(2, 5)
        )
        assert sender.completed
        assert port.link.injected_drops == 2
        assert receiver.bytes_delivered == 40 * MSS


class TestLimitedTransmit:
    def _run(self, limited):
        sim = Simulator(seed=1)
        tree = build_star(sim, n_senders=1)
        port = tree.bottleneck_port
        port.link = make_lossy(port.link, drop_data_once(0))  # lose 1st segment
        flow = next_flow_id()
        receiver = TcpReceiver(
            sim, tree.aggregator, tree.servers[0].node_id, flow, expected_bytes=10 * MSS
        )
        cfg = TcpConfig(
            seed_rtt_ns=tree.baseline_rtt_ns(),
            rto_min_ns=50 * MS,
            init_cwnd_mss=2.0,
            limited_transmit=limited,
        )
        sender = TcpSender(sim, tree.servers[0], tree.aggregator.node_id, flow, cfg)
        sender.send(10 * MSS)
        sim.run(until=20 * MS)
        return sender

    def test_limited_transmit_avoids_timeout_for_tiny_window(self):
        """cwnd=2 and a lost first segment: only 1 dupACK without limited
        transmit (timeout inevitable); with it, the extra segments make
        enough dupACKs for fast retransmit."""
        without = self._run(limited=False)
        with_lt = self._run(limited=True)
        assert with_lt.stats.fast_retransmits >= 1
        assert with_lt.stats.timeout_count == 0
        assert without.stats.fast_retransmits == 0

    def test_limited_transmit_respects_two_segment_bound(self):
        sim = Simulator(seed=1)
        tree = build_star(sim, n_senders=1)
        flow = next_flow_id()
        cfg = TcpConfig(seed_rtt_ns=100 * US, limited_transmit=True)
        sender = TcpSender(sim, tree.servers[0], tree.aggregator.node_id, flow, cfg)
        sender.send(20 * MSS)
        sim.run(until=1)
        sent_before = sender.snd_nxt
        from .helpers import ack

        for _ in range(2):  # two dupACKs -> at most two extra segments
            sender.on_packet(
                ack(sim, flow, sender.dst_node_id, sender.host.node_id, 0)
            )
        assert sender.snd_nxt <= sent_before + 2 * MSS
