"""Tests for delayed ACKs + the DCTCP ECN-echo state machine."""

import pytest

from repro.net.host import Host
from repro.net.link import Link
from repro.net.switch import Switch
from repro.sim.engine import Simulator
from repro.sim.units import MS
from repro.tcp.delack import DelayedAckReceiver

from .helpers import CaptureEndpoint, data


class AckTrap(CaptureEndpoint):
    @property
    def acks(self):
        return self.packets


def setup(ack_every=2, delack_timeout_ns=40 * MS):
    sim = Simulator()
    switch = Switch(sim, "sw")
    a, b = Host(sim, "a"), Host(sim, "b")
    a.attach_link(Link(switch))
    b.attach_link(Link(switch))
    switch.add_route(a.node_id, switch.add_port(Link(a)))
    switch.add_route(b.node_id, switch.add_port(Link(b)))
    trap = AckTrap(sim)
    a.register_flow(1, trap)
    recv = DelayedAckReceiver(
        sim, b, a.node_id, 1, ack_every=ack_every, delack_timeout_ns=delack_timeout_ns
    )
    return sim, recv, trap


def seg(sim, seq, length=1000, ce=False, ect=True):
    return data(sim, 1, 0, 0, seq, length, ect=ect, ce=ce)


class TestValidation:
    def test_rejects_bad_params(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            setup(ack_every=0)
        with pytest.raises(ValueError):
            setup(delack_timeout_ns=0)


class TestCoalescing:
    def test_acks_every_second_segment(self):
        sim, recv, trap = setup()
        recv.on_packet(seg(sim, 0))
        sim.run(until=1_000_000)
        assert len(trap.acks) == 0  # first segment held
        recv.on_packet(seg(sim, 1000))
        sim.run(until=2_000_000)
        assert len(trap.acks) == 1
        assert trap.acks[0].ack_seq == 2000

    def test_delack_timer_flushes_odd_segment(self):
        sim, recv, trap = setup(delack_timeout_ns=5 * MS)
        recv.on_packet(seg(sim, 0))
        sim.run(until=10 * MS)
        assert len(trap.acks) == 1
        assert recv.delack_timeouts == 1

    def test_ack_every_one_behaves_immediately(self):
        sim, recv, trap = setup(ack_every=1)
        recv.on_packet(seg(sim, 0))
        sim.run(until=1_000_000)
        assert len(trap.acks) == 1


class TestOutOfOrderImmediate:
    def test_gap_acked_immediately(self):
        sim, recv, trap = setup()
        recv.on_packet(seg(sim, 2000))  # hole at 0
        sim.run(until=1_000_000)
        assert len(trap.acks) == 1  # dupACK, not delayed
        assert trap.acks[0].ack_seq == 0

    def test_pending_flushed_before_dup(self):
        sim, recv, trap = setup()
        recv.on_packet(seg(sim, 0))      # pending
        recv.on_packet(seg(sim, 3000))   # out of order -> flush + immediate
        sim.run(until=1_000_000)
        assert [a.ack_seq for a in trap.acks] == [1000, 1000]


class TestEceStateMachine:
    def test_state_change_forces_immediate_ack_with_old_state(self):
        sim, recv, trap = setup()
        recv.on_packet(seg(sim, 0, ce=False))       # pending, state 0
        recv.on_packet(seg(sim, 1000, ce=True))     # state change -> flush(ECE=0)
        sim.run(until=1_000_000)
        assert len(trap.acks) == 1
        assert trap.acks[0].ack_seq == 1000
        assert not trap.acks[0].ece

    def test_marked_run_acked_with_ece(self):
        sim, recv, trap = setup()
        recv.on_packet(seg(sim, 0, ce=True))        # state flips to 1, pending
        recv.on_packet(seg(sim, 1000, ce=True))     # second marked -> delayed ack
        sim.run(until=1_000_000)
        assert len(trap.acks) == 1
        assert trap.acks[0].ece

    def test_return_to_clean_echoes_marked_run(self):
        sim, recv, trap = setup()
        recv.on_packet(seg(sim, 0, ce=True))
        recv.on_packet(seg(sim, 1000, ce=False))    # state change -> flush(ECE=1)
        sim.run(until=1_000_000)
        assert trap.acks[0].ece
        recv.on_packet(seg(sim, 2000, ce=False))
        sim.run(until=2_000_000)
        assert not trap.acks[1].ece

    def test_non_ect_traffic_never_ece(self):
        sim, recv, trap = setup()
        recv.on_packet(seg(sim, 0, ect=False))
        recv.on_packet(seg(sim, 1000, ect=False))
        sim.run(until=1_000_000)
        assert not trap.acks[0].ece

    def test_byte_accounting_preserved(self):
        """Marked and clean bytes are echoed in separate ACKs, so the
        sender's fraction estimate stays exact across coalescing."""
        sim, recv, trap = setup()
        # 2 clean, 2 marked, 2 clean
        recv.on_packet(seg(sim, 0, ce=False))
        recv.on_packet(seg(sim, 1000, ce=False))    # delayed ack (ECE=0) @2000
        recv.on_packet(seg(sim, 2000, ce=True))     # state change, pending
        recv.on_packet(seg(sim, 3000, ce=True))     # delayed ack (ECE=1) @4000
        recv.on_packet(seg(sim, 4000, ce=False))    # flush(ECE=1)? state change ->
        sim.run(until=1_000_000)
        ack_seqs = [(a.ack_seq, a.ece) for a in trap.acks]
        assert (2000, False) in ack_seqs
        assert (4000, True) in ack_seqs


class TestOutOfOrderCeChange:
    """Regression: CE state updates for *every* arriving ECT segment, not
    just in-order ones (Linux tcp_ecn_check_ce runs before queueing)."""

    def test_ooo_marked_segment_flips_state(self):
        sim, recv, trap = setup()
        recv.on_packet(seg(sim, 0, ce=False))       # pending, state 0
        recv.on_packet(seg(sim, 2000, ce=True))     # out of order + CE change
        sim.run(until=1_000_000)
        # Pending run flushed with the old state, then the dupACK carries
        # the *new* state — previously the mark vanished entirely.
        assert [(a.ack_seq, a.ece) for a in trap.acks] == [(1000, False), (1000, True)]
        assert recv._ce_state is True

    def test_ooo_return_to_clean_flips_back(self):
        sim, recv, trap = setup()
        recv.on_packet(seg(sim, 0, ce=True))        # state flips to 1, pending
        recv.on_packet(seg(sim, 2000, ce=False))    # OOO + CE change back
        sim.run(until=1_000_000)
        assert [(a.ack_seq, a.ece) for a in trap.acks] == [(1000, True), (1000, False)]
        assert recv._ce_state is False

    def test_hole_fill_coalesces_with_flipped_state(self):
        sim, recv, trap = setup()
        recv.on_packet(seg(sim, 0, ce=False))
        recv.on_packet(seg(sim, 1000, ce=False))    # delayed ack (2000, ECE=0)
        recv.on_packet(seg(sim, 3000, ce=True))     # OOO: state -> 1, dupACK(ECE=1)
        recv.on_packet(seg(sim, 2000, ce=True))     # fills the hole to 4000
        sim.run(until=100_000_000)
        assert (2000, False) in [(a.ack_seq, a.ece) for a in trap.acks]
        # The ACK covering the marked run echoes the mark.
        assert trap.acks[-1].ack_seq == 4000
        assert trap.acks[-1].ece


class TestClose:
    def test_close_cancels_timer(self):
        sim, recv, trap = setup(delack_timeout_ns=5 * MS)
        recv.on_packet(seg(sim, 0))
        recv.close()
        sim.run_until_idle()
        assert len(trap.acks) == 0
