"""Tests for the TCP receiver (reassembly, ACKs, ECN echo)."""

from repro.net.host import Host
from repro.net.link import Link
from repro.sim.engine import Simulator
from repro.tcp.receiver import TcpReceiver

from .helpers import CaptureEndpoint, ack, data


class AckTrap(CaptureEndpoint):
    """Captures ACKs emitted by the receiver's host."""

    @property
    def acks(self):
        return self.packets


def setup(expected=None, on_data=None, on_complete=None):
    """Receiver on host B; ACKs loop back to a trap on host A."""
    sim = Simulator()
    from repro.net.switch import Switch

    switch = Switch(sim, "sw")
    a, b = Host(sim, "a"), Host(sim, "b")
    a.attach_link(Link(switch))
    b.attach_link(Link(switch))
    switch.add_route(a.node_id, switch.add_port(Link(a)))
    switch.add_route(b.node_id, switch.add_port(Link(b)))
    trap = AckTrap(sim)
    a.register_flow(1, trap)
    recv = TcpReceiver(
        sim, b, a.node_id, 1, expected_bytes=expected, on_data=on_data, on_complete=on_complete
    )
    return sim, a, b, recv, trap


def seg(sim, seq, length, ce=False):
    return data(sim, 1, 0, 0, seq, length, ect=True, ce=ce)


class TestInOrder:
    def test_advances_rcv_nxt(self):
        sim, a, b, recv, trap = setup()
        recv.on_packet(seg(sim, 0, 1000))
        recv.on_packet(seg(sim, 1000, 1000))
        assert recv.rcv_nxt == 2000
        assert recv.bytes_delivered == 2000

    def test_acks_cumulative(self):
        sim, a, b, recv, trap = setup()
        recv.on_packet(seg(sim, 0, 500))
        sim.run_until_idle()
        assert trap.acks[-1].ack_seq == 500

    def test_on_data_callback_gets_increments(self):
        deliveries = []
        sim, a, b, recv, trap = setup(on_data=deliveries.append)
        recv.on_packet(seg(sim, 0, 300))
        recv.on_packet(seg(sim, 300, 700))
        assert deliveries == [300, 700]


class TestOutOfOrder:
    def test_buffers_gap_then_flushes(self):
        sim, a, b, recv, trap = setup()
        recv.on_packet(seg(sim, 1000, 1000))  # hole at 0
        assert recv.rcv_nxt == 0
        recv.on_packet(seg(sim, 0, 1000))
        assert recv.rcv_nxt == 2000

    def test_dupack_for_out_of_order(self):
        sim, a, b, recv, trap = setup()
        recv.on_packet(seg(sim, 1000, 1000))
        sim.run_until_idle()
        assert trap.acks[-1].ack_seq == 0  # duplicate ACK of the hole

    def test_multiple_gaps(self):
        sim, a, b, recv, trap = setup()
        recv.on_packet(seg(sim, 2000, 1000))
        recv.on_packet(seg(sim, 4000, 1000))
        recv.on_packet(seg(sim, 0, 1000))
        assert recv.rcv_nxt == 1000
        recv.on_packet(seg(sim, 1000, 1000))
        assert recv.rcv_nxt == 3000
        recv.on_packet(seg(sim, 3000, 1000))
        assert recv.rcv_nxt == 5000

    def test_overlapping_retransmission(self):
        sim, a, b, recv, trap = setup()
        recv.on_packet(seg(sim, 0, 1000))
        # retransmission covering old + new data
        recv.on_packet(seg(sim, 500, 1000))
        assert recv.rcv_nxt == 1500

    def test_duplicate_counted_and_acked(self):
        sim, a, b, recv, trap = setup()
        recv.on_packet(seg(sim, 0, 1000))
        recv.on_packet(seg(sim, 0, 1000))
        sim.run_until_idle()
        assert recv.duplicate_packets_received == 1
        assert trap.acks[-1].ack_seq == 1000
        assert recv.bytes_delivered == 1000


class TestEcnEcho:
    def test_ce_sets_ece(self):
        sim, a, b, recv, trap = setup()
        recv.on_packet(seg(sim, 0, 100, ce=True))
        sim.run_until_idle()
        assert trap.acks[-1].ece

    def test_clean_packet_clear_ece(self):
        sim, a, b, recv, trap = setup()
        recv.on_packet(seg(sim, 0, 100, ce=True))
        recv.on_packet(seg(sim, 100, 100, ce=False))
        sim.run_until_idle()
        # per-packet echo: second ACK must not carry ECE
        assert not trap.acks[-1].ece

    def test_ce_counter(self):
        sim, a, b, recv, trap = setup()
        recv.on_packet(seg(sim, 0, 100, ce=True))
        recv.on_packet(seg(sim, 100, 100, ce=True))
        assert recv.ce_packets_received == 2


class TestCompletion:
    def test_on_complete_at_target(self):
        done = []
        sim, a, b, recv, trap = setup(expected=2000, on_complete=done.append)
        recv.on_packet(seg(sim, 0, 1000))
        assert not done
        recv.on_packet(seg(sim, 1000, 1000))
        assert done == [recv]
        assert recv.complete

    def test_complete_fires_once(self):
        done = []
        sim, a, b, recv, trap = setup(expected=1000, on_complete=done.append)
        recv.on_packet(seg(sim, 0, 1000))
        recv.on_packet(seg(sim, 0, 1000))  # duplicate
        assert len(done) == 1

    def test_expect_rearms_completion(self):
        done = []
        sim, a, b, recv, trap = setup(expected=1000, on_complete=done.append)
        recv.on_packet(seg(sim, 0, 1000))
        recv.expect(500)
        recv.on_packet(seg(sim, 1000, 500))
        assert len(done) == 2

    def test_expect_validates(self):
        sim, a, b, recv, trap = setup(expected=1000)
        import pytest

        with pytest.raises(ValueError):
            recv.expect(0)

    def test_close_unregisters(self):
        sim, a, b, recv, trap = setup()
        recv.close()
        assert recv.closed
        # a second close is harmless
        recv.close()
        b.register_flow(1, AckTrap(sim))  # slot is free again

    def test_stray_ack_ignored(self):
        sim, a, b, recv, trap = setup()
        recv.on_packet(ack(sim, 1, 0, 0, 100))
        assert recv.rcv_nxt == 0
