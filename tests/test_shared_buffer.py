"""Tests for the dynamically shared buffer switch variant."""

import pytest

from repro.net.host import Host
from repro.net.link import Link
from repro.net.shared_buffer import SharedBufferSwitch
from repro.net.switch import Switch
from repro.sim.engine import Simulator

from .helpers import data


def wire(sim, switch):
    """Two hosts behind one switch."""
    a, b = Host(sim, "a"), Host(sim, "b")
    a.attach_link(Link(switch))
    b.attach_link(Link(switch))
    pa = switch.add_port(Link(a))
    pb = switch.add_port(Link(b))
    switch.add_route(a.node_id, pa)
    switch.add_route(b.node_id, pb)
    return a, b, pa, pb


def fill(port, n, dst, size=1460):
    sim = port.sim
    sent = 0
    for i in range(n):
        if port.send(data(sim, 1, 0, dst, i * size, size)):
            sent += 1
    return sent


class TestAdmission:
    def test_single_port_can_use_whole_pool(self):
        sim = Simulator()
        switch = SharedBufferSwitch(sim, shared_pool_bytes=15_000)
        a, b, pa, pb = wire(sim, switch)
        # 10 x 1500 B = 15 KB fits the pool on one port (1 extra is in
        # the serializer, so offer 11)
        sent = fill(pa, 11, a.node_id)
        assert sent == 11
        assert pa.queue.dropped_packets == 0

    def test_pool_exhaustion_drops(self):
        sim = Simulator()
        switch = SharedBufferSwitch(sim, shared_pool_bytes=6_000)
        a, b, pa, pb = wire(sim, switch)
        fill(pa, 10, a.node_id)
        assert switch.pool_drops > 0

    def test_pool_shared_across_ports(self):
        sim = Simulator()
        switch = SharedBufferSwitch(sim, shared_pool_bytes=6_000)
        a, b, pa, pb = wire(sim, switch)
        fill(pa, 5, a.node_id)  # ~4 queued = 6 KB
        # pool is now full: the other port gets nothing
        assert fill(pb, 3, b.node_id) < 3
        assert switch.pool_drops > 0

    def test_per_port_cap_limits_monopoly(self):
        sim = Simulator()
        switch = SharedBufferSwitch(sim, shared_pool_bytes=30_000, per_port_cap_bytes=4_500)
        a, b, pa, pb = wire(sim, switch)
        fill(pa, 10, a.node_id)
        assert pa.queue.occupancy_bytes <= 4_500
        # pool still has room for the other port
        assert fill(pb, 2, b.node_id) == 2

    def test_pool_occupancy_accounting(self):
        sim = Simulator()
        switch = SharedBufferSwitch(sim, shared_pool_bytes=100_000)
        a, b, pa, pb = wire(sim, switch)
        fill(pa, 3, a.node_id)
        fill(pb, 2, b.node_id)
        expected = pa.queue.occupancy_bytes + pb.queue.occupancy_bytes
        assert switch.pool_occupancy_bytes == expected

    def test_validates_pool_size(self):
        with pytest.raises(ValueError):
            SharedBufferSwitch(Simulator(), shared_pool_bytes=0)


class TestForwarding:
    def test_routes_and_unroutable(self):
        sim = Simulator()
        switch = SharedBufferSwitch(sim)
        a, b, pa, pb = wire(sim, switch)

        class Sink:
            def __init__(self, sim):
                self.free = sim.pool.free
                self.n = 0

            def on_packet(self, h):
                self.free(h)
                self.n += 1

        sink = Sink(sim)
        b.register_flow(9, sink)
        a.send(data(sim, 9, a.node_id, b.node_id, 0, 10))
        sim.run_until_idle()
        assert sink.n == 1
        a.send(data(sim, 9, a.node_id, 424242, 0, 10))
        sim.run_until_idle()
        assert switch.unroutable_drops == 1

    def test_foreign_port_rejected(self):
        sim = Simulator()
        switch = SharedBufferSwitch(sim)
        other = Switch(sim, "other")
        host = Host(sim, "h")
        foreign = other.add_port(Link(host))
        with pytest.raises(ValueError):
            switch.add_route(host.node_id, foreign)


class TestPoolAccounting:
    """Conservation of the shared pool under concurrent port pressure."""

    def test_drops_counted_exactly_once(self):
        """Every offered packet is either enqueued or dropped — never both,
        never twice — whether rejected by the pool or the per-port cap."""
        sim = Simulator()
        switch = SharedBufferSwitch(sim, shared_pool_bytes=12_000, per_port_cap_bytes=9_000)
        a, b, pa, pb = wire(sim, switch)
        offered = 15
        fill(pa, offered, a.node_id)
        fill(pb, offered, b.node_id)
        for port in (pa, pb):
            q = port.queue
            assert q.enqueued_packets + q.dropped_packets == offered
        # pool drops are a subset of per-port drops, not an extra count
        total_drops = pa.queue.dropped_packets + pb.queue.dropped_packets
        assert switch.pool_drops <= total_drops

    def test_pool_occupancy_tracks_sum_under_interleaved_pressure(self):
        sim = Simulator()
        switch = SharedBufferSwitch(sim, shared_pool_bytes=20_000)
        a, b, pa, pb = wire(sim, switch)
        # interleave admissions across both ports against a shared pool
        for i in range(12):
            port, dst = (pa, a.node_id) if i % 2 == 0 else (pb, b.node_id)
            fill(port, 1, dst)
            assert (
                switch.pool_occupancy_bytes
                == pa.queue.occupancy_bytes + pb.queue.occupancy_bytes
            )
            assert switch.pool_occupancy_bytes <= switch.shared_pool_bytes

    def test_pool_occupancy_returns_to_zero_after_drain(self):
        sim = Simulator()
        switch = SharedBufferSwitch(sim, shared_pool_bytes=50_000)
        a, b, pa, pb = wire(sim, switch)
        fill(pa, 10, a.node_id)
        fill(pb, 10, b.node_id)
        assert switch.pool_occupancy_bytes > 0
        sim.run_until_idle()
        assert switch.pool_occupancy_bytes == 0
        assert pa.queue.occupancy_bytes == 0
        assert pb.queue.occupancy_bytes == 0
        # conservation closed out: everything admitted also departed
        for port in (pa, pb):
            q = port.queue
            assert q.dequeued_packets == q.enqueued_packets
            assert q.dequeued_bytes == q.enqueued_bytes

    def test_pool_freed_bytes_readmit_after_partial_drain(self):
        """Bytes freed by departures become available to the *other* port —
        the dynamic-sharing property, via the incremental pool counter."""
        sim = Simulator()
        switch = SharedBufferSwitch(sim, shared_pool_bytes=9_000)
        a, b, pa, pb = wire(sim, switch)
        fill(pa, 8, a.node_id)  # pool now full
        assert fill(pb, 1, b.node_id) == 0
        drops_before = pb.queue.dropped_packets
        sim.run_until_idle()  # drain everything
        assert fill(pb, 3, b.node_id) == 3
        assert pb.queue.dropped_packets == drops_before


class TestBurstAbsorption:
    def test_shared_pool_absorbs_bigger_incast_burst_than_static(self):
        """The motivation: the same fan-in burst that overflows a 128 KB
        static port fits a 512 KB shared pool."""

        def burst_drops(switch_factory):
            sim = Simulator()
            switch = switch_factory(sim)
            a, b, pa, pb = wire(sim, switch)
            # 200-packet synchronized burst to one port (300 KB)
            fill(pa, 200, a.node_id)
            return pa.queue.dropped_packets + getattr(switch, "pool_drops", 0)

        static = burst_drops(lambda sim: Switch(sim, buffer_bytes=128 * 1024))
        shared = burst_drops(lambda sim: SharedBufferSwitch(sim, shared_pool_bytes=512 * 1024))
        assert static > 0
        assert shared == 0
