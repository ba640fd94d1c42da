"""Tests for switch forwarding and host demux."""

import pytest

from repro.net.faults import drop_nth, make_lossy, never
from repro.net.host import Host
from repro.net.link import Link
from repro.net.pool import PacketPool
from repro.net.shared_buffer import SharedBufferSwitch
from repro.net.switch import Switch
from repro.sim.engine import Simulator

from .helpers import CaptureEndpoint as Endpoint, data


def wire(sim):
    """host_a -> switch -> host_b."""
    switch = Switch(sim, "sw")
    a, b = Host(sim, "a"), Host(sim, "b")
    a.attach_link(Link(switch))
    b.attach_link(Link(switch))
    pa = switch.add_port(Link(a))
    pb = switch.add_port(Link(b))
    switch.add_route(a.node_id, pa)
    switch.add_route(b.node_id, pb)
    return switch, a, b


class TestSwitch:
    def test_forwards_by_destination(self):
        sim = Simulator()
        switch, a, b = wire(sim)
        ep = Endpoint(sim)
        b.register_flow(1, ep)
        a.send(data(sim, 1, a.node_id, b.node_id, 0, 100))
        sim.run_until_idle()
        assert len(ep.packets) == 1

    def test_unroutable_counted_and_dropped(self):
        sim = Simulator()
        switch, a, b = wire(sim)
        a.send(data(sim, 1, a.node_id, 99_999, 0, 100))
        sim.run_until_idle()
        assert switch.unroutable_drops == 1

    def test_route_must_use_own_port(self):
        sim = Simulator()
        switch, a, b = wire(sim)
        other = Switch(sim, "other")
        foreign_port = other.add_port(Link(a))
        with pytest.raises(ValueError):
            switch.add_route(a.node_id, foreign_port)

    def test_ports_have_independent_buffers(self):
        sim = Simulator()
        switch, a, b = wire(sim)
        port_a = switch.route_for(a.node_id)
        port_b = switch.route_for(b.node_id)
        assert port_a.queue is not port_b.queue

    def test_route_for_unknown_is_none(self):
        sim = Simulator()
        switch, _, _ = wire(sim)
        assert switch.route_for(123456) is None


class TestDepartureRouting:
    """A plain link into a Switch is routed when the frame leaves the port."""

    def test_only_a_plain_link_into_a_switch_binds_the_table(self):
        sim = Simulator()
        switch, a, b = wire(sim)
        assert a.nic._dst_sends is switch._sends
        assert switch.route_for(a.node_id)._dst_sends is None  # into a host
        shared = SharedBufferSwitch(sim, "shared")
        c = Host(sim, "c")
        c.attach_link(Link(shared))
        assert c.nic._dst_sends is None
        a.nic.link = make_lossy(a.nic.link, never())
        assert a.nic._dst_sends is None

    def test_unroutable_frame_is_counted_at_arrival_time(self):
        sim = Simulator()
        switch, a, b = wire(sim)
        pool = PacketPool.of(sim)
        h = data(sim, 1, a.node_id, 99_999, 0, 100)
        link = a.nic.link
        arrival = link.serialization_delay(pool.wire_bytes[h]) + link.prop_delay_ns
        seen = []
        sim.at(arrival - 1, lambda: seen.append((switch.unroutable_drops, pool.live[h])))
        a.send(h)
        sim.run_until_idle()
        assert a.nic.tx_packets == 1
        assert seen == [(0, 1)]  # departed, still in flight, not yet counted
        assert (sim.now, switch.unroutable_drops, pool.live[h]) == (arrival, 1, 0)

    @pytest.mark.parametrize("policy, delivered", [(never, 1), (lambda: drop_nth(0), 0)])
    def test_faulty_link_spliced_mid_frame_keeps_the_indirect_path(self, policy, delivered):
        sim = Simulator()
        switch, a, b = wire(sim)
        ep = Endpoint(sim)
        b.register_flow(1, ep)
        a.send(data(sim, 1, a.node_id, b.node_id, 0, 100))
        faulty = a.nic.link = make_lossy(a.nic.link, policy())  # the frame is on the wire
        sim.run_until_idle()
        assert faulty.offered_packets == 1
        assert faulty.injected_drops == 1 - delivered
        assert len(ep.packets) == delivered
        assert switch.unroutable_drops == 0
        assert not any(PacketPool.of(sim).live)


class TestHost:
    def test_demux_by_flow_id(self):
        sim = Simulator()
        switch, a, b = wire(sim)
        ep1, ep2 = Endpoint(sim), Endpoint(sim)
        b.register_flow(1, ep1)
        b.register_flow(2, ep2)
        a.send(data(sim, 2, a.node_id, b.node_id, 0, 10))
        sim.run_until_idle()
        assert not ep1.packets and len(ep2.packets) == 1

    def test_duplicate_registration_rejected(self):
        sim = Simulator()
        host = Host(sim, "h")
        host.register_flow(1, Endpoint(sim))
        with pytest.raises(ValueError):
            host.register_flow(1, Endpoint(sim))

    def test_unregister_allows_reuse(self):
        sim = Simulator()
        host = Host(sim, "h")
        host.register_flow(1, Endpoint(sim))
        host.unregister_flow(1)
        host.register_flow(1, Endpoint(sim))  # no error

    def test_unregister_missing_is_noop(self):
        Host(Simulator(), "h").unregister_flow(42)

    def test_undeliverable_counted(self):
        sim = Simulator()
        switch, a, b = wire(sim)
        a.send(data(sim, 7, a.node_id, b.node_id, 0, 10))
        sim.run_until_idle()
        assert b.undeliverable_packets == 1

    def test_send_without_link_raises(self):
        sim = Simulator()
        host = Host(sim, "h")
        with pytest.raises(RuntimeError):
            host.send(PacketPool.of(sim).alloc_control(1, 0, 1, 64))

    def test_node_ids_unique(self):
        sim = Simulator()
        hosts = [Host(sim) for _ in range(5)]
        assert len({h.node_id for h in hosts}) == 5
