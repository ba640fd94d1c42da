"""Tests for links and output ports (serialization/propagation pump)."""

import pytest

from repro.net.faults import drop_nth, make_lossy
from repro.net.link import DEFAULT_PROP_DELAY_NS, Link
from repro.net.node import Node
from repro.net.pool import HEADER_BYTES, PacketPool
from repro.net.port import OutputPort
from repro.net.queues import DropTailQueue
from repro.net.shared_buffer import SharedBufferSwitch, _PooledQueue
from repro.sim.engine import Simulator
from repro.sim.units import GBPS

from .helpers import data


class Sink(Node):
    """Records (arrival_time, handle)."""

    __slots__ = ("arrivals",)

    def __init__(self, sim):
        super().__init__(sim, "sink")
        self.arrivals = []

    def receive(self, h):
        self.arrivals.append((self.sim.now, h))


def make_port(sim, sink, rate=GBPS, prop=10_000, capacity=1_000_000):
    link = Link(sink, rate, prop)
    return OutputPort(sim, link, DropTailQueue(capacity, None, pool=PacketPool.of(sim)))


class TestLink:
    def test_serialization_delay(self):
        link = Link(None, GBPS, 0)
        assert link.serialization_delay(1460 + HEADER_BYTES) == 12_000  # 1500 B at 1 Gbps

    def test_rejects_bad_rate(self):
        with pytest.raises(ValueError):
            Link(None, 0, 10)

    def test_rejects_negative_prop(self):
        with pytest.raises(ValueError):
            Link(None, GBPS, -1)

    def test_delivery_counters(self):
        sim = Simulator()
        sink = Sink(sim)
        port = make_port(sim, sink)
        port.send(data(sim, 1, 0, sink.node_id, 0, 1460))
        sim.run_until_idle()
        assert port.link.delivered_packets == 1
        assert port.link.delivered_bytes == 1500


class TestOutputPort:
    def test_single_packet_timing(self):
        sim = Simulator()
        sink = Sink(sim)
        port = make_port(sim, sink, prop=10_000)
        port.send(data(sim, 1, 0, sink.node_id, 0, 1460))
        sim.run_until_idle()
        # 12 us serialization + 10 us propagation
        assert sink.arrivals[0][0] == 22_000

    def test_back_to_back_spacing_is_serialization(self):
        sim = Simulator()
        sink = Sink(sim)
        port = make_port(sim, sink)
        for i in range(3):
            port.send(data(sim, 1, 0, sink.node_id, i, 1460))
        sim.run_until_idle()
        times = [t for t, _ in sink.arrivals]
        assert times[1] - times[0] == 12_000
        assert times[2] - times[1] == 12_000

    def test_fifo_order(self):
        sim = Simulator()
        sink = Sink(sim)
        port = make_port(sim, sink)
        handles = [
            data(sim, 1, 0, sink.node_id, i, 100)
            for i in range(10)
        ]
        for h in handles:
            port.send(h)
        sim.run_until_idle()
        assert [h for _, h in sink.arrivals] == handles

    def test_pump_restarts_after_idle(self):
        sim = Simulator()
        sink = Sink(sim)
        port = make_port(sim, sink)
        port.send(data(sim, 1, 0, sink.node_id, 0, 1460))
        sim.run_until_idle()
        t_first = sink.arrivals[0][0]
        port.send(data(sim, 1, 0, sink.node_id, 1, 1460))
        sim.run_until_idle()
        assert sink.arrivals[1][0] == sim.now
        assert sink.arrivals[1][0] > t_first

    def test_send_returns_false_on_drop(self):
        sim = Simulator()
        sink = Sink(sim)
        port = make_port(sim, sink, capacity=1500)
        # first packet starts serializing immediately (leaves the queue),
        # second occupies the whole buffer, third is tail-dropped
        assert port.send(data(sim, 1, 0, sink.node_id, 0, 1460))
        assert port.send(data(sim, 1, 0, sink.node_id, 1, 1460))
        assert not port.send(data(sim, 1, 0, sink.node_id, 2, 1460))

    def test_backlog_excludes_in_flight_frame(self):
        sim = Simulator()
        sink = Sink(sim)
        port = make_port(sim, sink)
        port.send(data(sim, 1, 0, sink.node_id, 0, 1460))
        port.send(data(sim, 1, 0, sink.node_id, 1, 1460))
        # first frame started serializing immediately, second waits
        assert port.backlog_bytes == 1500

    def test_tx_counters(self):
        sim = Simulator()
        sink = Sink(sim)
        port = make_port(sim, sink)
        for i in range(4):
            port.send(data(sim, 1, 0, sink.node_id, i, 1460))
        sim.run_until_idle()
        assert port.tx_packets == 4
        assert port.tx_bytes == 4 * 1500


def _recording_port(sim, sink, **kwargs):
    """A port whose scheduler pushes are logged as (time, callback, handle)."""
    port = make_port(sim, sink, **kwargs)
    pushes = []
    push = port._push_light

    def _record(time, callback, h):
        pushes.append((time, callback, h))
        push(time, callback, h)

    port._push_light = _record
    return port, pushes


class _SpyLinks(list):
    """The pool's ``link`` column, counting every write.

    Allocation only reads it; freeing a handle and linking one into a
    backlog write it, so a frame that never touches a backlog writes
    nothing."""

    def __init__(self, links):
        super().__init__(links)
        self.ops = 0

    def __setitem__(self, h, value):
        self.ops += 1
        super().__setitem__(h, value)


class TestIdlePortCutThrough:
    """A frame admitted to an idle port goes straight to serialization."""

    def test_idle_admission_bypasses_the_backlog(self):
        sim = Simulator()
        pool = PacketPool.of(sim)
        spy = pool.link = _SpyLinks(pool.link)  # before the port binds the column
        sink = Sink(sim)
        port = make_port(sim, sink)
        q = port.queue
        assert port.send(data(sim, 1, 0, sink.node_id, 0, 1460))
        assert spy.ops == 0 and len(q) == 0
        assert q.occupancy_bytes == 0
        assert q.enqueued_packets == q.dequeued_packets == 1
        assert q.enqueued_bytes == q.dequeued_bytes == 1500
        assert port._busy
        # The next arrival finds the port busy and queues behind it.
        h = data(sim, 1, 0, sink.node_id, 1, 1460)
        assert port.send(h)
        assert spy.ops == 1 and list(q) == [h] and q.occupancy_bytes == 1500
        sim.run_until_idle()
        assert [t for t, _ in sink.arrivals] == [22_000, 34_000]

    def test_finish_is_pushed_exactly_as_the_queued_path_pushes_it(self):
        # Same arrivals, one port cut-through and one forced onto the queued
        # path through the indirect (non-inlined) admit: identical pushes,
        # deliveries and queue peaks.
        logs = []
        for indirect in (False, True):
            sim = Simulator()
            sink = Sink(sim)
            port, pushes = _recording_port(sim, sink)
            port._plain_queue = not indirect
            for at, seq, size in ((0, 0, 1460), (5_000, 1, 100), (60_000, 2, 1460)):
                sim.at(
                    at,
                    lambda s=seq, n=size: port.send(
                        data(sim, 1, 0, sink.node_id, s, n)
                    ),
                )
            sim.run_until_idle()
            q = port.queue
            logs.append(
                (
                    [(t, cb.__name__, h) for t, cb, h in pushes],
                    sink.arrivals,
                    port.tx_packets,
                    (q.peak_bytes, q.peak_ns),
                )
            )
        assert logs[0] == logs[1]
        pushes = logs[0][0]
        assert pushes[0] == (12_000, "_finish_tx", pushes[0][2])

    def test_frame_larger_than_the_buffer_still_drops_at_an_idle_port(self):
        sim = Simulator()
        sink = Sink(sim)
        port = make_port(sim, sink, capacity=1000)
        pool = PacketPool.of(sim)
        h = data(sim, 1, 0, sink.node_id, 0, 1460)
        assert not port.send(h)
        q = port.queue
        assert q.dropped_packets == 1 and q.dropped_bytes == 1500
        assert q.enqueued_packets == q.dequeued_packets == 0
        assert not port._busy
        assert not pool.live[h]
        sim.run_until_idle()
        assert sink.arrivals == []

    @pytest.mark.parametrize("indirect", [False, True], ids=["inline", "indirect"])
    def test_peak_counts_the_arriving_frame(self, indirect):
        # The first frame cuts through (or, indirect, is queued and started
        # at once): its peak is the frame itself.  Two more arrive while it
        # serializes and queue behind it: the peak is the backlog they make.
        sim = Simulator()
        sink = Sink(sim)
        port = make_port(sim, sink)
        port._plain_queue = not indirect
        q = port.queue
        peaks = []

        def send(seq):
            port.send(data(sim, 1, 0, sink.node_id, seq, 1460))
            peaks.append((q.peak_bytes, q.peak_ns))

        sim.at(0, send, 0)
        sim.at(5_000, send, 1)
        sim.at(5_000, send, 2)
        sim.at(60_000, send, 3)
        sim.run_until_idle()
        assert peaks == [(1500, 0), (1500, 0), (3000, 5_000), (3000, 5_000)]
        assert len(sink.arrivals) == 4

    def test_pooled_queue_takes_the_indirect_path(self, monkeypatch):
        calls = []
        enqueue = _PooledQueue.enqueue

        def _counting(self, h):
            calls.append(h)
            return enqueue(self, h)

        monkeypatch.setattr(_PooledQueue, "enqueue", _counting)
        sim = Simulator()
        switch = SharedBufferSwitch(sim, "sw", shared_pool_bytes=64 * 1024)
        sink = Sink(sim)
        port = switch.add_port(Link(sink))
        assert not port._plain_queue
        h = data(sim, 1, 0, sink.node_id, 0, 1460)
        assert port.send(h)
        assert calls == [h]
        assert (port.queue.peak_bytes, port.queue.peak_ns) == (1500, 0)
        sim.run_until_idle()
        assert [t for t, _ in sink.arrivals] == [12_000 + DEFAULT_PROP_DELAY_NS]
        assert switch.pool_occupancy_bytes == 0

    def test_spliced_faulty_link_takes_the_indirect_path(self):
        sim = Simulator()
        sink = Sink(sim)
        port = make_port(sim, sink)
        port.link = make_lossy(port.link, drop_nth(0))
        assert port._finish == port._finish_tx_indirect
        for i in range(2):
            port.send(data(sim, 1, 0, sink.node_id, i, 1460))
        sim.run_until_idle()
        # The first frame cut through the idle port and still met the
        # faulty link's propagate, which dropped it.
        assert port.link.offered_packets == 2 and port.link.injected_drops == 1
        assert [t for t, _ in sink.arrivals] == [34_000]
        assert port.tx_packets == 2
