"""Tests for the drop-tail + ECN-marking queue (pooled-handle based)."""

from collections import deque

import pytest
from hypothesis import given, strategies as st

from repro.net.link import Link
from repro.net.node import Node
from repro.net.pool import F_CE, NIL, PacketPool
from repro.net.port import OutputPort
from repro.net.queues import DropTailQueue
from repro.sim.engine import Simulator
from repro.validate import InvariantViolation


def _fresh():
    """A standalone pool + a data-segment factory allocating in it."""
    pool = PacketPool()

    def pkt(payload=1460, ect=True, flow=1, ce=False):
        h = pool.alloc_data(flow, 0, 1, 0, payload, ect, False)
        if ce:
            pool.flags[h] |= F_CE
        return h

    return pool, pkt


class TestDropTail:
    def test_enqueue_dequeue_fifo(self):
        pool, pkt = _fresh()
        q = DropTailQueue(10_000, None, pool=pool)
        handles = [pkt(100) for _ in range(5)]
        for h in handles:
            assert q.enqueue(h)
        assert [q.dequeue() for _ in range(5)] == handles

    def test_overflow_drops(self):
        pool, pkt = _fresh()
        q = DropTailQueue(3000, None, pool=pool)
        assert q.enqueue(pkt())   # 1500
        assert q.enqueue(pkt())   # 3000
        assert not q.enqueue(pkt())
        assert q.dropped_packets == 1

    def test_occupancy_accounting(self):
        pool, pkt = _fresh()
        q = DropTailQueue(10_000, None, pool=pool)
        q.enqueue(pkt(500))
        q.enqueue(pkt(700))
        assert q.occupancy_bytes == 540 + 740
        q.dequeue()
        assert q.occupancy_bytes == 740
        q.dequeue()
        assert q.occupancy_bytes == 0

    def test_dequeue_empty(self):
        pool, pkt = _fresh()
        assert DropTailQueue(1000, None, pool=pool).dequeue() is None

    def test_drop_callback(self):
        pool, pkt = _fresh()
        dropped = []
        q = DropTailQueue(1000, None, on_drop=dropped.append, pool=pool)
        q.enqueue(pkt(800))
        q.enqueue(pkt(800))
        assert len(dropped) == 1

    def test_dropped_handle_is_freed(self):
        pool, pkt = _fresh()
        q = DropTailQueue(1000, None, pool=pool)
        q.enqueue(pkt(800))
        h = pkt(800)
        assert not q.enqueue(h)
        assert not pool.live[h]

    def test_counters(self):
        pool, pkt = _fresh()
        q = DropTailQueue(2000, None, pool=pool)
        q.enqueue(pkt(500))
        q.enqueue(pkt(500))
        q.enqueue(pkt(5000))  # dropped
        assert q.enqueued_packets == 2
        assert q.enqueued_bytes == 1080
        assert q.dropped_bytes == 5040

    def test_rejects_bad_capacity(self):
        pool = PacketPool()
        with pytest.raises(ValueError):
            DropTailQueue(0, None, pool=pool)
        with pytest.raises(ValueError):
            DropTailQueue(-5, None, pool=pool)

    def test_rejects_negative_threshold(self):
        with pytest.raises(ValueError):
            DropTailQueue(1000, -1, pool=PacketPool())


class TestEcnMarking:
    def test_marks_when_occupancy_exceeds_threshold(self):
        pool, pkt = _fresh()
        q = DropTailQueue(100_000, 2000, pool=pool)
        q.enqueue(pkt())  # occupancy 1500 <= K: no mark on next check? (1500 < 2000)
        h2 = pkt()
        q.enqueue(h2)      # occupancy before enqueue = 1500 < 2000 -> unmarked
        assert not pool.view(h2).ce
        h3 = pkt()
        q.enqueue(h3)      # occupancy 3000 > 2000 -> marked
        assert pool.view(h3).ce
        assert q.marked_packets == 1

    def test_threshold_is_strict(self):
        pool, pkt = _fresh()
        q = DropTailQueue(100_000, 1500, pool=pool)
        q.enqueue(pkt(1460))  # occupancy exactly 1500
        h = pkt()
        q.enqueue(h)  # 1500 > 1500 is False -> no mark
        assert not pool.view(h).ce

    def test_non_ect_packets_never_marked(self):
        pool, pkt = _fresh()
        q = DropTailQueue(100_000, 0, pool=pool)
        q.enqueue(pkt())
        h = pkt(ect=False)
        q.enqueue(h)
        assert not pool.view(h).ce

    def test_marking_disabled_with_none(self):
        pool, pkt = _fresh()
        q = DropTailQueue(100_000, None, pool=pool)
        q.enqueue(pkt())
        h = pkt()
        q.enqueue(h)
        assert not pool.view(h).ce

    def test_mark_callback(self):
        pool, pkt = _fresh()
        marked = []
        q = DropTailQueue(100_000, 0, on_mark=marked.append, pool=pool)
        q.enqueue(pkt())
        q.enqueue(pkt())
        assert len(marked) == 1  # first saw empty queue

    def test_already_ce_not_double_counted(self):
        pool, pkt = _fresh()
        q = DropTailQueue(100_000, 0, pool=pool)
        q.enqueue(pkt())
        q.enqueue(pkt(ce=True))
        assert q.marked_packets == 0

    def test_marked_then_dropped_still_counts_drop(self):
        pool, pkt = _fresh()
        marked = []
        q = DropTailQueue(2000, 0, on_mark=marked.append, pool=pool)
        q.enqueue(pkt())
        h = pkt()
        assert not q.enqueue(h)
        assert marked == [h]  # marked before the admission decision
        assert q.dropped_packets == 1


class TestQueueInvariants:
    @given(
        st.lists(
            st.tuples(st.booleans(), st.integers(min_value=1, max_value=2000)),
            max_size=300,
        )
    )
    def test_occupancy_matches_contents(self, ops):
        """Random enqueue/dequeue mix: byte accounting never drifts."""
        pool, pkt = _fresh()
        q = DropTailQueue(10_000, 3_000, pool=pool)
        expected = []
        for is_enqueue, size in ops:
            if is_enqueue:
                h = pkt(size)
                if q.enqueue(h):
                    expected.append(pool.wire_bytes[h])
            else:
                got = q.dequeue()
                if expected:
                    assert got is not None and pool.wire_bytes[got] == expected.pop(0)
                    pool.free(got)
                else:
                    assert got is None
            assert q.occupancy_bytes == sum(expected)
            assert q.occupancy_bytes <= q.capacity_bytes
            assert len(q) == len(expected)


class _Sink(Node):
    __slots__ = ()

    def receive(self, h):  # pragma: no cover - the tests never run the clock
        raise AssertionError("arrivals are taken from the recorded pushes")


def _manual_port(capacity):
    """A port whose pushes are recorded instead of scheduled, so a test
    finishes each frame's serialization by hand."""
    sim = Simulator()
    sink = _Sink(sim, "sink")
    pool = PacketPool.of(sim)
    port = OutputPort(sim, Link(sink), DropTailQueue(capacity, None, pool=pool))
    pushes = []
    port._push_light = lambda time, callback, h: pushes.append((callback, h))
    return sim, pool, port, pushes


class TestBacklogChain:
    """The backlog threaded through the pool's ``link`` column against a
    ``deque`` model of the pump: drop-tail admission, cut-through at an
    idle port, FIFO departures."""

    @pytest.mark.parametrize("inline", [True, False], ids=["inline", "indirect"])
    @given(
        ops=st.lists(
            st.one_of(st.integers(1, 1460), st.just("finish"), st.just("dequeue")),
            max_size=120,
        )
    )
    def test_matches_a_deque_reference(self, inline, ops):
        capacity = 4_000
        sim, pool, port, pushes = _manual_port(capacity)
        port._plain_queue = inline
        q = port.queue
        backlog = deque()  # the reference
        on_wire = None
        departed, ref_departed = [], []
        for op in ops:
            if op == "finish":
                if on_wire is None:
                    continue
                callback, h = pushes.pop()
                assert (callback, h) == (port._finish, on_wire)
                callback(h)
                ref_departed.append(on_wire)
                on_wire = backlog.popleft() if backlog else None
                if on_wire is not None:
                    assert pushes[-1] == (port._finish, on_wire)
                while pushes and pushes[0][0] != port._finish:
                    departed.append(pushes.pop(0)[1])  # arrivals at the sink
            elif op == "dequeue":
                # A direct dequeue (a reader draining the queue by hand).
                h = q.dequeue()
                assert h == (backlog.popleft() if backlog else None)
                if h is not None:
                    pool.free(h)
            else:
                h = pool.alloc_data(1, 0, 1, 0, op, False, False)
                wire = pool.wire_bytes[h]
                admitted = port.send(h)
                occupancy = sum(pool.wire_bytes[b] for b in backlog)
                if occupancy + wire > capacity:
                    assert not admitted and not pool.live[h]
                elif on_wire is None and not backlog:
                    assert admitted
                    on_wire = h  # cut through
                    assert pushes[-1] == (port._finish, h)
                else:
                    assert admitted
                    backlog.append(h)
            assert list(q) == list(backlog)
            assert len(q) == len(backlog)
            assert q.occupancy_bytes == sum(pool.wire_bytes[b] for b in backlog)
            if backlog:
                assert q._tail == backlog[-1] and pool.link[q._tail] == NIL
            assert port._busy == (on_wire is not None)
        assert departed == ref_departed

    def test_queue_level_fifo_with_drops(self):
        pool, pkt = _fresh()
        q = DropTailQueue(3_100, None, pool=pool)
        first, second, dropped, third = pkt(), pkt(), pkt(), pkt(10)
        assert q.enqueue(first) and q.enqueue(second)
        assert not q.enqueue(dropped)
        assert q.enqueue(third)
        assert list(q) == [first, second, third] and q._tail == third
        assert q.dequeue() == first
        assert list(q) == [second, third]
        assert q.dequeue() == second and q.dequeue() == third
        assert q.dequeue() is None and len(q) == 0 and list(q) == []


class TestCorruptBacklogIsAViolation:
    """The checker counts residents by walking the backlog chain: a corrupt
    one is a violation, never a hang."""

    @staticmethod
    def _queued():
        sim = Simulator(validate=True)
        sink = _Sink(sim, "sink")
        pool = PacketPool.of(sim)
        port = OutputPort(sim, Link(sink), DropTailQueue(100_000, None, pool=pool))
        for seq in range(4):  # the first cuts through, three queue behind it
            port.send(pool.alloc_data(1, 0, 1, seq, 1460, False, False))
        sim.checker.sweep()  # the intact backlog passes
        return sim, pool, port.queue

    @pytest.mark.parametrize(
        "corrupt, message",
        [
            (lambda pool, q: pool.link.__setitem__(q._tail, q._head), "cycle"),
            (lambda pool, q: pool.link.__setitem__(q._head, -7), "outside the pool"),
            (lambda pool, q: pool.link.__setitem__(q._head, NIL), "not at the tail"),
            (lambda pool, q: pool.free(q._tail), "dead in the pool"),
        ],
        ids=["cycle", "out-of-range", "truncated", "freed-while-queued"],
    )
    def test_corrupt_backlog_chain_raises(self, corrupt, message):
        sim, pool, q = self._queued()
        corrupt(pool, q)
        with pytest.raises(InvariantViolation, match=message):
            sim.checker.sweep()
