"""Unit tests for the Simulator event loop."""

import pytest

from repro.sim.engine import SimulationError, Simulator


class TestScheduling:
    def test_schedule_advances_clock(self):
        sim = Simulator()
        seen = []
        sim.schedule(100, lambda: seen.append(sim.now))
        sim.run_until_idle()
        assert seen == [100]
        assert sim.now == 100

    def test_at_absolute_time(self):
        sim = Simulator()
        sim.schedule(50, lambda: None)
        sim.run_until_idle()
        seen = []
        sim.at(80, lambda: seen.append(sim.now))
        sim.run_until_idle()
        assert seen == [80]

    def test_negative_delay_rejected(self):
        with pytest.raises(SimulationError):
            Simulator().schedule(-1, lambda: None)

    def test_at_in_past_rejected(self):
        sim = Simulator()
        sim.schedule(100, lambda: None)
        sim.run_until_idle()
        with pytest.raises(SimulationError):
            sim.at(50, lambda: None)

    def test_args_forwarded(self):
        sim = Simulator()
        seen = []
        sim.schedule(1, seen.append, "payload")
        sim.run_until_idle()
        assert seen == ["payload"]

    def test_cancel_none_is_noop(self):
        Simulator().cancel(None)

    def test_cancelled_event_does_not_run(self):
        sim = Simulator()
        seen = []
        ev = sim.schedule(10, seen.append, 1)
        sim.cancel(ev)
        sim.run_until_idle()
        assert seen == []


class TestRun:
    def test_run_until_leaves_future_events(self):
        sim = Simulator()
        seen = []
        for t in (10, 20, 30):
            sim.schedule(t, seen.append, t)
        sim.run(until=20)
        assert seen == [10, 20]
        assert sim.now == 20
        sim.run_until_idle()
        assert seen == [10, 20, 30]

    def test_run_until_advances_clock_when_idle(self):
        sim = Simulator()
        sim.run(until=500)
        assert sim.now == 500

    def test_max_events(self):
        sim = Simulator()
        for t in range(10):
            sim.schedule(t, lambda: None)
        processed = sim.run(max_events=4)
        assert processed == 4
        assert len(sim.queue) == 6

    def test_stop_when_predicate(self):
        sim = Simulator()
        seen = []
        for t in range(1, 6):
            sim.schedule(t, seen.append, t)
        sim.run(stop_when=lambda: len(seen) >= 3)
        assert seen == [1, 2, 3]

    def test_nested_scheduling(self):
        sim = Simulator()
        seen = []

        def chain(depth):
            seen.append(sim.now)
            if depth:
                sim.schedule(5, chain, depth - 1)

        sim.schedule(0, chain, 3)
        sim.run_until_idle()
        assert seen == [0, 5, 10, 15]

    def test_events_processed_counter(self):
        sim = Simulator()
        for t in range(7):
            sim.schedule(t, lambda: None)
        sim.run_until_idle()
        assert sim.events_processed == 7

    def test_same_time_events_run_in_schedule_order(self):
        sim = Simulator()
        seen = []
        sim.schedule(10, seen.append, "a")
        sim.schedule(10, seen.append, "b")
        sim.run_until_idle()
        assert seen == ["a", "b"]


class TestPushProtocolConsistency:
    """Simulator.run hand-inlines the EventQueue head-scan and pop for
    speed; EventQueue.pop stays the reference it is pinned against, so a
    change to the protocol cannot be applied to one and missed in the other."""

    def test_schedule_resets_cancelled_carcass(self):
        sim = Simulator()
        ev = sim.schedule(5, lambda: None)
        sim.cancel(ev)
        sim.run_until_idle()  # pops the carcass onto the freelist, cancelled
        assert sim.queue._free == [ev]
        seen = []
        reused = sim.schedule(10, seen.append, "ran")
        assert reused is ev
        assert not reused.cancelled
        sim.run_until_idle()
        assert seen == ["ran"]

    def test_run_dispatch_matches_queue_pop(self):
        # The fused loop in Simulator.run must fire the same events in the
        # same order as the canonical EventQueue.pop under a mix of
        # cancellation and in-place reschedules.
        def build(sim, order):
            evs = {}
            for label, t in (("a", 10), ("b", 20), ("c", 20), ("d", 30)):
                evs[label] = sim.schedule(t, lambda label=label: order.append((label, sim.now)))
            sim.cancel(evs["b"])
            sim.reschedule(evs["a"], 25, lambda: order.append(("a2", sim.now)))

        a, b = Simulator(), Simulator()
        order_a, order_b = [], []
        build(a, order_a)
        build(b, order_b)
        a.run_until_idle()
        while True:
            ev = b.queue.pop()
            if ev is None:
                break
            b.now = ev.time
            ev.callback(*ev.args)
        assert order_a == order_b == [("c", 20), ("a2", 25), ("d", 30)]


class TestRngIntegration:
    def test_streams_are_deterministic(self):
        a = Simulator(seed=5).stream("x").random()
        b = Simulator(seed=5).stream("x").random()
        assert a == b

    def test_streams_differ_by_name(self):
        sim = Simulator(seed=5)
        assert sim.stream("x").random() != sim.stream("y").random()
