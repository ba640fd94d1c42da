"""The native event core (repro.sim._evcore) against the pure engine.

Two kinds of pinning:

- **Semantics parity**: every engine behaviour (until/max_events/
  stop_when/request_stop, cancellation, deferred reschedules, exception
  propagation, freelist recycling, light/regular interleaving) runs
  parametrized over both dispatch modes, each plain, validated and
  profiled, and must behave identically.  Both loops feed the checker and
  the profiler the same sweeps, counts and batches.
- **Digest equivalence**: a full scenario simulated natively must hash
  to the same result as the pure-Python run — the bit-for-bit ordering
  guarantee the core's shared sequence counter exists to provide.

Everything native is skipped (not failed) on machines without a working
C toolchain; the engine itself falls back the same way.
"""

from __future__ import annotations

import functools
import gc
import weakref

import pytest

from repro.sim import _native
from repro.sim.engine import VALIDATE_ENV, Simulator
from repro.telemetry import EngineProfiler

requires_native = pytest.mark.skipif(
    _native.core_factory() is None,
    reason=f"native core unavailable: {_native.status()}",
)


def _native_simulator() -> Simulator:
    s = Simulator(native=True)
    assert s.native  # or the "native" ids would silently re-test the Python loop
    return s


#: Simulator factories, one per dispatch mode / observer branch.
#: "validated" and "profiled" take the default mode (native when the core
#: is available); the "-pure" ids force the Python loop's observer branches.
MODES = [
    pytest.param(lambda: Simulator(native=False), id="pure"),
    pytest.param(_native_simulator, marks=requires_native, id="native"),
    pytest.param(lambda: Simulator(validate=True), id="validated"),
    pytest.param(lambda: Simulator(validate=True, native=False), id="validated-pure"),
    pytest.param(lambda: Simulator(profiler=EngineProfiler()), id="profiled"),
    pytest.param(lambda: Simulator(profiler=EngineProfiler(), native=False), id="profiled-pure"),
]


@pytest.fixture(params=MODES)
def sim(request) -> Simulator:
    return request.param()


class TestModeSelection:
    @requires_native
    def test_default_simulator_is_native_when_available(self):
        assert Simulator().native

    def test_env_optout_forces_pure(self, monkeypatch):
        monkeypatch.setenv(_native.NATIVE_ENV, "0")
        assert not Simulator().native

    @requires_native
    def test_observed_simulator_is_native_when_available(self):
        assert Simulator(validate=True).native
        assert Simulator(profiler=EngineProfiler()).native
        assert Simulator(validate=True, profiler=EngineProfiler(), native=True).native

    def test_observed_simulator_forced_pure(self, monkeypatch):
        assert not Simulator(validate=True, native=False).native
        assert not Simulator(profiler=EngineProfiler(), native=False).native
        monkeypatch.setenv(_native.NATIVE_ENV, "0")
        assert not Simulator(validate=True).native
        assert not Simulator(validate=True, profiler=EngineProfiler()).native


class TestSemanticsParity:
    def test_interleaved_light_and_regular_order(self, sim):
        seen = []
        sim.schedule(10, seen.append, "r10")
        sim.schedule_light(10, seen.append, "l10")
        sim.schedule(5, seen.append, "r5")
        sim.schedule_light(0, seen.append, "l0")
        sim.schedule_light(5, seen.append, "l5")
        assert sim.run() == 5
        assert seen == ["l0", "r5", "l5", "r10", "l10"]

    def test_fifo_ties_across_kinds_at_one_timestamp(self, sim):
        seen = []
        for i in range(6):
            if i % 2:
                sim.schedule_light(7, seen.append, i)
            else:
                sim.schedule(7, seen.append, i)
        sim.run()
        assert seen == [0, 1, 2, 3, 4, 5]

    def test_until_leaves_future_events_and_advances_clock(self, sim):
        seen = []
        sim.schedule(10, seen.append, 10)
        sim.schedule_light(30, seen.append, 30)
        assert sim.run(until=20) == 1
        assert seen == [10] and sim.now == 20
        sim.run_until_idle()
        assert seen == [10, 30] and sim.now == 30

    def test_until_advances_clock_when_idle(self, sim):
        sim.run(until=500)
        assert sim.now == 500

    def test_max_events_and_events_processed(self, sim):
        for t in range(10):
            sim.schedule_light(t, lambda _a: None, 0)
        assert sim.run(max_events=4) == 4
        assert sim.events_processed == 4
        assert sim.run() == 6

    def test_stop_when_predicate(self, sim):
        seen = []
        for t in range(1, 6):
            sim.schedule(t, seen.append, t)
        sim.run(stop_when=lambda: len(seen) >= 3)
        assert seen == [1, 2, 3]

    def test_request_stop_from_callback(self, sim):
        seen = []

        def cb(v):
            seen.append(v)
            if v == 2:
                sim.request_stop()

        for v in range(5):
            sim.schedule_light(v, cb, v)
        sim.run()
        assert seen == [0, 1, 2]

    def test_cancelled_events_skipped_and_recycled(self, sim):
        seen = []
        keep = sim.schedule(10, seen.append, "keep")
        kill = sim.schedule(5, seen.append, "kill")
        sim.cancel(kill)
        sim.run()
        assert seen == ["keep"]
        assert kill in sim.queue._free  # carcass recycled through the freelist
        assert keep in sim.queue._free  # fired handle recycled too

    def test_deferred_reschedule_refiles_at_true_deadline(self, sim):
        seen = []
        timer = sim.schedule(10, seen.append, "early")
        sim.schedule_light(5, lambda _a: sim.reschedule(timer, 20, seen.append, "late"), 0)
        sim.schedule_light(15, seen.append, "mid")
        sim.run()
        assert seen == ["mid", "late"]
        assert sim.now == 25  # 5 (reschedule) + 20

    def test_callback_exception_propagates_with_partial_accounting(self, sim):
        seen = []
        sim.schedule_light(1, seen.append, 1)
        sim.schedule(2, self._boom)
        sim.schedule_light(3, seen.append, 3)
        with pytest.raises(RuntimeError, match="boom"):
            sim.run()
        assert seen == [1]
        assert sim.events_processed == 1  # the raising event is not credited
        sim.run_until_idle()
        assert seen == [1, 3]

    @staticmethod
    def _boom():
        raise RuntimeError("boom")

    def test_nested_scheduling_from_light_callbacks(self, sim):
        seen = []

        def chain(depth):
            seen.append(sim.now)
            if depth:
                sim.schedule_light(5, chain, depth - 1)

        sim.schedule_light(0, chain, 3)
        sim.run_until_idle()
        assert seen == [0, 5, 10, 15]

    def test_zero_delay_light_event_runs_in_same_batch(self, sim):
        seen = []
        sim.schedule_light(10, lambda _a: sim.schedule_light(0, seen.append, "child"), 0)
        sim.schedule(10, seen.append, "sibling")
        sim.run()
        # parent (seq 0) -> sibling (seq 1) -> child (scheduled during the
        # batch, higher seq): exact (time, seq) order in both modes.
        assert seen == ["sibling", "child"]

    def test_shared_sequence_stream_with_direct_queue_push(self, sim):
        seen = []
        sim.queue.push(10, seen.append, ("direct",))
        sim.schedule_light(10, seen.append, "light")
        sim.schedule(10, seen.append, "regular")
        sim.run()
        assert seen == ["direct", "light", "regular"]

    def test_queue_clear_drops_every_pending_event(self, sim):
        # Light events live in the native core's own heap, not the queue's.
        seen = []
        sim.schedule_light(10, seen.append, "light")
        sim.schedule(20, seen.append, "regular")
        sim.cancel(sim.schedule(5, seen.append, "cancelled"))
        sim.queue.clear()
        assert len(sim.queue) == 0
        assert sim.run() == 0 and seen == []
        # The sequence stream survives a clear: later events still tie-break FIFO.
        sim.schedule(7, seen.append, "r0")
        sim.schedule_light(7, seen.append, "l1")
        sim.schedule(7, seen.append, "r2")
        assert sim.run() == 3
        assert seen == ["r0", "l1", "r2"]


class _Owner:
    """Stands in for a port: holds the simulator, is held by a pending callback."""

    def __init__(self, sim: Simulator):
        self.sim = sim

    def fire(self, _arg):
        pass


@pytest.mark.parametrize("make_sim", MODES)
def test_dropped_simulation_with_pending_light_events_is_collected(make_sim):
    # Simulator -> (queue | core) -> pending light callback -> owner -> Simulator:
    # the collector has to see through whichever heap holds the light entry.
    owner = _Owner(make_sim())
    owner.sim.schedule_light(10, owner.fire, 0)
    alive = weakref.ref(owner)
    del owner
    gc.collect()
    assert alive() is None


@requires_native
class TestDigestEquivalence:
    @pytest.mark.parametrize("protocol", ["dctcp", "dctcp+", "pulser"])
    def test_scenario_results_match_pure(self, protocol, monkeypatch):
        from repro.exec.scenario import ScenarioSpec, run_scenario
        from repro.validate.fuzz import result_digest

        spec = ScenarioSpec.create(protocol, 16, rounds=2, seed=3)
        native = run_scenario(spec)
        monkeypatch.setenv(_native.NATIVE_ENV, "0")
        pure = run_scenario(spec)
        assert result_digest(native) == result_digest(pure)


# -- the plain hop the core runs itself ---------------------------------------------------
def _ports(net):
    """Every egress port of a built network, hosts' NICs first, then each
    switch's ports in discovery order."""
    ports = [host.nic for host in net.all_hosts]
    switches, frontier = [], [port.link.dst for port in ports]
    while frontier:
        node = frontier.pop(0)
        if hasattr(node, "ports") and not any(node is s for s in switches):
            switches.append(node)
            frontier.extend(port.link.dst for port in node.ports)
    return ports + [port for switch in switches for port in switch.ports], switches


_QUEUE_FIELDS = (
    "occupancy_bytes", "enqueued_packets", "enqueued_bytes", "dequeued_packets",
    "dequeued_bytes", "dropped_packets", "dropped_bytes", "marked_packets",
    "inc_marked_packets", "peak_bytes", "peak_ns", "_head", "_tail",
)


def _counters(sim, net) -> dict:
    """Every port, queue and link counter and peak of ``net``, the hosts'
    undeliverable and the switches' unroutable counts, the pool's totals,
    the simulator's clock and event count, and the checker's sweeps."""
    ports, switches = _ports(net)
    return dict(
        ports=[
            (
                port.name, port.tx_packets, port.tx_bytes, port._busy,
                port.link.delivered_packets, port.link.delivered_bytes,
                *(getattr(port.queue, f) for f in _QUEUE_FIELDS),
            )
            for port in ports
        ],
        hosts=[host.undeliverable_packets for host in net.all_hosts],
        switches=[switch.unroutable_drops for switch in switches],
        pool=(sim.pool.allocated_total, sim.pool.freed_total, sim.pool.capacity),
        clock=(sim.now, sim.events_processed),
        sweeps=None if sim.checker is None else sim.checker.sweeps,
    )


def _point(spec, native: bool, monkeypatch, during=None):
    """``run_scenario(spec)`` in one dispatch mode: ``(result or the exception
    it raised, counters)``.  ``during(sim, net)`` runs once the network is
    built, before the workload."""
    from repro.exec import scenario
    from repro.net.topology import topology_builder

    seen = {}

    def builder(name):
        build = topology_builder(name)

        def built(sim, params):
            net = seen["net"] = build(sim, params)
            seen["sim"] = sim
            if during is not None:
                during(sim, net)
            return net

        return built

    monkeypatch.setattr(scenario, "topology_builder", builder)
    monkeypatch.setenv(_native.NATIVE_ENV, "1" if native else "0")
    try:
        outcome = scenario.run_scenario(spec)
    except Exception as exc:  # noqa: BLE001 - compared across the modes
        outcome = exc
    sim = seen["sim"]
    assert sim.native == native
    return outcome, _counters(sim, seen["net"])


def _both(spec, monkeypatch, during=None):
    """Run ``spec`` natively and in pure Python; the counters must agree,
    and so must the results (by digest) or the exceptions.  Returns the
    native run's ``(outcome, counters)``."""
    from repro.validate.fuzz import result_digest

    native, native_counters = _point(spec, True, monkeypatch, during)
    pure, pure_counters = _point(spec, False, monkeypatch, during)
    assert native_counters == pure_counters
    if isinstance(pure, Exception):
        assert type(native) is type(pure) and str(native) == str(pure)
    else:
        assert result_digest(native) == result_digest(pure)
    return native, native_counters


def _queue_totals(counters, field):
    return sum(row[6 + _QUEUE_FIELDS.index(field)] for row in counters["ports"])


@requires_native
class TestHopParity:
    """Cases the C hop must hand to Python, or copy exactly, beyond the
    engine parity above and the golden digests."""

    def test_faulty_link_spliced_while_a_frame_is_on_the_wire(self, monkeypatch):
        from repro.exec.scenario import ScenarioSpec
        from repro.net.faults import drop_nth, make_lossy

        spliced = []

        def during(sim, net):
            port = net.bottleneck_port

            def splice():
                spliced.append(port._busy)
                port.link = make_lossy(port.link, drop_nth(2, 5, 9))

            sim.schedule(150_000, splice)

        _result, counters = _both(ScenarioSpec.create("dctcp", 16, rounds=2, seed=3), monkeypatch, during)
        assert spliced == [True, True]  # the bottleneck was mid-frame in both modes

    def test_shared_buffer_switches(self, monkeypatch):
        from repro.exec.scenario import ScenarioSpec

        spec = ScenarioSpec.create("dctcp", 24, rounds=2, seed=3, topo=dict(shared_pool_bytes=96_000))
        _result, counters = _both(spec, monkeypatch)
        assert _queue_totals(counters, "dropped_packets") > 0

    def test_traced_run_matches_the_golden_trace(self, monkeypatch):
        from repro.exec.scenario import ScenarioSpec
        from repro.telemetry import records_to_jsonl

        from .test_trace_golden import GOLDEN_PATH, GOLDEN_SPEC

        result, _counters = _both(ScenarioSpec.create(**GOLDEN_SPEC), monkeypatch)
        with open(GOLDEN_PATH, "r", encoding="utf-8", newline="") as fh:
            assert records_to_jsonl(result.trace_events) == fh.read()

    def test_pulser_incast_marking(self, monkeypatch):
        from repro.exec.scenario import ScenarioSpec

        _result, counters = _both(ScenarioSpec.create("pulser", 32, rounds=2, seed=3), monkeypatch)
        assert _queue_totals(counters, "inc_marked_packets") > 0

    def test_drops_at_a_full_port(self, monkeypatch):
        from repro.exec.scenario import ScenarioSpec

        _result, counters = _both(ScenarioSpec.create("tcp", 48, rounds=2, seed=3), monkeypatch)
        assert _queue_totals(counters, "dropped_packets") > 0

    def test_pool_grows_while_frames_are_queued(self, monkeypatch):
        from repro.exec.scenario import ScenarioSpec
        from repro.net.pool import DEFAULT_CAPACITY, PacketPool

        queued_at_growth = []
        grow = PacketPool._grow

        def during(sim, net):
            ports = _ports(net)[0]
            src, dst = net.servers[0], net.aggregator

            def counted_grow(pool):
                queued_at_growth.append(sum(port.queue.occupancy_bytes for port in ports))
                grow(pool)

            def burst():
                # Mid-incast, one server floods its NIC with frames nobody
                # claims: the pool grows under them.
                pool = PacketPool.of(sim)
                for _ in range(DEFAULT_CAPACITY):
                    src.send(pool.alloc_control(10**9, src.node_id, dst.node_id, 1500))

            monkeypatch.setattr(PacketPool, "_grow", counted_grow)
            sim.schedule(2_000_000, burst)

        spec = ScenarioSpec.create("dctcp", 16, rounds=2, seed=3)
        _result, counters = _both(spec, monkeypatch, during)
        assert counters["pool"][2] > DEFAULT_CAPACITY
        assert queued_at_growth and min(queued_at_growth) > 0
        assert sum(counters["hosts"]) > 0  # the burst, less the bottleneck drops

    def test_an_on_drop_hook_that_raises(self, monkeypatch):
        from repro.exec.scenario import ScenarioSpec

        def during(sim, net):
            def boom(h):
                raise RuntimeError(f"drop of handle {h}")

            net.bottleneck_port.queue.on_drop = boom

        outcome, counters = _both(ScenarioSpec.create("tcp", 48, rounds=2, seed=3), monkeypatch, during)
        assert isinstance(outcome, RuntimeError)
        assert _queue_totals(counters, "dropped_packets") == 1

    def test_unroutable_and_undeliverable_frames(self):
        from repro.net.pool import PacketPool
        from repro.net.topology import build_two_tier

        def run(native):
            sim = Simulator(native=native)
            tree = build_two_tier(sim)
            pool = PacketPool.of(sim)
            src, dst = tree.servers[0], tree.servers[-1]
            src.send(pool.alloc_control(7, src.node_id, 10_000, 64))  # no route
            src.send(pool.alloc_control(7, src.node_id, dst.node_id, 64))  # no flow 7
            sim.run()
            return _counters(sim, tree)

        counters = run(True)
        assert counters == run(False)
        assert sum(counters["switches"]) == 1 and sum(counters["hosts"]) == 1
        assert counters["pool"][:2] == (2, 2)


@requires_native
class TestHopParityValidated(TestHopParity):
    """Every hop parity case with the invariant checker attached in both
    modes: it sweeps the C hop's accounts as it sweeps Python's, as often."""

    @pytest.fixture(autouse=True)
    def _validated(self, monkeypatch):
        monkeypatch.setenv(VALIDATE_ENV, "1")


# -- the observers both loops serve -------------------------------------------------------
class TestObserverParity:
    """The checker's sweeps and the profiler's counts and batches do not
    depend on the loop that feeds them."""

    @staticmethod
    def _profile(native: bool) -> EngineProfiler:
        """A schedule whose batches break at a cancelled and at a deferred
        Event at one timestamp, with a method, a function, a builtin and a
        partial as callbacks."""
        profiler = EngineProfiler()
        sim = Simulator(profiler=profiler, native=native)
        assert sim.native == native
        seen = []
        owner = _Owner(sim)

        def tick(arg):
            seen.append(arg)

        sim.schedule_light(10, tick, 0)
        timer = sim.schedule(10, seen.append, "timer")
        sim.schedule_light(10, tick, 1)
        sim.cancel(sim.schedule(10, seen.append, "dead"))
        sim.schedule_light(10, owner.fire, 2)
        sim.schedule_light(5, lambda _a: sim.reschedule(timer, 6, tick, "late"), 0)
        sim.schedule_light(10, functools.partial(tick), 3)
        sim.schedule(10, tick, 4)
        sim.schedule_light(11, tick, 5)
        sim.run()
        assert seen == [0, 1, 3, 4, 5, "late"]
        return profiler

    @pytest.mark.parametrize("native", [pytest.param(True, marks=requires_native), False])
    def test_batches_break_at_carcasses_and_deferrals(self, native):
        profiler = self._profile(native)
        tick = "TestObserverParity._profile.<locals>.tick"
        rearm = "TestObserverParity._profile.<locals>.<lambda>"
        assert profiler.counts == {tick: 5, "_Owner.fire": 1, "partial": 1, rearm: 1}
        # t=5: lambda | t=10: tick, (timer deferred) | tick, (dead) | fire,
        # partial, tick | t=11: tick, tick
        assert profiler.batches == 5
        assert profiler.batch_events == {
            tick: 1 + 1 + 3 + 2 + 2, "_Owner.fire": 3, "partial": 3, rearm: 1
        }
        assert profiler.events == 8 and set(profiler.times_s) == set(profiler.counts)

    @requires_native
    def test_profiles_match_pure(self):
        native, pure = self._profile(True), self._profile(False)
        assert native.counts == pure.counts
        assert native.batches == pure.batches
        assert native.batch_events == pure.batch_events

    @pytest.mark.parametrize("native", [pytest.param(True, marks=requires_native), False])
    def test_callback_raising_still_flushes_and_credits(self, native):
        profiler = EngineProfiler()
        sim = Simulator(profiler=profiler, native=native)
        assert sim.native == native
        seen = []
        sim.schedule_light(1, seen.append, 1)
        sim.schedule_light(1, seen.append, 2)
        sim.schedule(2, seen.append, 3)
        sim.schedule(2, TestSemanticsParity._boom)
        with pytest.raises(RuntimeError, match="boom"):
            sim.run()
        assert sim.events_processed == 3 and profiler.events == 3
        assert profiler.counts == {"list.append": 3}
        assert set(profiler.times_s) == {"list.append"}
        # The t=1 batch was recorded; the raising t=2 one is dropped.
        assert profiler.batches == 1 and profiler.batch_events == {"list.append": 4}

    @requires_native
    @pytest.mark.parametrize("sweep_every", [1, 3, 256])
    def test_sweeps_match_pure_across_run_calls(self, sweep_every):
        def sweeps(native):
            sim = Simulator(validate=True, native=native)
            assert sim.native == native
            sim.checker.sweep_every = sweep_every
            for t in range(40):
                sim.schedule_light(t // 3, lambda _a: None, 0)
            sim.run(max_events=7)
            sim.run(until=9)
            sim.run()
            return sim.checker.sweeps, sim.events_processed

        assert sweeps(True) == sweeps(False)

    @pytest.mark.parametrize("native", [pytest.param(True, marks=requires_native), False])
    def test_dispatch_time_going_backwards_is_caught(self, native):
        from repro.validate import InvariantViolation

        sim = Simulator(validate=True, native=native)
        sim.schedule_light(10, lambda _a: sim.push_light(5, lambda _b: None, 0), 0)
        with pytest.raises(InvariantViolation, match="went backwards: 5 < 10"):
            sim.run()
        # ... and across run() calls, as the checker saw the last time.
        sim = Simulator(validate=True, native=native)
        sim.schedule_light(10, lambda _a: None, 0)
        sim.run()
        sim.push_light(5, lambda _a: None, 0)
        with pytest.raises(InvariantViolation, match="went backwards: 5 < 10"):
            sim.run()

    @staticmethod
    def _point(spec, native: bool, monkeypatch):
        from repro.exec.scenario import run_scenario

        monkeypatch.setenv(_native.NATIVE_ENV, "1" if native else "0")
        assert Simulator().native == native
        profiler = EngineProfiler()
        result = run_scenario(spec, validate=True, profiler=profiler)
        return result, profiler

    @requires_native
    @pytest.mark.parametrize(
        "spec_kwargs",
        [
            pytest.param(dict(protocol="dctcp+", n_flows=32, rounds=2, seed=3), id="incast"),
            pytest.param(
                dict(
                    protocol="dctcp",
                    n_flows=8,
                    rounds=2,
                    seed=1,
                    topology="fat-tree",
                    workload="http",
                    topo=dict(fat_tree_k=4, hosts_per_edge=2),
                ),
                id="fat-tree-http",
            ),
        ],
    )
    def test_scenario_profiles_match_pure(self, spec_kwargs, monkeypatch):
        from repro.exec.scenario import ScenarioSpec
        from repro.validate.fuzz import result_digest

        spec = ScenarioSpec.create(**spec_kwargs)
        native_result, native = self._point(spec, True, monkeypatch)
        pure_result, pure = self._point(spec, False, monkeypatch)
        assert result_digest(native_result) == result_digest(pure_result)
        assert native.counts == pure.counts
        assert native.batches == pure.batches
        assert native.batch_events == pure.batch_events
        assert native.events == pure.events
        # The hops the core runs itself count under their methods.
        assert native.counts["OutputPort._finish_tx"] > 0
