"""What a flow costs to build and to drop.

A massive-incast point builds thousands of flows, so the per-flow rules are
pinned here: every sender of a workload reads the *same* frozen config
objects, the slow_time stream is named when the sender is built but opened
by its first draw, a whole point is one GC epoch, and a closed flow is freed
by reference counting (what a finished point leaves for the cyclic collector
does not grow with N).  Past construction, the ledger grows by doubling
without moving a column; building a flow and a round boundary each cost a
constant number of calls plus a fixed few per flow.
"""

import cProfile
import gc
from dataclasses import FrozenInstanceError

import pytest

from repro.exec.scenario import ScenarioSpec, run_scenario
from repro.net.pool import PacketPool
from repro.net.topology import build_two_tier
from repro.sim import _native
from repro.sim.engine import Simulator
from repro.sim.units import MS
from repro.tcp.cc import cc_names
from repro.tcp.events import CC_ACK_ECHO, CCEvent
from repro.tcp.flowstate import DEFAULT_CAPACITY, FlowLedger
from repro.workloads.base import RoundResult
from repro.workloads.incast import IncastConfig, IncastWorkload
from repro.workloads.protocols import spec_for

from .test_native import requires_native
from .test_protocol_assembly import EXTERNAL

#: ``REPRO_NATIVE`` values: a finished point drops its events through the C
#: core's heap in one mode and the Python heap in the other.
DISPATCH = [pytest.param("1", id="native", marks=requires_native), pytest.param("0", id="pure")]


class Recording(Simulator):
    """A simulator that lists every RNG stream opened on it."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.opened = []

    def stream(self, name):
        self.opened.append(name)
        return super().stream(name)


def incast(sim, protocol, n_flows, n_rounds=1, **incast):
    return IncastWorkload(
        sim,
        build_two_tier(sim),
        spec_for(protocol),
        IncastConfig(n_flows, n_rounds=n_rounds, **incast),
    )


# -- (i) shared, frozen configs ---------------------------------------------------------
@pytest.mark.parametrize("name", cc_names() + EXTERNAL)
def test_senders_of_a_workload_share_frozen_configs(name):
    senders = incast(Simulator(), name, 8).senders
    first = senders[0]
    assert all(s.config is first.config for s in senders)
    with pytest.raises(FrozenInstanceError):
        first.config.min_cwnd_mss = 4.0
    if hasattr(first, "plus_config"):
        assert all(s.plus_config is first.plus_config for s in senders)
        with pytest.raises(FrozenInstanceError):
            first.plus_config.randomize = False


# -- (ii) flows are released by reference counting --------------------------------------
@pytest.fixture
def collector_off():
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


@pytest.mark.parametrize("native", DISPATCH)
@pytest.mark.parametrize("protocol", ["dctcp+", "tcp"])
def test_what_a_finished_point_leaves_to_the_collector_is_n_independent(
    protocol, native, monkeypatch, collector_off
):
    monkeypatch.setenv(_native.NATIVE_ENV, native)

    def leftover(n_flows):
        # validate=False: the checker lists every endpoint by design, so a
        # validated point's flows do wait for the cyclic collector.
        run_scenario(ScenarioSpec.create(protocol, n_flows, rounds=2, seed=1), validate=False)
        return gc.collect()

    leftover(8)  # first use of a protocol imports its sender class, fills memos
    small, large = leftover(64), leftover(256)
    # The dead topology, cyclic by construction; 4014 at N=256 before flows
    # dropped their callbacks and run_scenario cleared the queue.
    assert 0 < small == large


# -- (iii) one GC epoch per point, collector state handed back --------------------------
def gc_runs():
    return [generation["collections"] for generation in gc.get_stats()]


def test_a_point_is_one_young_collection():
    assert gc.isenabled()
    threshold = gc.get_threshold()
    spec = ScenarioSpec.create("dctcp+", 256, rounds=2, seed=1)
    gc.collect()  # empty generation 0, so no automatic run is due before the pause
    before = gc_runs()
    run_scenario(spec)
    assert [b - a for a, b in zip(before, gc_runs())] == [1, 0, 0]
    assert gc.isenabled() and gc.get_threshold() == threshold


def test_a_caller_that_disabled_the_collector_is_left_alone(collector_off):
    before = gc_runs()
    run_scenario(ScenarioSpec.create("dctcp+", 64, rounds=2, seed=1))
    assert gc_runs() == before
    assert not gc.isenabled()


def test_collector_state_survives_a_point_that_raises(monkeypatch):
    seen = []

    def boom(self):
        seen.append(gc.isenabled())
        raise RuntimeError("boom")

    monkeypatch.setattr(IncastWorkload, "_begin", boom)
    threshold = gc.get_threshold()
    with pytest.raises(RuntimeError, match="boom"):
        run_scenario(ScenarioSpec.create("dctcp+", 8, rounds=2, seed=1))
    assert seen == [False]  # the pause was in force inside the point
    assert gc.isenabled() and gc.get_threshold() == threshold


# -- (iv) the slow_time stream opens on its first draw ----------------------------------
def test_a_sender_that_never_parks_at_the_floor_opens_no_stream():
    sim = Recording(seed=1)
    workload = incast(sim, "dctcp+", 1, n_rounds=2)
    workload.run_to_completion()
    assert workload.finished and workload.total_timeouts == 0
    assert sim.opened == ["incast/jitter"]
    assert workload.senders[0].machine.rng is None


def test_a_sender_forced_to_the_floor_opens_exactly_its_own_stream():
    sim = Recording(seed=1)
    senders = incast(sim, "dctcp+", 8).senders
    assert sim.opened == ["incast/jitter"]
    echo = CCEvent()
    echo.kind = CC_ACK_ECHO
    echo.ece = True
    # The k-th sender's name is the k-th sequence number, fixed when it was
    # built — whichever sender draws first.
    for k in (5, 2):
        sender = senders[k]
        sender.cwnd = sender.config.min_cwnd_bytes
        sender.on_ecn_echo(echo)
        sender.on_ecn_echo(echo)  # a second draw reuses the opened generator
        assert sender.slow_time_ns > 0
    assert sim.opened == ["incast/jitter", "dctcp+/6", "dctcp+/3"]


def test_lazy_stream_draws_what_the_eager_one_drew():
    # Literals taken on the parent commit (streams opened at construction).
    result = run_scenario(ScenarioSpec.create("dctcp+", 40, rounds=3, seed=1))
    assert result.goodput_mbps == 624.1374401678897
    assert result.events_processed == 28416
    assert result.timeouts == 4


# -- (v) the ledger grows by doubling, in place -----------------------------------------
def test_an_endpoint_keeps_its_slot_across_ledger_growth():
    sim = Simulator(seed=1)
    sender = incast(sim, "dctcp", 1).senders[0]
    fl = FlowLedger.of(sim)
    cwnd, alpha = fl.cwnd, fl.alpha  # bound before growth, as hot paths bind them
    sender.cwnd = 4380.0
    sender.alpha = 0.25
    capacity = fl.capacity
    later = [fl.register(1460.0, 2920.0) for _ in range(2 * DEFAULT_CAPACITY + 1)]
    assert fl.capacity >= 4 * capacity and fl.slots == 2 + len(later)
    assert fl.cwnd is cwnd and fl.alpha is alpha
    assert len(cwnd) == fl.capacity
    assert sender.cwnd == 4380.0 and sender.alpha == 0.25
    sender.cwnd = 5840.0
    assert cwnd[sender._slot] == 5840.0
    assert all(cwnd[slot] == 1460.0 and fl.ssthresh[slot] == 2920.0 for slot in later)
    # Growth fills each column with its own zero type.
    for name in FlowLedger.COLUMNS:
        zero = getattr(fl, name)[fl.slots]
        assert zero == 0 and type(zero) is (
            float if name in ("cwnd", "ssthresh", "ca_bytes_acked", "alpha") else int
        )


# -- (vi) building a flow costs a pinned number of calls ---------------------------------
def total_calls(profile):
    """Every call the profile saw, counted per code object.

    ``pstats.Stats(...).total_calls`` keys functions by (file, line, name), so
    code objects that share a label — the ``<string>:2:__init__`` of every
    dataclass — overwrite each other, and which one survives depends on where
    they sit in memory.  The raw entries do not collide."""
    return sum(entry.callcount for entry in profile.getstats())


#: Calls each extra flow adds to building an incast workload, its ledger
#: pre-grown so no doubling lands inside.  The shared config is resolved once:
#: `spec_for` sets its ECN stance to the strategy's, so no sender calls
#: `with_overrides` per flow, and the byte views are cached on the config.
#: Slow_time senders add the machine, its stream name and the pacer; D2TCP its
#: deadline mixin's `__init__`.
BUILD_CALLS_PER_FLOW = {"tcp": 27, "dctcp": 28, "d2tcp": 29, "dctcp+": 32}


@pytest.mark.parametrize("protocol", list(BUILD_CALLS_PER_FLOW))
def test_building_a_flow_costs_pinned_calls(protocol, collector_off):
    # Construction schedules nothing, so the dispatch mode does not enter.
    # The collector is off, as run_scenario pauses it for a whole point: a
    # collection inside the profile would count its callbacks' calls.  The
    # pin is the unobserved build, so a checker that REPRO_VALIDATE=1 would
    # attach (and its per-endpoint hook registrations) stays out of it.
    spec = spec_for(protocol)  # one spec, so its config memos are warm after the first build

    def build_calls(n_flows):
        sim = Simulator(seed=1, validate=False)
        tree = build_two_tier(sim)
        fl = FlowLedger.of(sim)
        while fl.capacity < 2 * n_flows:
            fl._grow()
        profile = cProfile.Profile()
        profile.enable()
        IncastWorkload(sim, tree, spec, IncastConfig(n_flows))
        profile.disable()
        return total_calls(profile)

    build_calls(8)
    extra = build_calls(1024) - build_calls(256)
    assert extra == 768 * BUILD_CALLS_PER_FLOW[protocol]


# -- (vii) round accounting reads columns ------------------------------------------------
#: `IncastWorkload.rounds` as the parent commit reported them (seed 1, 2 rounds),
#: when round counts were summed endpoint by endpoint and requests were handles.
PARENT_ROUNDS = {
    1: [
        RoundResult(0, 0, 8876832, 1048576, 0, True, 0),
        RoundResult(1, 8876832, 8716736, 1048576, 0, True, 0),
    ],
    120: [  # RTO rounds: the timeout logs are what moves
        RoundResult(0, 0, 204789632, 1048560, 59, True, 0),
        RoundResult(1, 204789632, 205020704, 1048560, 58, True, 0),
    ],
}


@pytest.mark.parametrize("native", DISPATCH)
@pytest.mark.parametrize("n_flows", sorted(PARENT_ROUNDS))
def test_round_results_match_the_parent(n_flows, native, monkeypatch):
    monkeypatch.setenv(_native.NATIVE_ENV, native)
    workload = incast(Simulator(seed=1), "dctcp", n_flows, n_rounds=2)
    workload.run_to_completion()
    assert workload.rounds == PARENT_ROUNDS[n_flows]


#: Calls each extra flow adds to one `_begin_round`: `expect`, `alloc_control`
#: (its freelist is the pool's `link` column: no list call; it numbers the
#: packet itself) and the request's `push_light`, which is one C call in native
#: mode and a Python frame plus `heappush` in pure (keyed by `sim.native`: a
#: checker forces the pure loop whatever the switch says).
BEGIN_ROUND_CALLS_PER_FLOW = {True: 3, False: 4}


def extra_begin_round_calls(protocol, **incast_overrides):
    """Calls 768 more flows add to one `_begin_round` (N=1024 against N=256),
    and the dispatch mode the simulators ran in."""
    modes = set()

    def begin_round_calls(n_flows):
        sim = Simulator(seed=1)
        modes.add(sim.native)
        sim.pool = PacketPool(capacity=4 * n_flows)  # no pool growth inside the round
        workload = incast(sim, protocol, n_flows, n_rounds=2, **incast_overrides)
        counts = []
        begin_round = workload._begin_round

        def profiled():
            profile = cProfile.Profile()
            profile.enable()
            begin_round()
            profile.disable()
            counts.append(total_calls(profile))

        workload._begin = workload._begin_round = profiled
        workload.run_to_completion()
        assert len(counts) == 2 and counts[0] == counts[1]
        return counts[1]

    extra = begin_round_calls(1024) - begin_round_calls(256)
    (mode,) = modes
    return extra, mode


@pytest.mark.parametrize("native", DISPATCH)
def test_a_round_boundary_is_constant_calls_plus_the_request_cost(native, monkeypatch):
    monkeypatch.setenv(_native.NATIVE_ENV, native)
    extra, mode = extra_begin_round_calls("dctcp+")
    assert extra == 768 * BEGIN_ROUND_CALLS_PER_FLOW[mode]


#: With a flow deadline, each deadline-aware sender adds one call: its
#: `set_deadline`, bound once at construction (no per-round attribute walk);
#: a workload of senders without one adds nothing.
DEADLINE_CALLS_PER_FLOW = {"d2tcp": 1, "dctcp+": 0}


@pytest.mark.parametrize("native", DISPATCH)
@pytest.mark.parametrize("protocol", list(DEADLINE_CALLS_PER_FLOW))
def test_a_deadline_round_boundary_adds_only_the_setters(protocol, native, monkeypatch):
    monkeypatch.setenv(_native.NATIVE_ENV, native)
    extra, mode = extra_begin_round_calls(protocol, flow_deadline_ns=50 * MS)
    per_flow = BEGIN_ROUND_CALLS_PER_FLOW[mode] + DEADLINE_CALLS_PER_FLOW[protocol]
    assert extra == 768 * per_flow
