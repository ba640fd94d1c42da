"""What a flow costs to build and to drop.

A massive-incast point builds thousands of flows, so the per-flow rules are
pinned here: every sender of a workload reads the *same* frozen config
objects, the slow_time stream is named when the sender is built but opened
by its first draw, a whole point is one GC epoch, and a closed flow is freed
by reference counting (what a finished point leaves for the cyclic collector
does not grow with N).
"""

import gc
from dataclasses import FrozenInstanceError

import pytest

from repro.exec.scenario import ScenarioSpec, run_scenario
from repro.net.topology import build_two_tier
from repro.sim import _native
from repro.sim.engine import Simulator
from repro.tcp.cc import cc_names
from repro.tcp.events import CC_ACK_ECHO, CCEvent
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


def incast(sim, protocol, n_flows, n_rounds=1):
    return IncastWorkload(
        sim, build_two_tier(sim), spec_for(protocol), IncastConfig(n_flows, n_rounds=n_rounds)
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
