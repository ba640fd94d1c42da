"""Every rule on the path from a protocol name to a running sender exists once.

The registry flags (``slow_time`` / ``deadline_aware`` / ``ecn``) are what
the spec layer and the fuzzer read; the sender classes are what runs.
These tests pin the two to each other, and pin the sharing itself: one
slow_time feeding rule, one deadline surface, one cwnd floor test and
one floor resolution site, one RTT-seeding helper that never mutates the
caller's spec.
"""

import pytest

from repro.control.external import DeadlineExternalPolicySender, ExternalPolicySender
from repro.core.dctcp_plus import DctcpPlusSender
from repro.core.reno_plus import RenoPlusSender
from repro.core.slow_time import SlowTimeMixin
from repro.exec.scenario import ScenarioSpec, run_scenario
from repro.net.topology import TopologyParams, build_star, build_two_tier
from repro.sim.engine import Simulator
from repro.tcp.cc import cc_names, get_cc
from repro.tcp.config import TcpConfig
from repro.tcp.d2tcp import D2tcpPlusSender, D2tcpSender, DeadlineMixin
from repro.tcp.sender import TcpSender
from repro.workloads.background import BackgroundTraffic
from repro.workloads.benchmark import BenchmarkConfig, BenchmarkWorkload
from repro.workloads.http import HttpConfig, HttpWorkload
from repro.workloads.ids import next_flow_id
from repro.workloads.incast import IncastConfig, IncastWorkload
from repro.workloads.protocols import spec_for

EXTERNAL = ("external:dctcp-plus-scripted", "external:deadline-greedy")


def build_sender(name, **tcp_overrides):
    sim = Simulator()
    tree = build_star(sim, n_senders=1)
    spec = spec_for(name, tcp_overrides=tcp_overrides)
    return spec.make_sender(sim, tree.servers[0], tree.aggregator.node_id, next_flow_id())


# -- registry flags cannot drift from classes ---------------------------------------
@pytest.mark.parametrize("name", cc_names() + EXTERNAL)
def test_registry_flags_describe_the_built_sender(name):
    cc = get_cc(name)
    sender = build_sender(name, rto_min_ns=7_000_000)
    assert sender.config.rto_min_ns == 7_000_000
    assert sender.config.min_cwnd_mss == (1.0 if cc.slow_time else TcpConfig().min_cwnd_mss)
    assert sender.config.ecn_enabled == cc.ecn
    assert hasattr(sender, "machine") == cc.slow_time
    assert hasattr(sender, "set_deadline") == cc.deadline_aware


# -- the tentpole's sharing, pinned structurally -------------------------------------
def test_one_slow_time_feeding_rule():
    assert (
        RenoPlusSender.on_ecn_echo
        is DctcpPlusSender.on_ecn_echo
        is D2tcpPlusSender.on_ecn_echo
        is SlowTimeMixin.on_ecn_echo
    )
    assert RenoPlusSender.on_rto is DctcpPlusSender.on_rto is D2tcpPlusSender.on_rto
    assert RenoPlusSender.__init__ is DctcpPlusSender.__init__ is SlowTimeMixin.__init__
    # A protocol carrying the mixin is a class statement: a stream label
    # and an ECN stance, no method bodies.
    for cls in (RenoPlusSender, DctcpPlusSender):
        assert not [k for k, v in vars(cls).items() if callable(v) or isinstance(v, property)]
    assert (DctcpPlusSender.stream_label, DctcpPlusSender.ecn) == ("dctcp+", True)
    assert (RenoPlusSender.stream_label, RenoPlusSender.ecn) == ("tcp+", False)


def test_one_deadline_surface_and_one_floor_test():
    for cls in (D2tcpSender, D2tcpPlusSender, DeadlineExternalPolicySender):
        assert cls.set_deadline is DeadlineMixin.set_deadline
        assert cls.deadline_missed is DeadlineMixin.deadline_missed
    assert not hasattr(ExternalPolicySender, "set_deadline")
    for cls in (DctcpPlusSender, RenoPlusSender, D2tcpPlusSender, ExternalPolicySender):
        assert cls._cwnd_at_floor is TcpSender._cwnd_at_floor


def test_machine_stream_names_are_unchanged():
    drawn = []

    class Recording(Simulator):
        def stream(self, name):
            drawn.append(name)
            return super().stream(name)

    for cls in (DctcpPlusSender, RenoPlusSender, D2tcpPlusSender):
        sim = Recording()
        tree = build_star(sim, n_senders=1)
        sender = cls(sim, tree.servers[0], tree.aggregator.node_id, next_flow_id())
        # The name is fixed at construction; the stream opens on the first
        # draw (taken at the floor, where the checker allows the transition).
        sender.cwnd = sender.config.min_cwnd_bytes
        sender.machine.on_congestion_event()
    assert [name.split("/")[0] for name in drawn] == ["dctcp+", "tcp+", "dctcp+"]
    assert all(name.split("/")[1].isdigit() for name in drawn)


# -- one RTT-seeding site ------------------------------------------------------------
def _incast(sim, tree, spec):
    return IncastWorkload(sim, tree, spec, IncastConfig(n_flows=2, n_rounds=1)).senders


def _http(sim, tree, spec):
    return HttpWorkload(sim, tree, spec, HttpConfig(n_clients=2, n_requests=1)).senders


def _background(sim, tree, spec):
    traffic = BackgroundTraffic(sim, tree, spec)
    traffic.start()
    return traffic.senders


def _benchmark(sim, tree, spec):
    config = BenchmarkConfig(n_queries=1, n_background=0, n_short_messages=0, query_fanout=2)
    workload = BenchmarkWorkload(sim, tree, spec, config)
    workload.start()
    return workload.query_engine.senders


@pytest.mark.parametrize("senders_of", [_incast, _http, _background, _benchmark])
def test_spec_reused_across_trees_seeds_each_with_its_own_rtt(senders_of):
    spec = spec_for("dctcp+")
    seeds = []
    for prop_delay_ns in (5_000, 43_000):
        sim = Simulator()
        tree = build_two_tier(sim, TopologyParams(prop_delay_ns=prop_delay_ns))
        senders = senders_of(sim, tree, spec)
        assert senders
        assert {s.config.seed_rtt_ns for s in senders} == {tree.baseline_rtt_ns()}
        seeds.append(tree.baseline_rtt_ns())
    assert seeds[0] != seeds[1]
    assert spec.tcp_config.seed_rtt_ns is None  # the caller's spec is left alone


def test_explicit_rtt_seed_is_kept():
    sim = Simulator()
    tree = build_two_tier(sim)
    spec = spec_for("dctcp", tcp_overrides={"seed_rtt_ns": 77_000})
    assert spec.seeded_for(tree) is spec
    assert _incast(sim, tree, spec)[0].config.seed_rtt_ns == 77_000


@pytest.mark.parametrize("name", cc_names() + EXTERNAL)
def test_the_spec_carries_the_strategy_ecn_stance(name):
    # Resolved once in spec_for, so every sender takes the shared config as
    # it is, with no per-flow with_overrides.
    spec = spec_for(name)
    assert spec.tcp_config.ecn_enabled == get_cc(name).ecn
    sim = Simulator()
    tree = build_star(sim, n_senders=1)
    sender = spec.make_sender(sim, tree.servers[0], tree.aggregator.node_id, next_flow_id())
    assert sender.config is spec.tcp_config


def test_an_explicit_ecn_stance_is_kept_in_the_spec():
    assert spec_for("dctcp", {"ecn_enabled": False}).tcp_config.ecn_enabled is False
    assert spec_for("tcp", {"ecn_enabled": True}).tcp_config.ecn_enabled is True
    # The sender classes still have the last word, as before.
    assert build_sender("dctcp", ecn_enabled=False).config.ecn_enabled
    assert not build_sender("tcp", ecn_enabled=True).config.ecn_enabled


# -- one cwnd floor, resolved by spec_for ---------------------------------------------
class TestFloorKnob:
    def test_transport_floor_becomes_the_plus_floor(self):
        # An explicit transport floor is the one a slow_time sender runs.
        assert build_sender("dctcp+", min_cwnd_mss=2.0).config.min_cwnd_mss == 2.0
        assert build_sender("tcp+", min_cwnd_mss=1.5).config.min_cwnd_mss == 1.5
        # Unset, slow_time strategies get paper footnote 3's 1 MSS...
        assert spec_for("dctcp+").tcp_config.min_cwnd_mss == 1.0
        # ...and the rest keep the transport default (the config carries
        # the strategy's own ECN stance).
        assert spec_for("dctcp").tcp_config == TcpConfig(ecn_enabled=True)
        assert spec_for("tcp").tcp_config == TcpConfig()

    def test_scenario_floor_axis_changes_a_slow_time_run(self):
        base = dict(n_flows=40, rounds=3, seed=1)
        default = run_scenario(ScenarioSpec.create("dctcp+", **base))
        assert run_scenario(ScenarioSpec.create("dctcp+", min_cwnd_mss=2.0, **base)) != default
        # The figure drivers pass 1.0, the slow_time default: nothing moves.
        assert run_scenario(ScenarioSpec.create("dctcp+", min_cwnd_mss=1.0, **base)) == default
