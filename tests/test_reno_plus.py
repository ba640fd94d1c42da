"""Tests for TCP+ (New Reno + slow_time enhancement, Section VII)."""

from repro.core.reno_plus import RenoPlusSender
from repro.core.states import DctcpPlusState
from repro.net.topology import build_star
from repro.sim.engine import Simulator
from repro.sim.units import MS, US
from repro.tcp.config import TcpConfig
from repro.workloads.ids import next_flow_id
from repro.workloads.incast import IncastConfig, IncastWorkload
from repro.workloads.protocols import spec_for

from .helpers import ack

MSS = 1460


def harness(total=40 * MSS):
    sim = Simulator()
    tree = build_star(sim, n_senders=1)
    cfg = TcpConfig(seed_rtt_ns=100 * US, rto_min_ns=5 * MS, min_cwnd_mss=1.0)
    s = RenoPlusSender(sim, tree.servers[0], tree.aggregator.node_id, next_flow_id(), config=cfg)
    s.send(total)
    sim.run(until=1)
    return sim, s


class TestConstruction:
    def test_no_ecn(self):
        sim, s = harness()
        assert not s.config.ecn_enabled

    def test_floor_from_plus_config(self):
        sim, s = harness()
        assert s.config.min_cwnd_bytes == 1 * MSS

    def test_starts_normal(self):
        sim, s = harness()
        assert s.state is DctcpPlusState.NORMAL
        assert s.slow_time_ns == 0


class TestLossChannelDrive:
    def test_clean_acks_keep_normal(self):
        sim, s = harness()
        s.on_packet(ack(s.sim, s.flow_id, s.dst_node_id, s.host.node_id, MSS))
        assert s.state is DctcpPlusState.NORMAL

    def test_timeout_engages_machine(self):
        sim, s = harness()
        sim.run(until=sim.now + 20 * MS)  # silent black hole -> RTO
        assert s.stats.timeout_count >= 1
        assert s.state is DctcpPlusState.TIME_INC
        assert s.slow_time_ns > 0

    def test_recovery_acks_keep_growing_slow_time(self):
        sim, s = harness()
        sim.run(until=sim.now + 6 * MS)  # one RTO
        level = s.slow_time_ns
        s.on_packet(ack(s.sim, s.flow_id, s.dst_node_id, s.host.node_id, s.snd_una + MSS))
        assert s.slow_time_ns > level

    def test_post_recovery_clean_acks_relax(self):
        sim, s = harness()
        high_water = s.snd_nxt
        sim.run(until=sim.now + 6 * MS)
        s.on_packet(ack(s.sim, s.flow_id, s.dst_node_id, s.host.node_id, high_water))
        assert not s.in_rto_recovery
        # let the sender push new data past the old high-water mark (the
        # pacer defers it by slow_time, so give it a few milliseconds),
        # then a clean ack for it decays the machine
        sim.run(until=sim.now + 3 * MS)
        assert s.snd_nxt > high_water
        s.on_packet(
            ack(s.sim, s.flow_id, s.dst_node_id, s.host.node_id, min(s.snd_nxt, high_water + MSS))
        )
        assert s.state in (DctcpPlusState.TIME_DES, DctcpPlusState.NORMAL)


class TestWorkload:
    def test_tcp_plus_at_least_matches_tcp_at_moderate_fanin(self):
        results = {}
        for protocol in ("tcp", "tcp+"):
            sim = Simulator(seed=42)
            tree = __import__("repro.net.topology", fromlist=["build_two_tier"]).build_two_tier(sim)
            wl = IncastWorkload(sim, tree, spec_for(protocol), IncastConfig(n_flows=30, n_rounds=8))
            wl.run_to_completion(max_events=100_000_000)
            results[protocol] = wl.mean_goodput_bps
        assert results["tcp+"] >= results["tcp"] * 0.8
