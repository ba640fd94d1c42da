"""Tests for the repro.validate invariant checker."""

import pytest

from repro.core.dctcp_plus import DctcpPlusSender
from repro.exec.scenario import ScenarioSpec, run_scenario
from repro.net.host import Host
from repro.net.link import Link
from repro.net.shared_buffer import SharedBufferSwitch
from repro.net.topology import build_star
from repro.sim.engine import Simulator
from repro.sim.units import MS, US
from repro.tcp.config import TcpConfig
from repro.tcp.receiver import TcpReceiver
from repro.tcp.sender import TcpSender
from repro.validate import InvariantChecker, InvariantViolation
from repro.workloads.ids import next_flow_id

from .helpers import data

MSS = 1460


def small_spec(**kwargs):
    defaults = dict(
        protocol="dctcp+",
        n_flows=6,
        rounds=2,
        seed=5,
        incast_overrides={"total_bytes": 128 * 1024},
    )
    defaults.update(kwargs)
    return ScenarioSpec.create(**defaults)


class TestOptIn:
    def test_disabled_by_default(self):
        assert Simulator().checker is None

    def test_explicit_enable(self):
        sim = Simulator(validate=True)
        assert isinstance(sim.checker, InvariantChecker)

    def test_explicit_disable_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_VALIDATE", "1")
        assert Simulator(validate=False).checker is None

    def test_env_enable(self, monkeypatch):
        monkeypatch.setenv("REPRO_VALIDATE", "1")
        assert Simulator().checker is not None
        monkeypatch.setenv("REPRO_VALIDATE", "0")
        assert Simulator().checker is None

    def test_components_register(self):
        sim = Simulator(seed=1, validate=True)
        tree = build_star(sim, n_senders=2)
        flow = next_flow_id()
        TcpReceiver(sim, tree.aggregator, tree.servers[0].node_id, flow, expected_bytes=MSS)
        TcpSender(sim, tree.servers[0], tree.aggregator.node_id, flow)
        checker = sim.checker
        # 3 switch ports + 3 host NICs
        assert len(checker._ports) == 6
        assert len(checker._queues) == 6
        assert len(checker._senders) == 1
        assert flow in checker._receivers


class TestResultEquality:
    def test_validated_run_identical_to_unvalidated(self):
        spec = small_spec()
        validated = run_scenario(spec, validate=True)
        plain = run_scenario(spec, validate=False)
        a, b = validated.to_dict(), plain.to_dict()
        a.pop("wall_time_s")
        b.pop("wall_time_s")
        assert a == b

    def test_verify_all_reports_components(self):
        sim = Simulator(seed=1, validate=True)
        build_star(sim, n_senders=2)
        summary = sim.checker.verify_all()
        assert summary["ports"] == 6
        assert summary["sweeps"] >= 1


class TestDetection:
    """Seeded corruption of component state must raise at the next sweep."""

    def run_corrupted(self, corrupt, **spec_kwargs):
        spec = small_spec(**spec_kwargs)
        sim = Simulator(seed=spec.seed, validate=True)
        from repro.net.topology import build_two_tier
        from repro.workloads.incast import IncastWorkload

        tree = build_two_tier(sim, spec.topology_params())
        workload = IncastWorkload(sim, tree, spec.protocol_spec(), spec.incast_config())
        sim.schedule(50 * US, corrupt, tree)
        workload.run_to_completion(max_events=spec.max_events)
        sim.checker.verify_all()

    def test_catches_packet_conservation_break(self):
        def corrupt(tree):
            tree.bottleneck_port.queue.enqueued_packets += 1

        with pytest.raises(InvariantViolation, match="packet conservation"):
            self.run_corrupted(corrupt)

    def test_catches_byte_leak(self):
        def corrupt(tree):
            tree.bottleneck_port.queue.occupancy_bytes -= 7

        with pytest.raises(InvariantViolation, match="byte conservation"):
            self.run_corrupted(corrupt)

    def test_catches_drop_miscount(self):
        def corrupt(tree):
            tree.bottleneck_port.queue.dropped_packets += 1

        with pytest.raises(InvariantViolation, match="drop counter mismatch"):
            self.run_corrupted(corrupt)

    def test_catches_pool_drift(self):
        def corrupt(tree):
            tree.root._pool_occupancy += 1460

        with pytest.raises(InvariantViolation, match="pool occupancy"):
            self.run_corrupted(corrupt, topo={"shared_pool_bytes": 256 * 1024})

    def test_catches_flow_sequence_corruption(self):
        spec = small_spec()
        sim = Simulator(seed=spec.seed, validate=True)
        from repro.net.topology import build_two_tier
        from repro.workloads.incast import IncastWorkload

        tree = build_two_tier(sim, spec.topology_params())
        workload = IncastWorkload(sim, tree, spec.protocol_spec(), spec.incast_config())

        def corrupt():
            workload.senders[0].snd_una = workload.senders[0].snd_nxt + MSS

        sim.schedule(200 * US, corrupt)
        with pytest.raises(InvariantViolation):
            workload.run_to_completion(max_events=spec.max_events)

    def test_catches_dispatch_time_regression(self):
        sim = Simulator(validate=True)
        sim.checker.check_dispatch_time(100)
        with pytest.raises(InvariantViolation, match="backwards"):
            sim.checker.check_dispatch_time(99)


class TestMachineObserver:
    def test_time_inc_entry_above_floor_rejected(self):
        sim = Simulator(seed=1, validate=True)
        tree = build_star(sim, n_senders=1)
        sender = DctcpPlusSender(
            sim,
            tree.servers[0],
            tree.aggregator.node_id,
            next_flow_id(),
            config=TcpConfig(seed_rtt_ns=100 * US, rto_min_ns=2 * MS, min_cwnd_mss=1.0),
        )
        assert not sender._cwnd_at_floor  # init cwnd is above the floor
        with pytest.raises(InvariantViolation, match="DCTCP_Time_Inc"):
            sender.machine.on_congestion_event()

    def test_normal_operation_never_trips_observer(self):
        # A full DCTCP+ scenario (with congestion) under validation: the
        # sender's own guard means the observer never fires spuriously.
        run_scenario(small_spec(n_flows=12), validate=True)


class TestSharedPoolUnderValidation:
    def test_pool_returns_to_zero_after_drain(self):
        sim = Simulator(seed=1, validate=True)
        switch = SharedBufferSwitch(sim, shared_pool_bytes=64 * 1024)
        a, b = Host(sim, "a"), Host(sim, "b")
        a.attach_link(Link(switch))
        b.attach_link(Link(switch))
        pa = switch.add_port(Link(a))
        switch.add_route(a.node_id, pa)
        for i in range(20):
            pa.send(data(sim, 1, b.node_id, a.node_id, i * MSS, MSS))
        assert switch.pool_occupancy_bytes > 0
        sim.run_until_idle()
        assert switch.pool_occupancy_bytes == 0
