"""Deterministic ECMP: seeded hashing, flow pinning, cross-executor and
cross-process reproducibility.

The load-bearing property: path assignment is a pure function of the
scenario seed.  The same seed must pick identical paths — and therefore
produce byte-identical results — in-process, across process restarts,
across the serial and parallel executors, and under the native event
core vs the pure-Python engine.
"""

import os
import subprocess
import sys

import pytest

from repro.exec.executors import ParallelExecutor
from repro.exec.scenario import ScenarioSpec, run_scenario
from repro.net.host import Host
from repro.net.link import Link
from repro.net.pool import PacketPool
from repro.net.shared_buffer import SharedBufferSwitch
from repro.net.switch import Switch, ecmp_hash
from repro.net import topology
from repro.net.topology import TopologyParams, build_fat_tree
from repro.sim.engine import Simulator
from repro.validate.fuzz import result_digest

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


class TestEcmpHash:
    def test_pure_function(self):
        assert ecmp_hash(12345, 999) == ecmp_hash(12345, 999)

    def test_stays_in_64_bits(self):
        for key in (0, 1, 2**63, 2**64 - 1):
            assert 0 <= ecmp_hash(key, 7) < 2**64

    def test_salt_changes_selection(self):
        # Different switches (different salts) must not all agree on the
        # same next hop for the same flow ordinals.
        picks_a = [ecmp_hash(o, 1) % 2 for o in range(64)]
        picks_b = [ecmp_hash(o, 2) % 2 for o in range(64)]
        assert picks_a != picks_b

    def test_spreads_across_candidates(self):
        # splitmix64 over consecutive ordinals should land on every one of
        # n candidates well before 64 draws.
        for n in (2, 3, 4):
            assert {ecmp_hash(o, 42) % n for o in range(64)} == set(range(n))


def _two_path_switch(sim):
    """One switch, two parallel equal links to the same destination host."""
    switch = Switch(sim, "sw")
    dst = Host(sim, "dst")
    port_a = switch.add_port(Link(dst, 10**9, 1000), name="a")
    port_b = switch.add_port(Link(dst, 10**9, 1000), name="b")
    return switch, dst, port_a, port_b


def _inject(sim, switch, dst, flow_id, n_packets=1):
    pool = PacketPool.of(sim)
    for _ in range(n_packets):
        h = pool.alloc_control(flow_id, 0, dst.node_id, 100)
        switch.receive(h)


class TestSwitchEcmpGroups:
    def test_flow_mode_pins_each_flow_to_one_port(self):
        sim = Simulator(seed=1)
        switch, dst, port_a, port_b = _two_path_switch(sim)
        switch.add_ecmp_group(dst.node_id, [port_a, port_b], salt=7)
        _inject(sim, switch, dst, flow_id=5, n_packets=10)
        counts = (port_a.queue.enqueued_packets, port_b.queue.enqueued_packets)
        assert sorted(counts) == [0, 10]  # all ten on exactly one port

    def test_flow_mode_spreads_distinct_flows(self):
        sim = Simulator(seed=1)
        switch, dst, port_a, port_b = _two_path_switch(sim)
        switch.add_ecmp_group(dst.node_id, [port_a, port_b], salt=7)
        for flow in range(32):
            _inject(sim, switch, dst, flow_id=flow)
        assert port_a.queue.enqueued_packets > 0
        assert port_b.queue.enqueued_packets > 0

    def test_packet_mode_sprays_one_flow(self):
        sim = Simulator(seed=1)
        switch, dst, port_a, port_b = _two_path_switch(sim)
        switch.add_ecmp_group(dst.node_id, [port_a, port_b], salt=7, per_packet=True)
        _inject(sim, switch, dst, flow_id=5, n_packets=32)
        assert port_a.queue.enqueued_packets > 0
        assert port_b.queue.enqueued_packets > 0

    def test_selection_keyed_on_traversal_order_not_flow_id(self):
        # Flow ids come from a process-wide counter; the hash must key on
        # the order flows first traverse the switch, so shifted ids give
        # the same port sequence.
        def port_sequence(id_base):
            sim = Simulator(seed=1)
            switch, dst, port_a, port_b = _two_path_switch(sim)
            switch.add_ecmp_group(dst.node_id, [port_a, port_b], salt=7)
            seq = []
            for i in range(16):
                before = port_a.queue.enqueued_packets
                _inject(sim, switch, dst, flow_id=id_base + i)
                seq.append(port_a.queue.enqueued_packets != before)
            return seq

        assert port_sequence(100) == port_sequence(987_654)

    def test_single_candidate_collapses_to_plain_route(self):
        sim = Simulator(seed=1)
        switch, dst, port_a, _ = _two_path_switch(sim)
        switch.add_ecmp_group(dst.node_id, [port_a], salt=7)
        assert switch.ecmp_candidates(dst.node_id) is None
        assert switch.route_for(dst.node_id) is port_a

    def test_add_route_clears_group(self):
        sim = Simulator(seed=1)
        switch, dst, port_a, port_b = _two_path_switch(sim)
        switch.add_ecmp_group(dst.node_id, [port_a, port_b], salt=7)
        assert switch.ecmp_candidates(dst.node_id) is not None
        switch.add_route(dst.node_id, port_a)
        assert switch.ecmp_candidates(dst.node_id) is None

    def test_rejects_foreign_and_empty_port_sets(self):
        sim = Simulator(seed=1)
        switch, dst, port_a, _ = _two_path_switch(sim)
        other, other_dst, other_port, _ = _two_path_switch(sim)
        with pytest.raises(ValueError, match="belong"):
            switch.add_ecmp_group(dst.node_id, [port_a, other_port], salt=7)
        with pytest.raises(ValueError, match="at least one"):
            switch.add_ecmp_group(dst.node_id, [], salt=7)

    def test_shared_buffer_switch_groups(self):
        sim = Simulator(seed=1)
        switch = SharedBufferSwitch(sim, "sb", shared_pool_bytes=256 * 1024)
        dst = Host(sim, "dst")
        port_a = switch.add_port(Link(dst, 10**9, 1000), name="a")
        port_b = switch.add_port(Link(dst, 10**9, 1000), name="b")
        switch.add_ecmp_group(dst.node_id, [port_a, port_b], salt=3)
        assert switch.ecmp_candidates(dst.node_id) == (port_a, port_b)
        assert switch.route_for(dst.node_id) is None  # multipath: no single port
        _inject(sim, switch, dst, flow_id=1, n_packets=4)
        total = port_a.queue.enqueued_packets + port_b.queue.enqueued_packets
        assert total == 4


def _queue_census(net):
    """Per-switch enqueue counters, keyed by stable switch/port names."""
    switches = [*net.cores]
    for pod_aggs, pod_edges in zip(net.aggs, net.edges):
        switches.extend(pod_aggs)
        switches.extend(pod_edges)
    return {
        sw.name: [p.queue.enqueued_packets for p in sw.ports] for sw in switches
    }


class TestSameSeedSamePaths:
    def _drive(self, seed):
        sim = Simulator(seed=seed)
        net = build_fat_tree(sim, TopologyParams(fat_tree_k=4, hosts_per_edge=1))
        pool = PacketPool.of(sim)
        for flow, src in enumerate(net.hosts):
            for dst in net.hosts:
                if dst is src:
                    continue
                h = pool.alloc_control(flow, src.node_id, dst.node_id, 200)
                src.send(h)
        sim.run_until_idle()
        return _queue_census(net)

    def test_identical_builds_identical_paths(self):
        assert self._drive(seed=7) == self._drive(seed=7)

    def test_different_seed_different_paths(self):
        assert self._drive(seed=7) != self._drive(seed=8)


FAT_TREE_SPEC_KWARGS = dict(
    protocol="dctcp+",
    n_flows=4,
    rounds=2,
    seed=3,
    topology="fat-tree",
    workload="swarm",
    topo=dict(fat_tree_k=4, hosts_per_edge=2),
    workload_overrides=dict(piece_bytes=32 * 1024),
)

_DIGEST_SCRIPT = """
import sys
from repro.exec.scenario import ScenarioSpec, run_scenario
from repro.validate.fuzz import result_digest

spec = ScenarioSpec.create(
    "dctcp+", 4, rounds=2, seed=3, topology="fat-tree", workload="swarm",
    topo=dict(fat_tree_k=4, hosts_per_edge=2),
    workload_overrides=dict(piece_bytes=32 * 1024),
)
sys.stdout.write(result_digest(run_scenario(spec)))
"""


def _digest_in_subprocess(native: bool) -> str:
    env = dict(os.environ, PYTHONPATH=SRC)
    if native:
        env.pop("REPRO_NATIVE", None)
    else:
        env["REPRO_NATIVE"] = "0"
    out = subprocess.run(
        [sys.executable, "-c", _DIGEST_SCRIPT],
        capture_output=True,
        text=True,
        env=env,
        check=True,
    )
    return out.stdout.strip()


class TestCrossExecutorDeterminism:
    def test_rerun_identical(self):
        spec = ScenarioSpec.create(**FAT_TREE_SPEC_KWARGS)
        assert result_digest(run_scenario(spec)) == result_digest(run_scenario(spec))

    def test_serial_vs_parallel_identical(self):
        specs = [
            ScenarioSpec.create(**dict(FAT_TREE_SPEC_KWARGS, seed=s)) for s in (3, 4)
        ]
        serial = [result_digest(run_scenario(s)) for s in specs]
        parallel = [result_digest(r) for r in ParallelExecutor(workers=2).map(specs)]
        assert serial == parallel

    def test_stable_across_process_restarts(self):
        spec = ScenarioSpec.create(**FAT_TREE_SPEC_KWARGS)
        here = result_digest(run_scenario(spec))
        native = os.environ.get("REPRO_NATIVE") != "0"
        first = _digest_in_subprocess(native=native)
        second = _digest_in_subprocess(native=native)
        assert first == second == here

    def test_native_vs_pure_identical(self):
        assert _digest_in_subprocess(native=True) == _digest_in_subprocess(native=False)


class TestDepartureRouting:
    """Ports into a Switch push the ECMP closure at departure; it still
    assigns flow ordinals when the frame arrives, so the switches see flows
    in the order a ``Switch.receive`` at arrival would."""

    @staticmethod
    def _run(monkeypatch, at_arrival):
        receives = []
        receive = Switch.receive

        def counting_receive(self, h):
            receives.append(h)
            receive(self, h)

        monkeypatch.setattr(Switch, "receive", counting_receive)
        nets = []
        build = topology.TOPOLOGIES["fat-tree"]

        def recording_build(sim, params=None):
            net = build(sim, params)
            if at_arrival:
                # The reference: every frame into a switch goes through
                # Switch.receive when it lands.
                switches = topology._discover_switches(net.hosts)
                for port in [h.nic for h in net.hosts] + [p for s in switches for p in s.ports]:
                    port._dst_sends = None
            nets.append(net)
            return net

        monkeypatch.setitem(topology.TOPOLOGIES, "fat-tree", recording_build)
        kwargs = dict(FAT_TREE_SPEC_KWARGS, topo=dict(fat_tree_k=4, hosts_per_edge=2, ecmp_mode="packet"))
        result = run_scenario(ScenarioSpec.create(**kwargs))
        (net,) = nets
        tables = [s._flow_ord for s in topology._discover_switches(net.hosts)]
        # Flow ids come from a process-wide counter: compare them relative to
        # the run's first flow.
        base = min(fid for table in tables for fid in table)
        ordinals = [[(fid - base, o) for fid, o in table.items()] for table in tables]
        monkeypatch.undo()
        return result_digest(result), ordinals, len(receives)

    def test_ordinals_match_a_switch_receive_reference(self, monkeypatch):
        digest, ordinals, receives = self._run(monkeypatch, at_arrival=False)
        ref_digest, ref_ordinals, ref_receives = self._run(monkeypatch, at_arrival=True)
        assert receives == 0 and ref_receives > 0
        assert sum(len(o) for o in ordinals) > 0
        assert ordinals == ref_ordinals
        assert digest == ref_digest
