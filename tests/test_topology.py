"""Tests for the two-tier testbed topology builder."""

import pytest

from repro.net.topology import TopologyParams, build_star, build_two_tier
from repro.sim.engine import Simulator

from .helpers import CaptureEndpoint as Endpoint, data


class TestStructure:
    def test_default_shape(self):
        tree = build_two_tier(Simulator())
        assert len(tree.servers) == 9
        assert len(tree.leaves) == 2
        assert tree.aggregator.name == "aggregator"
        assert tree.root.name == "switch1"

    def test_servers_round_robin_across_leaves(self):
        tree = build_two_tier(Simulator())
        assert tree.server_leaf == [0, 1, 0, 1, 0, 1, 0, 1, 0]

    def test_validation(self):
        with pytest.raises(ValueError):
            build_two_tier(Simulator(), TopologyParams(n_servers=0))
        with pytest.raises(ValueError):
            build_two_tier(Simulator(), TopologyParams(n_leaf_switches=0))


class TestPaperQuantities:
    def test_baseline_rtt_near_100us(self):
        tree = build_two_tier(Simulator())
        rtt = tree.baseline_rtt_ns()
        assert 90_000 <= rtt <= 130_000  # the paper's ~100 us RTT

    def test_pipeline_capacity_near_paper_value(self):
        # paper: C*D + B = 1 Gbps x 100 us + 128 KB ~= 140.5 KB
        tree = build_two_tier(Simulator())
        assert tree.pipeline_capacity_bytes == pytest.approx(140.5 * 1024, rel=0.05)

    def test_hops_between(self):
        tree = build_two_tier(Simulator())
        assert tree.hops_between(tree.servers[0], tree.aggregator) == 3
        assert tree.hops_between(tree.servers[0], tree.servers[2]) == 2  # same leaf
        assert tree.hops_between(tree.servers[0], tree.servers[1]) == 4  # cross leaf
        assert tree.hops_between(tree.servers[0], tree.servers[0]) == 0


class TestReachability:
    def _deliver(self, sim, tree, src, dst):
        ep = Endpoint(sim)
        flow = 999_000 + src.node_id * 1000 + dst.node_id
        dst.register_flow(flow, ep)
        src.send(data(sim, flow, src.node_id, dst.node_id, 0, 10))
        sim.run_until_idle()
        dst.unregister_flow(flow)
        return len(ep.packets)

    def test_every_server_reaches_aggregator(self):
        sim = Simulator()
        tree = build_two_tier(sim)
        for server in tree.servers:
            assert self._deliver(sim, tree, server, tree.aggregator) == 1

    def test_aggregator_reaches_every_server(self):
        sim = Simulator()
        tree = build_two_tier(sim)
        for server in tree.servers:
            assert self._deliver(sim, tree, tree.aggregator, server) == 1

    def test_server_to_server_cross_leaf(self):
        sim = Simulator()
        tree = build_two_tier(sim)
        assert self._deliver(sim, tree, tree.servers[0], tree.servers[1]) == 1

    def test_server_to_server_same_leaf(self):
        sim = Simulator()
        tree = build_two_tier(sim)
        assert self._deliver(sim, tree, tree.servers[0], tree.servers[2]) == 1


class TestBottleneck:
    def test_bottleneck_port_feeds_aggregator(self):
        tree = build_two_tier(Simulator())
        assert tree.bottleneck_port is tree.root.route_for(tree.aggregator.node_id)

    def test_ecn_threshold_applied(self):
        params = TopologyParams(ecn_threshold_bytes=5000)
        tree = build_two_tier(Simulator(), params)
        assert tree.bottleneck_port.queue.ecn_threshold_bytes == 5000

    def test_buffer_size_applied(self):
        params = TopologyParams(buffer_bytes=64 * 1024)
        tree = build_two_tier(Simulator(), params)
        assert tree.bottleneck_port.queue.capacity_bytes == 64 * 1024


class TestDumbbell:
    def test_shape_and_reachability(self):
        sim = Simulator()
        tree = build_star(sim, n_senders=3)
        assert len(tree.servers) == 3
        ep = Endpoint(sim)
        tree.aggregator.register_flow(5, ep)
        tree.servers[2].send(
            data(sim, 5, tree.servers[2].node_id, tree.aggregator.node_id, 0, 10)
        )
        sim.run_until_idle()
        assert len(ep.packets) == 1

    def test_baseline_rtt_shorter_than_tree(self):
        assert (
            build_star(Simulator()).baseline_rtt_ns()
            < build_two_tier(Simulator()).baseline_rtt_ns()
        )
