"""Tests for D2TCP and D2TCP+ (the Section VII extension)."""

import pytest

from repro.net.topology import build_star, build_two_tier
from repro.sim.engine import Simulator
from repro.sim.units import MS, US
from repro.tcp.config import TcpConfig
from repro.tcp.d2tcp import D2tcpPlusSender, D2tcpSender, D_MAX, D_MIN, deadline_factor
from repro.workloads.ids import next_flow_id
from repro.workloads.incast import IncastConfig, IncastWorkload
from repro.workloads.protocols import spec_for

from .helpers import ack

MSS = 1460


def harness(cls=D2tcpSender, deadline_ns=None, total=40 * MSS):
    sim = Simulator()
    tree = build_star(sim, n_senders=1)
    cfg = TcpConfig(seed_rtt_ns=100 * US, rto_min_ns=5 * MS)
    s = cls(
        sim, tree.servers[0], tree.aggregator.node_id, next_flow_id(),
        config=cfg, deadline_ns=deadline_ns,
    )
    s.send(total)
    sim.run(until=1)
    return sim, s


class TestDeadlineFactor:
    def test_no_data_left_is_polite(self):
        assert deadline_factor(0, 1.0, 100) == D_MIN

    def test_missed_deadline_is_aggressive(self):
        assert deadline_factor(1000, 1.0, 0) == D_MAX
        assert deadline_factor(1000, 1.0, -5) == D_MAX

    def test_zero_rate_is_aggressive(self):
        assert deadline_factor(1000, 0.0, 100) == D_MAX

    def test_on_track_is_one(self):
        # completion time == time left -> d = 1
        assert deadline_factor(1000, 10.0, 100) == pytest.approx(1.0)

    def test_clamped(self):
        assert deadline_factor(10_000, 1.0, 1) == D_MAX
        assert deadline_factor(1, 1000.0, 10**9) == D_MIN


class TestPenalty:
    def test_deadline_less_equals_dctcp(self):
        sim, s = harness(deadline_ns=None)
        s.alpha = 0.5
        assert s._reduction_penalty() == pytest.approx(0.5)

    def test_far_deadline_backs_off_more(self):
        sim, s = harness(deadline_ns=10**12)  # ~17 min: far
        s.alpha = 0.5
        # d < 1 -> alpha^d > alpha: larger penalty than DCTCP
        assert s._reduction_penalty() > 0.5

    def test_imminent_deadline_backs_off_less(self):
        sim, s = harness(deadline_ns=None)
        s.alpha = 0.5
        s.set_deadline(sim.now + 10 * US)  # hopeless: d clamps to D_MAX
        assert s._reduction_penalty() == pytest.approx(0.5 ** D_MAX)

    def test_deadline_missed_flag(self):
        sim, s = harness(deadline_ns=1)
        sim.run(until=1000)
        assert s.deadline_missed

    def test_set_deadline_clears(self):
        sim, s = harness(deadline_ns=5)
        s.set_deadline(None)
        assert not s.deadline_missed
        assert s._current_d() == 1.0


class TestPlusVariant:
    def test_plus_has_machine_and_deadline(self):
        sim, s = harness(cls=D2tcpPlusSender, deadline_ns=10**9)
        assert s.machine is not None
        assert s.pacer is not None
        assert s.deadline_ns == 10**9

    def test_plus_engages_at_floor(self):
        sim, s = harness(cls=D2tcpPlusSender)
        s.cwnd = s.config.min_cwnd_bytes
        s.ssthresh = s.config.min_cwnd_bytes
        s.on_packet(ack(s.sim, s.flow_id, s.dst_node_id, s.host.node_id, MSS, ece=True))
        assert s.slow_time_ns > 0


class TestFirstRttDeadline:
    """Regression: a congestion event before the first RTT sample must use
    the configured baseline RTT, not a ~1 ns placeholder that inflated the
    rate estimate ~1e5x and clamped d to D_MIN (hardest backoff exactly
    when the deadline clock just started)."""

    def unseeded(self, deadline_ns, total=40 * MSS):
        sim = Simulator()
        tree = build_star(sim, n_senders=1)
        cfg = TcpConfig(seed_rtt_ns=None, rto_min_ns=5 * MS)
        s = D2tcpSender(
            sim, tree.servers[0], tree.aggregator.node_id, next_flow_id(),
            config=cfg, deadline_ns=deadline_ns,
        )
        s.send(total)
        assert s.rtt.srtt_ns is None
        return sim, s

    def test_fallback_matches_hand_computed_d(self):
        sim, s = self.unseeded(deadline_ns=50 * MS)
        baseline = s.rtt.rto_initial_ns
        remaining = s.total_bytes - s.snd_una
        completion_ns = remaining * baseline / s.cwnd
        expected = max(D_MIN, min(D_MAX, completion_ns / (50 * MS - sim.now)))
        assert s._current_d() == pytest.approx(expected)

    def test_tight_deadline_not_treated_as_far(self):
        # A 2-MSS window against a 1 s baseline can't move 40 MSS in 50 ms:
        # the flow is behind and must back off *less* (d > 1), the exact
        # opposite of the placeholder's D_MIN.
        sim, s = self.unseeded(deadline_ns=50 * MS)
        assert s._current_d() > 1.0

    def test_missed_deadline_penalty_before_first_sample(self):
        sim, s = self.unseeded(deadline_ns=10 * MS)
        sim.run(until=20 * MS)
        s.alpha = 0.5
        assert s._current_d() == D_MAX
        assert s._reduction_penalty() == pytest.approx(0.5 ** D_MAX)


class TestWorkloadIntegration:
    def test_deadline_incast_counts_misses(self):
        sim = Simulator(seed=1)
        tree = build_two_tier(sim)
        config = IncastConfig(
            n_flows=4, n_rounds=2, flow_deadline_ns=1  # 1 ns: everyone misses
        )
        wl = IncastWorkload(sim, tree, spec_for("d2tcp+"), config)
        wl.run_to_completion(max_events=20_000_000)
        assert wl.total_missed_deadlines == 8
        assert wl.missed_deadline_fraction == 1.0

    def test_generous_deadline_no_misses(self):
        sim = Simulator(seed=1)
        tree = build_two_tier(sim)
        config = IncastConfig(n_flows=4, n_rounds=2, flow_deadline_ns=10_000 * MS)
        wl = IncastWorkload(sim, tree, spec_for("d2tcp"), config)
        wl.run_to_completion(max_events=20_000_000)
        assert wl.total_missed_deadlines == 0

    def test_deadlines_propagate_to_senders(self):
        sim = Simulator(seed=1)
        tree = build_two_tier(sim)
        config = IncastConfig(n_flows=3, n_rounds=1, flow_deadline_ns=50 * MS)
        wl = IncastWorkload(sim, tree, spec_for("d2tcp+"), config)
        wl.start()
        sim.run(max_events=100)  # round began; deadlines installed
        assert all(s.deadline_ns is not None for s in wl.senders)


class TestProtocolFactory:
    def test_d2tcp_spec_builds_sender_with_deadline(self):
        sim = Simulator()
        tree = build_star(sim, n_senders=1)
        spec = spec_for("d2tcp")
        s = spec.make_sender(
            sim, tree.servers[0], tree.aggregator.node_id, next_flow_id(),
            deadline_ns=123,
        )
        assert isinstance(s, D2tcpSender)
        assert s.deadline_ns == 123

    def test_non_deadline_protocols_ignore_deadline_arg(self):
        sim = Simulator()
        tree = build_star(sim, n_senders=1)
        s = spec_for("dctcp").make_sender(
            sim, tree.servers[0], tree.aggregator.node_id, next_flow_id(),
            deadline_ns=123,
        )
        assert not hasattr(s, "deadline_ns")
