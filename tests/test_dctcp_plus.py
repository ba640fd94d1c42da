"""Tests for the integrated DCTCP+ sender."""

import pytest

from repro.core.config import DctcpPlusConfig
from repro.core.dctcp_plus import DctcpPlusSender
from repro.core.states import DctcpPlusState
from repro.net.topology import build_star
from repro.sim.engine import Simulator
from repro.sim.units import MS, US
from repro.tcp.config import TcpConfig
from repro.workloads.ids import next_flow_id
from repro.workloads.protocols import spec_for

from . import helpers

MSS = 1460


def harness(total=40 * MSS, plus=None, **cfg_overrides):
    sim = Simulator()
    tree = build_star(sim, n_senders=1)
    # Built directly, not through spec_for: the 1 MSS floor is explicit.
    cfg_overrides.setdefault("min_cwnd_mss", 1.0)
    cfg = TcpConfig(seed_rtt_ns=100 * US, rto_min_ns=5 * MS, **cfg_overrides)
    plus_cfg = DctcpPlusConfig(**(plus or {}))
    s = DctcpPlusSender(
        sim, tree.servers[0], tree.aggregator.node_id, next_flow_id(),
        config=cfg, plus_config=plus_cfg,
    )
    s.send(total)
    sim.run(until=1)
    return sim, s


def ack(sender, ack_seq, ece=False):
    sender.on_packet(
        helpers.ack(
            sender.sim, sender.flow_id, sender.dst_node_id, sender.host.node_id, ack_seq, ece=ece
        )
    )


class TestConstruction:
    def test_floor_defaults_to_one_mss(self):
        assert spec_for("dctcp+").tcp_config.min_cwnd_mss == 1.0
        sim, s = harness()
        assert s.config.min_cwnd_bytes == 1 * MSS

    def test_floor_override_via_plus_config(self):
        # The plus config carries no floor: the transport's is what runs.
        sim, s = harness(plus={"randomize": False}, min_cwnd_mss=2.0)
        assert not hasattr(s.plus_config, "min_cwnd_mss")
        assert s.config.min_cwnd_bytes == 2 * MSS

    def test_pacer_installed(self):
        sim, s = harness()
        assert s.pacer is not None
        assert s.machine.state is DctcpPlusState.NORMAL

    def test_ecn_enabled(self):
        sim, s = harness()
        assert s.config.ecn_enabled


class TestStateMachineCoupling:
    def test_ece_above_floor_does_not_engage(self):
        sim, s = harness()
        s.alpha = 0.0  # DCTCP reduction is a no-op, cwnd stays above floor
        assert s.cwnd > s.config.min_cwnd_bytes
        ack(s, MSS, ece=True)
        assert s.cwnd > s.config.min_cwnd_bytes
        assert s.state is DctcpPlusState.NORMAL

    def test_marked_ack_at_cwnd2_hits_floor_and_engages(self):
        """The kernel-integer reduction makes cwnd=2 drop straight to the
        1 MSS floor on any marked window, which is what arms the machine."""
        sim, s = harness()
        ack(s, MSS, ece=True)  # alpha starts at 1.0
        assert s.cwnd == s.config.min_cwnd_bytes
        assert s.state is DctcpPlusState.TIME_INC

    def test_ece_at_floor_engages(self):
        sim, s = harness()
        s.cwnd = s.config.min_cwnd_bytes
        s.ssthresh = s.config.min_cwnd_bytes
        ack(s, MSS, ece=True)
        assert s.state is DctcpPlusState.TIME_INC
        assert s.slow_time_ns > 0

    def test_ece_while_engaged_keeps_growing_even_above_floor(self):
        sim, s = harness()
        s.cwnd = s.config.min_cwnd_bytes
        s.ssthresh = s.config.min_cwnd_bytes
        ack(s, MSS, ece=True)
        level = s.slow_time_ns
        s.cwnd = 3 * MSS  # grew past the floor
        ack(s, 2 * MSS, ece=True)
        assert s.state is DctcpPlusState.TIME_INC
        assert s.slow_time_ns > level

    def test_clean_ack_relaxes(self):
        sim, s = harness()
        s.cwnd = s.config.min_cwnd_bytes
        s.ssthresh = s.config.min_cwnd_bytes
        ack(s, MSS, ece=True)
        ack(s, 2 * MSS, ece=False)
        assert s.state is DctcpPlusState.TIME_DES

    def test_timeout_counts_as_congestion(self):
        sim, s = harness()
        sim.run(until=sim.now + 20 * MS)  # silent loss -> RTO
        assert s.stats.timeout_count >= 1
        assert s.state is DctcpPlusState.TIME_INC

    def test_rto_recovery_acks_keep_machine_engaged(self):
        sim, s = harness()
        high_water = s.snd_nxt
        sim.run(until=sim.now + 6 * MS)  # one RTO
        level = s.slow_time_ns
        # a *clean* ack during go-back-N recovery still counts as congestion
        ack(s, s.snd_una + MSS, ece=False)
        assert s.state is DctcpPlusState.TIME_INC
        assert s.slow_time_ns > level


class TestPacingBehaviour:
    def test_transmissions_spaced_by_slow_time(self):
        sim, s = harness()
        s.cwnd = s.config.min_cwnd_bytes
        s.ssthresh = s.config.min_cwnd_bytes
        ack(s, MSS, ece=True)   # engage
        ack(s, 2 * MSS, ece=True)  # drain the flight; next packet pacer-held
        slow = s.slow_time_ns
        assert slow > 0
        release = sim.now + slow
        sent_before = s.stats.data_packets_sent
        sim.run(until=release - 1)
        assert s.stats.data_packets_sent == sent_before  # still held
        sim.run(until=release + 1)
        assert s.stats.data_packets_sent == sent_before + 1

    def test_normal_state_sends_immediately(self):
        sim, s = harness()
        sent_before = s.stats.data_packets_sent
        ack(s, MSS, ece=False)
        assert s.stats.data_packets_sent > sent_before

    def test_no_spurious_rto_while_paced(self):
        """A pacer hold longer than RTO_min must not fire the retransmission
        timer (nothing is in flight)."""
        sim, s = harness()
        s.cwnd = s.config.min_cwnd_bytes
        s.ssthresh = s.config.min_cwnd_bytes
        # engage with a slow_time far beyond the 5 ms RTO_min
        s.machine.state = DctcpPlusState.TIME_INC
        s.machine.slow_time_ns = 20 * MS
        ack(s, s.snd_nxt)  # everything in flight acked; next send deferred 20 ms
        sim.run(until=sim.now + 15 * MS)
        assert s.stats.timeout_count == 0


class TestSlowTimeViews:
    def test_slow_time_property(self):
        sim, s = harness()
        assert s.slow_time_ns == s.machine.slow_time_ns

    def test_srtt_unit_source_installed_in_srtt_mode(self):
        sim, s = harness(plus={"backoff_unit_mode": "srtt"})
        assert s.machine.unit_source is not None
        assert s.machine.unit_source() == pytest.approx(100 * US, rel=0.01)

    def test_fixed_mode_has_no_unit_source(self):
        sim, s = harness(plus={"backoff_unit_mode": "fixed"})
        assert s.machine.unit_source is None
