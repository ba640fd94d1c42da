"""Tests for the per-flow time-series tracer."""

import pytest

from repro.core.dctcp_plus import DctcpPlusSender
from repro.net.topology import build_star
from repro.sim.engine import Simulator
from repro.sim.units import MS, US
from repro.tcp.config import TcpConfig
from repro.tcp.receiver import TcpReceiver
from repro.tcp.sender import TcpSender
from repro.telemetry.collector import SAMPLED_FIELDS, FlowTracer
from repro.telemetry.tracer import Tracer
from repro.workloads.ids import next_flow_id

MSS = 1460


def traced_flow(sender_cls=TcpSender, total=40 * MSS, deliver=True, tracer=None, **cfg):
    sim = Simulator(seed=2, tracer=tracer)
    tree = build_star(sim, n_senders=1)
    flow = next_flow_id()
    if deliver:
        TcpReceiver(sim, tree.aggregator, tree.servers[0].node_id, flow, expected_bytes=total)
    config = TcpConfig(seed_rtt_ns=tree.baseline_rtt_ns(), rto_min_ns=5 * MS, **cfg)
    sender = sender_cls(sim, tree.servers[0], tree.aggregator.node_id, flow, config=config)
    tracer = FlowTracer(sim, sender, interval_ns=100 * US)
    tracer.start()
    sender.send(total)
    return sim, sender, tracer


class TestSampling:
    def test_samples_all_fields_on_cadence(self):
        sim, sender, tracer = traced_flow()
        sim.run(until=2_000_000)
        assert len(tracer.times_ns) == 21  # t = 0..2ms at 100us
        for field_name in SAMPLED_FIELDS:
            assert len(tracer.samples[field_name]) == 21

    def test_cwnd_series_reflects_slow_start(self):
        sim, sender, tracer = traced_flow()
        sim.run(max_events=1_000_000)
        _, cwnd = tracer.series("cwnd_mss")
        assert cwnd[0] == pytest.approx(2.0)  # initial window
        assert cwnd.max() > 2.0  # grew during the transfer

    def test_stop_halts(self):
        sim, sender, tracer = traced_flow()
        sim.run(until=500_000)
        tracer.stop()
        n = len(tracer.times_ns)
        sim.run(until=1_000_000)
        assert len(tracer.times_ns) == n

    def test_max_samples_bound(self):
        sim, sender, tracer = traced_flow()
        tracer.max_samples = 5
        sim.run(until=5_000_000)
        assert len(tracer.times_ns) == 5
        assert not tracer.running

    def test_stop_after_exhaustion_cannot_cancel_recycled_event(self):
        # Regression: when max_samples exhausts, the just-fired tick event
        # goes to the engine freelist.  A stale tracer handle to it must not
        # let stop() cancel whatever unrelated event reuses the carcass.
        sim = Simulator(seed=2)
        tree = build_star(sim, n_senders=1)
        flow = next_flow_id()
        config = TcpConfig(seed_rtt_ns=tree.baseline_rtt_ns(), rto_min_ns=5 * MS)
        sender = TcpSender(sim, tree.servers[0], tree.aggregator.node_id, flow, config=config)
        tracer = FlowTracer(sim, sender, interval_ns=100 * US, max_samples=3)
        tracer.start()
        sim.run_until_idle()  # idle flow: only tracer ticks fire
        assert len(tracer.times_ns) == 3
        assert not tracer.running
        seen = []
        sim.schedule(1_000, seen.append, "alive")  # reuses the tick carcass
        tracer.stop()
        sim.run_until_idle()
        assert seen == ["alive"]

    def test_validation(self):
        sim, sender, _ = traced_flow()
        with pytest.raises(ValueError):
            FlowTracer(sim, sender, interval_ns=0)
        with pytest.raises(ValueError):
            FlowTracer(sim, sender, max_samples=0)

    def test_unknown_field_rejected(self):
        sim, sender, tracer = traced_flow()
        sim.run(until=200_000)
        with pytest.raises(KeyError):
            tracer.series("nope")


class TestEvents:
    def test_timeout_event_captured(self):
        # black hole (no receiver): the RTO fires and the Tracer records it
        events = Tracer()
        sim, sender, _ = traced_flow(deliver=False, tracer=events)
        sim.run(until=20 * MS)
        timeouts = events.of_kind("rto")
        assert len(timeouts) >= 1
        assert timeouts[0].detail in ("FLoss-TO", "LAck-TO")

    def test_plus_sender_state_traced(self):
        sim, sender, tracer = traced_flow(sender_cls=DctcpPlusSender, deliver=False)
        sim.run(until=20 * MS)
        _, states = tracer.series("state")
        # after the RTO the machine sits in TIME_INC (code 1)
        assert states[-1] == 1
        _, slow = tracer.series("slow_time_us")
        assert slow[-1] > 0

    def test_plain_sender_state_is_normal(self):
        sim, sender, tracer = traced_flow()
        sim.run(until=1_000_000)
        _, states = tracer.series("state")
        assert set(states) == {0}


class TestExport:
    def test_csv_shape(self):
        sim, sender, tracer = traced_flow()
        sim.run(until=500_000)
        csv_text = tracer.to_csv()
        lines = csv_text.splitlines()
        assert lines[0] == "time_us," + ",".join(SAMPLED_FIELDS)
        assert len(lines) == len(tracer.times_ns) + 1
        assert lines[2].split(",")[0] == "100.000"  # time in us, 3 decimals
        assert lines[2].split(",")[-1] == "0"  # state code printed as an int
