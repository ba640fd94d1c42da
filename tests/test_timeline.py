"""One flow's timeline as the Tracer records it: RTOs and slow_time state."""

from repro.core.dctcp_plus import DctcpPlusSender
from repro.core.states import DctcpPlusState
from repro.net.topology import build_star
from repro.sim.engine import Simulator
from repro.sim.units import MS
from repro.tcp.config import TcpConfig
from repro.tcp.receiver import TcpReceiver
from repro.tcp.sender import TcpSender
from repro.telemetry.tracer import Tracer
from repro.workloads.ids import next_flow_id

MSS = 1460


def traced_flow(sender_cls=TcpSender, total=40 * MSS, deliver=True):
    tracer = Tracer()
    sim = Simulator(seed=2, tracer=tracer)
    tree = build_star(sim, n_senders=1)
    flow = next_flow_id()
    if deliver:
        TcpReceiver(sim, tree.aggregator, tree.servers[0].node_id, flow, expected_bytes=total)
    config = TcpConfig(seed_rtt_ns=tree.baseline_rtt_ns(), rto_min_ns=5 * MS)
    sender = sender_cls(sim, tree.servers[0], tree.aggregator.node_id, flow, config=config)
    sender.send(total)
    return sim, sender, tracer


class TestEvents:
    def test_timeout_event_captured(self):
        # black hole (no receiver): the RTO fires and the Tracer records it
        sim, sender, events = traced_flow(deliver=False)
        sim.run(until=20 * MS)
        timeouts = events.of_kind("rto")
        assert len(timeouts) >= 1
        assert timeouts[0].detail in ("FLoss-TO", "LAck-TO")

    def test_plus_sender_state_traced(self):
        sim, sender, events = traced_flow(sender_cls=DctcpPlusSender, deliver=False)
        sim.run(until=20 * MS)
        # after the RTO the machine sits in TIME_INC with slow_time > 0 ...
        machine = sender.machine
        assert machine.state is DctcpPlusState.TIME_INC
        assert machine.slow_time_ns > 0
        # ... and the trace says so: the last transition enters TIME_INC,
        # and the last slow_time record holds the sender's value.
        states = events.of_kind("state")
        assert states and states[-1].detail.endswith("->" + DctcpPlusState.TIME_INC.value)
        assert events.of_kind("slow_time")[-1].value == machine.slow_time_ns

    def test_plain_sender_state_is_normal(self):
        sim, sender, events = traced_flow()
        sim.run(until=1 * MS)
        assert getattr(sender, "machine", None) is None
        assert events.of_kind("state") == [] and events.of_kind("slow_time") == []
