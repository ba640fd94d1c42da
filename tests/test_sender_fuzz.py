"""Property/fuzz tests: TCP sender state invariants under arbitrary ACKs.

The sender is fed randomized (possibly nonsensical-but-wire-legal) ACK
sequences and arbitrary timer firings; whatever happens, the core
sequence-space invariants must hold.  This is the class of test that
catches state-machine corruption that scenario tests never exercise.
"""

import random

from hypothesis import given, settings, strategies as st

from repro.core.config import DctcpPlusConfig
from repro.core.dctcp_plus import DctcpPlusSender
from repro.core.state_machine import SlowTimeStateMachine
from repro.core.states import DctcpPlusState
from repro.net.topology import build_star
from repro.sim.engine import Simulator
from repro.sim.units import MS, US
from repro.tcp.config import TcpConfig
from repro.tcp.dctcp import DctcpSender
from repro.tcp.sender import TcpSender
from repro.workloads.ids import next_flow_id

from .helpers import ack

MSS = 1460
TOTAL = 30 * MSS


def build(sender_cls):
    sim = Simulator(seed=1)
    tree = build_star(sim, n_senders=1)
    cfg = TcpConfig(seed_rtt_ns=100 * US, rto_min_ns=2 * MS)
    sender = sender_cls(sim, tree.servers[0], tree.aggregator.node_id, next_flow_id(), config=cfg)
    sender.send(TOTAL)
    sim.run(until=1)
    return sim, sender


def check_invariants(sender):
    assert 0 <= sender.snd_una <= sender.snd_nxt <= sender.total_bytes
    assert sender.bytes_in_flight >= 0
    assert sender.cwnd >= sender.config.mss  # never below one segment
    assert sender.ssthresh >= sender.config.mss
    assert sender.dupacks >= 0
    if sender.completed:
        assert sender.snd_una >= sender.total_bytes
    machine = getattr(sender, "machine", None)
    if machine is not None:
        assert machine.slow_time_ns >= 0


ACK_STEPS = st.lists(
    st.tuples(
        # ack sequence offset in segments (may repeat / go "backwards")
        st.integers(min_value=0, max_value=30),
        st.booleans(),  # ECE flag
        # time to advance before the ACK (can cross RTO boundaries)
        st.integers(min_value=0, max_value=3_000_000),
    ),
    max_size=60,
)


class TestAckFuzz:
    @settings(max_examples=40, deadline=None)
    @given(steps=ACK_STEPS)
    def test_newreno_invariants(self, steps):
        sim, sender = build(TcpSender)
        self._drive(sim, sender, steps)

    @settings(max_examples=40, deadline=None)
    @given(steps=ACK_STEPS)
    def test_dctcp_invariants(self, steps):
        sim, sender = build(DctcpSender)
        self._drive(sim, sender, steps)
        assert 0.0 <= sender.alpha <= 1.0

    @settings(max_examples=40, deadline=None)
    @given(steps=ACK_STEPS)
    def test_dctcp_plus_invariants(self, steps):
        sim, sender = build(DctcpPlusSender)
        self._drive(sim, sender, steps)

    @staticmethod
    def _drive(sim, sender, steps):
        for seg_offset, ece, delay in steps:
            if delay:
                sim.run(until=sim.now + delay)
            ack_seq = min(seg_offset * MSS, TOTAL)
            sender.on_packet(
                ack(sim, sender.flow_id, sender.dst_node_id, sender.host.node_id, ack_seq, ece=ece)
            )
            check_invariants(sender)
        # drain whatever the fuzz left behind; state must stay legal
        sim.run(until=sim.now + 10_000_000, max_events=500_000)
        check_invariants(sender)


#: (is_congestion, time advance before the input in ns)
MACHINE_STEPS = st.lists(
    st.tuples(st.booleans(), st.integers(min_value=0, max_value=500_000)),
    min_size=1,
    max_size=80,
)


class TestSlowTimeMachineAimdLaws:
    """Property tests of the paper's Algorithm 1 AIMD bounds, driven with
    arbitrary congestion/clean-ACK sequences."""

    @settings(max_examples=60, deadline=None)
    @given(steps=MACHINE_STEPS, rng_seed=st.integers(min_value=0, max_value=2**31))
    def test_aimd_bounds(self, steps, rng_seed):
        cfg = DctcpPlusConfig()
        machine = SlowTimeStateMachine(cfg, random.Random(rng_seed))
        unit = cfg.backoff_time_unit_ns
        now = 0
        for is_congestion, dt in steps:
            now += dt
            before = machine.slow_time_ns
            state_before = machine.state
            if is_congestion:
                machine.on_congestion_event()
                # additive increase: 0 < increment <= backoff_time_unit
                delta = machine.slow_time_ns - before
                assert 0 < delta <= unit
                assert machine.state is DctcpPlusState.TIME_INC
            else:
                machine.on_clean_ack(now)
                after = machine.slow_time_ns
                if state_before is DctcpPlusState.NORMAL:
                    assert machine.state is DctcpPlusState.NORMAL
                    assert after == before == 0
                elif machine.state is DctcpPlusState.NORMAL:
                    # return to NORMAL only from at/below threshold_T
                    assert before <= cfg.threshold_t_ns
                    assert after == 0
                elif after != before:
                    # multiplicative decay: exact division by divisor_factor
                    assert after == int(before / cfg.divisor_factor)
                    assert machine.state is DctcpPlusState.TIME_DES
            assert machine.slow_time_ns >= 0
            assert machine.slow_time_ns <= machine.peak_slow_time_ns
            if machine.state is DctcpPlusState.NORMAL:
                assert machine.slow_time_ns == 0

    @settings(max_examples=40, deadline=None)
    @given(steps=MACHINE_STEPS, rng_seed=st.integers(min_value=0, max_value=2**31))
    def test_unrandomized_growth_is_exactly_one_unit(self, steps, rng_seed):
        """The Fig. 6 ablation (randomize=False) grows by the full unit."""
        cfg = DctcpPlusConfig(randomize=False)
        machine = SlowTimeStateMachine(cfg, random.Random(rng_seed))
        now = 0
        for is_congestion, dt in steps:
            now += dt
            before = machine.slow_time_ns
            if is_congestion:
                machine.on_congestion_event()
                assert machine.slow_time_ns - before == cfg.backoff_time_unit_ns
            else:
                machine.on_clean_ack(now)


class TestDctcpPlusSenderMachineProperties:
    """Drive the *full* DctcpPlusSender and check the machine-level AIMD
    bounds hold per ACK (the end-to-end version of the unit laws above)."""

    @settings(max_examples=40, deadline=None)
    @given(steps=ACK_STEPS)
    def test_per_ack_slow_time_bounds(self, steps):
        sim, sender = build(DctcpPlusSender)
        machine = sender.machine
        cfg = sender.plus_config
        assert cfg.backoff_unit_mode == "fixed"  # unit is constant below
        unit = cfg.backoff_time_unit_ns
        for seg_offset, ece, delay in steps:
            if delay:
                # timers (RTOs) may fire here; each is one machine input,
                # so only the per-ACK window below is bounds-checked
                sim.run(until=sim.now + delay)
            before = machine.slow_time_ns
            state_before = machine.state
            sender.on_packet(
                ack(
                    sim, sender.flow_id, sender.dst_node_id, sender.host.node_id,
                    min(seg_offset * MSS, TOTAL), ece=ece,
                )
            )
            after = machine.slow_time_ns
            if after > before:
                # one ACK = at most one congestion event = one increment
                assert after - before <= unit
                assert machine.state is DctcpPlusState.TIME_INC
            elif after < before:
                assert after == int(before / cfg.divisor_factor) or after == 0
                if machine.state is DctcpPlusState.NORMAL:
                    assert before <= cfg.threshold_t_ns
            if state_before is DctcpPlusState.NORMAL and machine.state is (
                DctcpPlusState.TIME_INC
            ):
                # NORMAL -> TIME_INC entry requires the cwnd floor; after
                # the ACK cwnd may have moved, but slow_time must have been
                # seeded with a single fresh draw
                assert 0 < after <= unit
            check_invariants(sender)


class TestMonotonicity:
    @settings(max_examples=25, deadline=None)
    @given(acks=st.lists(st.integers(min_value=0, max_value=30), min_size=1, max_size=40))
    def test_snd_una_never_regresses(self, acks):
        sim, sender = build(TcpSender)
        high_water = 0
        for seg in acks:
            sender.on_packet(
                ack(
                    sim, sender.flow_id, sender.dst_node_id, sender.host.node_id,
                    min(seg * MSS, TOTAL),
                )
            )
            assert sender.snd_una >= high_water
            high_water = sender.snd_una
