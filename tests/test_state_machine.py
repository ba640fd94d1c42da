"""Tests for the DCTCP+ slow_time state machine (Fig. 4 / Algorithm 1)."""

import random

import pytest
from hypothesis import example, given, strategies as st

from repro.core.config import DctcpPlusConfig
from repro.core.state_machine import SlowTimeStateMachine
from repro.core.states import DctcpPlusState
from repro.exec.scenario import ScenarioSpec, run_scenario
from repro.sim.units import US


def make(randomize=True, divisor=2.0, threshold=25 * US, unit=100 * US,
         decay_interval=0, seed=1):
    cfg = DctcpPlusConfig(
        backoff_time_unit_ns=unit,
        divisor_factor=divisor,
        threshold_t_ns=threshold,
        randomize=randomize,
        decay_interval_ns=decay_interval,
    )
    return SlowTimeStateMachine(cfg, random.Random(seed))


class TestConfigValidation:
    def test_rejects_bad_unit(self):
        with pytest.raises(ValueError):
            DctcpPlusConfig(backoff_time_unit_ns=0)

    def test_rejects_divisor_at_or_below_one(self):
        with pytest.raises(ValueError):
            DctcpPlusConfig(divisor_factor=1.0)

    def test_rejects_negative_threshold(self):
        with pytest.raises(ValueError):
            DctcpPlusConfig(threshold_t_ns=-1)

    def test_rejects_bad_unit_mode(self):
        with pytest.raises(ValueError):
            DctcpPlusConfig(backoff_unit_mode="wrong")

    def test_rejects_negative_decay_interval(self):
        with pytest.raises(ValueError):
            DctcpPlusConfig(decay_interval_ns=-1)

    def test_with_overrides(self):
        cfg = DctcpPlusConfig().with_overrides(divisor_factor=4.0)
        assert cfg.divisor_factor == 4.0


class TestTransitions:
    def test_starts_normal(self):
        m = make()
        assert m.state is DctcpPlusState.NORMAL
        assert m.slow_time_ns == 0

    def test_normal_to_inc_draws_initial_backoff(self):
        m = make()
        m.on_congestion_event()
        assert m.state is DctcpPlusState.TIME_INC
        assert 0 < m.slow_time_ns <= 100 * US

    def test_inc_self_loop_accumulates(self):
        m = make(randomize=False)
        for _ in range(3):
            m.on_congestion_event()
        assert m.slow_time_ns == 3 * 100 * US

    def test_inc_to_des_divides(self):
        m = make(randomize=False)
        m.on_congestion_event()
        m.on_congestion_event()  # 200 us
        m.on_clean_ack(0)
        assert m.state is DctcpPlusState.TIME_DES
        assert m.slow_time_ns == 100 * US

    def test_des_to_inc_on_congestion(self):
        m = make(randomize=False)
        m.on_congestion_event()
        m.on_clean_ack(0)
        m.on_congestion_event()
        assert m.state is DctcpPlusState.TIME_INC

    def test_des_keeps_dividing_above_threshold(self):
        m = make(randomize=False, unit=400 * US, threshold=25 * US)
        m.on_congestion_event()  # 400 us
        m.on_clean_ack(0)        # Des, 200 us
        m.on_clean_ack(1)        # 100 us
        m.on_clean_ack(2)        # 50 us
        assert m.state is DctcpPlusState.TIME_DES
        assert m.slow_time_ns == 50 * US

    def test_des_exits_to_normal_below_threshold(self):
        m = make(randomize=False, unit=40 * US, threshold=25 * US)
        m.on_congestion_event()  # 40 us
        m.on_clean_ack(0)        # Des, 20 us <= threshold
        m.on_clean_ack(1)        # exit
        assert m.state is DctcpPlusState.NORMAL
        assert m.slow_time_ns == 0

    def test_clean_ack_in_normal_is_noop(self):
        m = make()
        m.on_clean_ack(0)
        assert m.state is DctcpPlusState.NORMAL

    def test_transition_counters(self):
        m = make(randomize=False, unit=40 * US)
        m.on_congestion_event()
        m.on_clean_ack(0)
        m.on_clean_ack(1)
        assert m.transitions_to_inc == 1
        assert m.transitions_to_des == 1
        assert m.transitions_to_normal == 1

    def test_peak_tracking(self):
        m = make(randomize=False)
        for _ in range(5):
            m.on_congestion_event()
        m.on_clean_ack(0)
        assert m.peak_slow_time_ns == 5 * 100 * US


class TestRandomization:
    def test_randomized_draws_vary(self):
        m = make(randomize=True)
        draws = set()
        for _ in range(20):
            before = m.slow_time_ns
            m.on_congestion_event()
            draws.add(m.slow_time_ns - before)
        assert len(draws) > 5

    def test_norand_is_deterministic_unit(self):
        m = make(randomize=False)
        m.on_congestion_event()
        assert m.slow_time_ns == 100 * US

    def test_two_machines_desynchronize(self):
        a, b = make(seed=1), make(seed=2)
        for _ in range(5):
            a.on_congestion_event()
            b.on_congestion_event()
        assert a.slow_time_ns != b.slow_time_ns


class TestDecayPacing:
    def test_fixed_interval_gates_decay(self):
        m = make(randomize=False, decay_interval=100 * US)
        m.on_congestion_event()
        m.on_congestion_event()  # 200 us
        m.on_clean_ack(1_000_000)  # first decay allowed
        level = m.slow_time_ns
        m.on_clean_ack(1_000_000 + 50 * US)  # inside interval: absorbed
        assert m.slow_time_ns == level
        m.on_clean_ack(1_000_000 + 150 * US)  # past interval: decays
        assert m.slow_time_ns < level

    @given(
        st.integers(min_value=0, max_value=200 * US),
        st.lists(st.tuples(st.booleans(), st.integers(0, 300 * US)), max_size=120),
    )
    # The limiter's exact boundary: the second clean ACK lands exactly one
    # interval after the first decay (``now - last == interval``) and must
    # decay.  1(b)'s decay factor (per 100 us vs every clean ACK) moves the
    # interval, not this comparison.
    @example(100 * US, [(True, 0), (False, 0), (False, 100 * US)])
    def test_clean_ack_decays_iff_interval_elapsed(self, interval, script):
        # The live unit (an SRTT, say) is larger than both the configured
        # unit and the interval: the cadence must still be the interval.
        m = make(decay_interval=interval, seed=7)
        m.unit_source = lambda: 500 * US
        last_decay = None
        now = 0
        for congested, dt in script:
            now += dt
            if congested:
                m.on_congestion_event()
                continue
            engaged = m.state is not DctcpPlusState.NORMAL
            before = _decay_view(m)
            m.on_clean_ack(now)
            due = engaged and (last_decay is None or now - last_decay >= interval)
            assert (_decay_view(m) != before) == due
            if due:
                last_decay = now

    def test_unit_source_scales_increments(self):
        m = make(randomize=False)
        m.unit_source = lambda: 300 * US
        m.on_congestion_event()
        assert m.slow_time_ns == 300 * US

    def test_unit_source_never_shrinks_unit(self):
        m = make(randomize=False, unit=100 * US)
        m.unit_source = lambda: 10 * US  # below the configured floor
        m.on_congestion_event()
        assert m.slow_time_ns == 100 * US


class TestInvariants:
    @given(st.lists(st.booleans(), max_size=300))
    def test_slow_time_nonnegative_and_state_consistent(self, events):
        m = make(seed=3)
        now = 0
        for congested in events:
            if congested:
                m.on_congestion_event()
            else:
                m.on_clean_ack(now)
            now += 50 * US
            assert m.slow_time_ns >= 0
            if m.state is DctcpPlusState.NORMAL:
                assert m.slow_time_ns == 0
            assert m.peak_slow_time_ns >= m.slow_time_ns

    @given(st.integers(min_value=1, max_value=100))
    def test_pure_congestion_monotone_growth(self, n):
        m = make(seed=5)
        last = 0
        for _ in range(n):
            m.on_congestion_event()
            assert m.slow_time_ns > last
            last = m.slow_time_ns

    def test_congestion_event_starts_pacing(self):
        m = make()
        assert m.state is DctcpPlusState.NORMAL and m.slow_time_ns == 0
        m.on_congestion_event()
        assert m.state is not DctcpPlusState.NORMAL and m.slow_time_ns > 0


def _decay_view(m):
    """Everything a decay step changes (it always changes one of them)."""
    return (m.state, m.slow_time_ns, m.transitions_to_des, m.transitions_to_normal)


#: Random congestion / clean-ACK scripts at random times, over random laws.
machines = st.builds(
    make,
    randomize=st.booleans(),
    divisor=st.floats(min_value=1.01, max_value=16.0),
    threshold=st.integers(min_value=0, max_value=100 * US),
    decay_interval=st.integers(min_value=0, max_value=200 * US),
    seed=st.integers(min_value=0, max_value=2**16),
)
scripts = st.lists(st.tuples(st.booleans(), st.integers(0, 300 * US)), max_size=150)


class TestAlgorithm1:
    """Algorithm 1's laws, step by step, on a bare machine."""

    @staticmethod
    def _steps(m, script):
        """Run ``script``, yielding (congested, state/slow_time before, after)."""
        now = 0
        for congested, dt in script:
            now += dt
            before = (m.state, m.slow_time_ns)
            if congested:
                m.on_congestion_event()
            else:
                m.on_clean_ack(now)
            yield congested, before, (m.state, m.slow_time_ns)

    @given(machines, scripts)
    def test_slow_time_never_decreases_in_time_inc(self, m, script):
        for _, (state, s), (state_after, s_after) in self._steps(m, script):
            if state is DctcpPlusState.TIME_INC and state_after is DctcpPlusState.TIME_INC:
                assert s_after >= s

    @given(machines, scripts)
    def test_every_decay_divides_exactly(self, m, script):
        divisor = m.config.divisor_factor
        for congested, (state, s), (state_after, s_after) in self._steps(m, script):
            if congested or (state, s) == (state_after, s_after):
                continue  # not a decay step (absorbed, or NORMAL)
            if state_after is DctcpPlusState.TIME_DES:
                assert s_after == int(s / divisor)
            else:  # TIME_DES -> NORMAL, only from at or below threshold_T
                assert state is DctcpPlusState.TIME_DES and state_after is DctcpPlusState.NORMAL
                assert s <= m.config.threshold_t_ns

    @given(machines, scripts)
    def test_normal_is_zero_and_unpaced(self, m, script):
        for _, _, (state_after, s_after) in self._steps(m, script):
            if state_after is DctcpPlusState.NORMAL:
                assert s_after == 0


def test_zero_decay_interval_changes_a_scenario():
    """``decay_interval_ns=0`` (Algorithm 1's literal per-ACK decay) is
    honoured below the backoff unit, so it moves a DCTCP+ incast."""
    base = dict(rounds=1, seed=1, min_cwnd_mss=1.0)  # the smallest that shows it
    default = run_scenario(ScenarioSpec.create("dctcp+", 6, **base))
    literal = run_scenario(
        ScenarioSpec.create("dctcp+", 6, plus_overrides={"decay_interval_ns": 0}, **base)
    )
    assert literal != default
