"""Hand-computed ACK scripts, one per slow_time law that only a golden
digest, a literal pin or a coarse figure bound would otherwise catch.

Grounding: the paper's Algorithm 1 and Fig. 4, and the *Disentangling
Flaws in Linux DCTCP* checklist (PAPERS.md).  Each docstring names the
reading it pins and the ROADMAP item 1(b) factor whose other arm would
change it: a winning arm of that factorial changes the named test on
purpose.  ``measurements/pr-43.md`` records the one-line mutant each test
was shown to fail on.
"""

import random

import pytest

from repro.core.states import DctcpPlusState
from repro.sim.units import MS, US

from .test_dctcp_plus import MSS, ack, harness
from .test_state_machine import make

UNIT = 100 * US


def _rto_harness(**cfg_overrides):
    """A lockstep DCTCP+ sender (unit 100 us, 1 MSS floor) whose first
    window is lost: one RTO fires, and it re-enters TIME_INC at 100 us."""
    sim, s = harness(plus={"randomize": False, "backoff_time_unit_ns": UNIT}, **cfg_overrides)
    sim.run(until=sim.now + 6 * MS)  # the window went nowhere: one RTO
    assert s.stats.timeout_count == 1
    assert (s.state, s.slow_time_ns) == (DctcpPlusState.TIME_INC, UNIT)
    return sim, s


class TestThresholdExit:
    def test_exit_at_exactly_threshold_t(self):
        """Algorithm 1 divides while ``slow_time > threshold_T``, so a decay
        that finds slow_time *equal* to threshold_T leaves for NORMAL.

        Script (lockstep, unit 50 us, divisor 2, threshold_T 25 us):
        congestion -> TIME_INC at 50 us; clean ACK -> TIME_DES at 25 us;
        clean ACK -> NORMAL at 0 (``>=`` would divide again to 12.5 us).
        No 1(b) factor varies this boundary; ablations sweep threshold_T's
        value, not the comparison.
        """
        m = make(randomize=False, unit=50 * US, threshold=25 * US)
        m.on_congestion_event()
        m.on_clean_ack(0)
        assert (m.state, m.slow_time_ns) == (DctcpPlusState.TIME_DES, 25 * US)
        m.on_clean_ack(1)
        assert (m.state, m.slow_time_ns) == (DctcpPlusState.NORMAL, 0)
        assert m.transitions_to_normal == 1


class TestIncrementRange:
    def test_increments_are_uniform_on_zero_to_unit(self):
        """Each increment is ``random(backoff_time_unit)`` read as an integer
        drawn uniformly from (0, u] (DESIGN §7): ``randrange(u) + 1`` on the
        flow's stream, so the mean increment is u/2 (exactly (u + 1)/2).

        1(b)'s increment factor (U(0, u] vs U(0, 2u]) changes this test.
        """
        m = make(unit=UNIT, seed=11)
        reference = random.Random(11)
        draws = []
        for _ in range(4000):
            before = m.slow_time_ns
            m.on_congestion_event()
            draws.append(m.slow_time_ns - before)
        assert draws == [reference.randrange(UNIT) + 1 for _ in draws]
        assert 0 < min(draws) and max(draws) <= UNIT
        assert max(draws) > 0.99 * UNIT  # the whole range is reached
        assert sum(draws) / len(draws) == pytest.approx(UNIT / 2, rel=0.02)


class TestRetransArc:
    """Fig. 4's "retrans" arc: when an RTO's retransmission counts as
    congestion evidence for the machine."""

    def test_every_ack_of_rto_recovery_is_congestion(self):
        """The kernel CA_Loss reading: every ACK that arrives while the
        timed-out window drains (``in_rto_recovery``) grows slow_time, not
        only the first ACK after the resend.

        Script (initial window 4 MSS, all lost): RTO -> 100 us; clean
        partial ACK 1 -> 200 us (the resend's own flag); clean partial
        ACK 2, still below the recovery point -> 300 us.  Without the
        CA_Loss term ACK 2 would be a clean decay to TIME_DES at 100 us.
        1(b)'s "retrans" factor (CA_Loss / only the ACK after the resend /
        no flag) changes this test.
        """
        sim, s = _rto_harness(init_cwnd_mss=4.0)
        recovery_point = s.rto_recovery_point
        assert recovery_point == 4 * MSS
        ack(s, MSS)
        assert (s.state, s.slow_time_ns) == (DctcpPlusState.TIME_INC, 2 * UNIT)
        ack(s, 2 * MSS)
        assert s.in_rto_recovery and not s._retrans_pending
        assert (s.state, s.slow_time_ns) == (DctcpPlusState.TIME_INC, 3 * UNIT)

    def test_rto_flags_the_next_ack_as_congestion(self):
        """``on_rto`` sets ``_retrans_pending``, so the first ACK after the
        resend counts as congestion even when it ends recovery, where
        ``in_rto_recovery`` is already false.

        Script (initial window 2 MSS, both lost): RTO -> 100 us with the
        flag set; one clean ACK of the whole window -> 200 us and the flag
        cleared.  Without the flag that ACK would decay to TIME_DES at
        50 us.  1(b)'s "retrans" factor, arm "no flag set by the RTO"
        (M11), changes this test.
        """
        sim, s = _rto_harness()
        assert s._retrans_pending
        ack(s, s.rto_recovery_point)
        assert not s.in_rto_recovery and not s._retrans_pending
        assert (s.state, s.slow_time_ns) == (DctcpPlusState.TIME_INC, 2 * UNIT)
