"""The slow_time regulation state machine (paper Fig. 4 + Algorithm 1).

``slow_time`` follows an AIMD law driven by per-ACK congestion evidence:

- **Additive increase** — every congestion event while cwnd sits at its
  floor (an ECE-marked ACK, or a retransmission after timeout) grows
  ``slow_time`` by ``random(backoff_time_unit)``.  The randomization is the
  desynchronization mechanism: concurrent flows draw different increments
  and stop bursting in lockstep.
- **Multiplicative decrease** — the first clean ACK moves the machine to
  TIME_DES and divides ``slow_time`` by ``divisor_factor``; further clean
  ACKs keep dividing until ``slow_time <= threshold_T``, then the sender
  returns to plain DCTCP (NORMAL, ``slow_time = 0``).

Note: Algorithm 1 line 15 reads ``current_state = DCTCP_Time_Inc`` inside
the Inc->Des branch; Fig. 4 and the surrounding prose make clear this is a
typo for ``DCTCP_Time_Des`` (likewise line 21 for Des->Inc), and we follow
the figure.
"""

from __future__ import annotations

import random
from typing import Optional

from ..sim.rng import uniform_time
from .config import DctcpPlusConfig
from .states import DctcpPlusState


class SlowTimeStateMachine:
    """Tracks the DCTCP+ state and the current ``slow_time``."""

    __slots__ = (
        "config",
        "rng",
        "state",
        "slow_time_ns",
        "transitions_to_inc",
        "transitions_to_des",
        "transitions_to_normal",
        "peak_slow_time_ns",
        "_last_decay_ns",
        "rng_source",
        "unit_source",
        "observer",
        "on_update",
    )

    def __init__(self, config: DctcpPlusConfig, rng: Optional[random.Random] = None):
        self.config = config
        #: the backoff stream; ``None`` until the first randomized draw
        #: opens it (most flows of a massive incast never draw).
        self.rng = rng
        #: optional callable opening that stream; installed by the sender,
        #: which fixed the stream's name when it was built.  Without one
        #: (and without ``rng``) the machine draws from ``Random(0)``.
        self.rng_source = None
        self.state = DctcpPlusState.NORMAL
        self.slow_time_ns = 0
        self.transitions_to_inc = 0
        self.transitions_to_des = 0
        self.transitions_to_normal = 0
        self.peak_slow_time_ns = 0
        self._last_decay_ns = -(10**18)
        #: optional callable returning the live backoff unit (e.g. the
        #: connection's SRTT); installed by the sender in "srtt" mode.
        self.unit_source = None
        #: optional hook fired on the NORMAL -> TIME_INC transition; the
        #: validate layer uses it to assert the transition only happens
        #: with cwnd at its floor.  None on the (default) unvalidated path.
        self.observer = None
        #: optional hook fired after every state/slow_time update, with
        #: ``(machine, cause)`` where cause is "congestion" or "decay"; the
        #: telemetry tracer records transitions and slow_time evolution
        #: through it.  None on the (default) untraced path.
        self.on_update = None

    def _current_unit(self) -> int:
        unit = self.config.backoff_time_unit_ns
        if self.unit_source is not None:
            dynamic = self.unit_source()
            if dynamic is not None and dynamic > unit:
                unit = int(dynamic)
        return unit

    def _draw_backoff(self) -> int:
        """One additive increment: randomized per the paper, or the plain
        unit for the "partial DCTCP+" ablation (Fig. 6)."""
        unit = self._current_unit()
        if self.config.randomize:
            rng = self.rng
            if rng is None:
                source = self.rng_source
                rng = self.rng = source() if source is not None else random.Random(0)
            return uniform_time(rng, unit)
        return unit

    # -- inputs ------------------------------------------------------------------
    def on_congestion_event(self) -> None:
        """cwnd is at the floor *and* the sender was told to slow down
        (ECE-marked ACK, or a retransmission following an RTO)."""
        if self.state is DctcpPlusState.NORMAL:
            if self.observer is not None:
                self.observer(self)
            self.state = DctcpPlusState.TIME_INC
            self.transitions_to_inc += 1
            self.slow_time_ns = self._draw_backoff()
        elif self.state is DctcpPlusState.TIME_INC:
            self.slow_time_ns += self._draw_backoff()
        else:  # TIME_DES -> TIME_INC (Fig. 4)
            self.state = DctcpPlusState.TIME_INC
            self.transitions_to_inc += 1
            self.slow_time_ns += self._draw_backoff()
        if self.slow_time_ns > self.peak_slow_time_ns:
            self.peak_slow_time_ns = self.slow_time_ns
        if self.on_update is not None:
            self.on_update(self, "congestion")

    def on_clean_ack(self, now_ns: int = 0) -> None:
        """An ACK arrived without congestion evidence.

        Decay steps are rate-limited to one per ``decay_interval_ns`` (the
        Fig. 4 "Threshold" guard); clean ACKs inside the same interval are
        absorbed without further division.
        """
        cfg = self.config
        if self.state is DctcpPlusState.NORMAL:
            return
        if now_ns - self._last_decay_ns < cfg.decay_interval_ns:
            return
        self._last_decay_ns = now_ns
        if self.state is DctcpPlusState.TIME_INC:
            self.state = DctcpPlusState.TIME_DES
            self.transitions_to_des += 1
            self.slow_time_ns = int(self.slow_time_ns / cfg.divisor_factor)
        elif self.slow_time_ns > cfg.threshold_t_ns:
            self.slow_time_ns = int(self.slow_time_ns / cfg.divisor_factor)
        else:
            self.state = DctcpPlusState.NORMAL
            self.transitions_to_normal += 1
            self.slow_time_ns = 0
        if self.on_update is not None:
            self.on_update(self, "decay")

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"SlowTimeStateMachine({self.state}, slow_time={self.slow_time_ns}ns)"
