"""D²TCP — Deadline-aware DCTCP (Vamanan et al., SIGCOMM 2012) — and its
DCTCP⁺-enhanced variant.

The paper's Section VII proposes coalescing the slow_time enhancement
with other datacenter transports, naming D²TCP first.  D²TCP replaces
DCTCP's backoff factor ``alpha`` with the gamma-corrected

    p = alpha ** d,        d = Tc / Delta  (clamped to [d_min, d_max])

where ``Tc`` is the flow's estimated completion time at its current rate
and ``Delta`` the time remaining until its deadline.  A flow that is
ahead of its deadline (d < 1) backs off *more* than DCTCP; a flow in
danger of missing it (d > 1) backs off less, stealing bandwidth from the
far-from-deadline flows.  Deadline-less flows use d = 1 (exact DCTCP).

:class:`D2tcpSender` layers this on :class:`~repro.tcp.dctcp.DctcpSender`;
:class:`D2tcpPlusSender` layers it on
:class:`~repro.core.dctcp_plus.DctcpPlusSender`, realizing the paper's
proposed "D²TCP⁺".
"""

from __future__ import annotations

from typing import Optional

from ..core.dctcp_plus import DctcpPlusSender
from .dctcp import DctcpSender

#: D2TCP's clamp on the deadline-imminence factor.
D_MIN = 0.5
D_MAX = 2.0


def deadline_factor(
    remaining_bytes: int,
    rate_bytes_per_ns: float,
    time_left_ns: int,
    d_min: float = D_MIN,
    d_max: float = D_MAX,
) -> float:
    """The gamma-correction exponent ``d = Tc / Delta``.

    A missed or immediate deadline (``time_left <= 0``) clamps to
    ``d_max`` (most aggressive); a flow with nothing left to send clamps
    to ``d_min`` (most polite).
    """
    if remaining_bytes <= 0:
        return d_min
    if time_left_ns <= 0:
        return d_max
    if rate_bytes_per_ns <= 0:
        return d_max
    completion_ns = remaining_bytes / rate_bytes_per_ns
    d = completion_ns / time_left_ns
    return max(d_min, min(d_max, d))


class DeadlineMixin:
    """Per-flow deadline bookkeeping and the completion-time projection.

    The one home of ``set_deadline`` / ``deadline_missed`` and of the
    ``cwnd / srtt`` rate estimate: the D2TCP senders below and the
    deadline-aware ``external:`` host
    (:class:`~repro.control.external.DeadlineExternalPolicySender`) all
    carry it.  What a strategy *does* with the projection is its own law.
    """

    def __init__(self, *args, deadline_ns: Optional[int] = None, **kwargs):
        super().__init__(*args, **kwargs)
        self.deadline_ns = deadline_ns

    def set_deadline(self, absolute_deadline_ns: Optional[int]) -> None:
        """Set (or clear) the flow's completion deadline."""
        self.deadline_ns = absolute_deadline_ns

    @property
    def deadline_missed(self) -> bool:
        """Whether the flow finished (or now stands) past its deadline."""
        if self.deadline_ns is None:
            return False
        reference = self.stats.completion_time_ns if self.completed else self.sim.now
        return reference > self.deadline_ns

    def _current_d(self) -> float:
        """``d = Tc / Delta`` at the current window (1 without a deadline);
        ``d >= 1`` means the flow is projected to miss."""
        if self.deadline_ns is None:
            return 1.0  # deadline-less flows behave exactly like DCTCP
        remaining = self.total_bytes - self.snd_una
        # A congestion event can precede the first RTT sample (an unseeded
        # estimator holds srtt = None).  Dividing by a ~1 ns placeholder
        # would inflate the rate estimate ~1e5x and clamp d to d_min — the
        # flow would back off *hardest* exactly when its deadline clock
        # just started.  Fall back to the configured baseline RTT instead.
        srtt = self.rtt.srtt_ns
        if not srtt:
            srtt = self.config.seed_rtt_ns or self.rtt.rto_initial_ns
        rate = self.cwnd / srtt  # bytes per ns at the current window
        return deadline_factor(remaining, rate, self.deadline_ns - self.sim.now)


class _D2tcpLaw(DeadlineMixin):
    """D2TCP's gamma-corrected backoff over the deadline projection."""

    def _reduction_penalty(self) -> float:
        # p = alpha ** d; d > 1 (deadline imminent) shrinks the penalty,
        # d < 1 (deadline far) grows it (alpha is in [0, 1]).
        return self.alpha ** self._current_d()


class D2tcpSender(_D2tcpLaw, DctcpSender):
    """DCTCP with deadline-gamma-corrected window reduction."""


class D2tcpPlusSender(_D2tcpLaw, DctcpPlusSender):
    """D²TCP carrying the paper's slow_time enhancement (Section VII)."""
