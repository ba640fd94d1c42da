"""RFC 6298 round-trip-time estimation.

Maintains SRTT/RTTVAR and derives the retransmission timeout.  Karn's
algorithm (never sample a retransmitted segment) is enforced by the sender,
which only calls :meth:`RttEstimator.add_sample` for clean segments.
"""

from __future__ import annotations

from typing import Optional


class RttEstimator:
    """SRTT/RTTVAR tracker producing RFC 6298 RTO values (integer ns).

    ``rto_ns`` (the RTO before exponential backoff, clamped to the bounds) is
    stored, not derived: the sender re-arms its timer on every clean ACK, and
    only a new sample can move the value, so the clamp runs once per sample
    instead of once per read.
    """

    __slots__ = (
        "srtt_ns",
        "rttvar_ns",
        "rto_ns",
        "rto_min_ns",
        "rto_max_ns",
        "rto_initial_ns",
        "samples",
    )

    #: RFC 6298 gains: alpha = 1/8, beta = 1/4.
    ALPHA = 0.125
    BETA = 0.25
    #: Clock granularity term G is negligible at ns resolution; RFC's
    #: ``max(G, K*rttvar)`` reduces to ``K*rttvar`` with K = 4.
    K = 4

    def __init__(
        self,
        rto_min_ns: int,
        rto_max_ns: int,
        rto_initial_ns: int,
        seed_rtt_ns: Optional[int] = None,
    ):
        self.rto_min_ns = rto_min_ns
        self.rto_max_ns = rto_max_ns
        self.rto_initial_ns = rto_initial_ns
        self.srtt_ns: Optional[float] = None
        self.rttvar_ns: float = 0.0
        self.samples = 0
        if seed_rtt_ns is not None:
            self.add_sample(seed_rtt_ns)
        else:
            self.rto_ns = max(rto_min_ns, min(rto_max_ns, rto_initial_ns))

    def add_sample(self, rtt_ns: int) -> None:
        """Fold one clean RTT measurement into the estimator and recompute
        ``rto_ns``."""
        if rtt_ns < 0:
            raise ValueError(f"negative RTT sample: {rtt_ns}")
        srtt = self.srtt_ns
        if srtt is None:
            srtt = self.srtt_ns = float(rtt_ns)
            rttvar = self.rttvar_ns = rtt_ns / 2.0
        else:
            err = srtt - rtt_ns
            if err < 0:
                err = -err
            rttvar = self.rttvar_ns = (1 - self.BETA) * self.rttvar_ns + self.BETA * err
            srtt = self.srtt_ns = (1 - self.ALPHA) * srtt + self.ALPHA * rtt_ns
        self.samples += 1
        # max(rto_min, min(rto_max, base)), as comparisons in the same order.
        rto = int(srtt + self.K * rttvar)
        if rto > self.rto_max_ns:
            rto = self.rto_max_ns
        if rto < self.rto_min_ns:
            rto = self.rto_min_ns
        self.rto_ns = rto

    def backed_off_rto_ns(self, backoff_exponent: int) -> int:
        """RTO after ``backoff_exponent`` consecutive expirations."""
        rto = self.rto_ns << max(0, backoff_exponent)
        return min(self.rto_max_ns, rto)
