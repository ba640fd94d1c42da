"""TCP/DCTCP sender configuration.

Defaults mirror the paper's testbed (Linux 2.6.38-era stack, GbE):

- MSS 1460 B, per-packet immediate ACKs.
- Initial cwnd 2 MSS; cwnd floor 2 MSS for congestion reductions
  (the kernel's ``W ∈ [2, rwnd]`` in Eq. (2)); cwnd 1 MSS after a timeout.
- RTO per RFC 6298 with ``RTO_min`` 200 ms (the paper also evaluates 10 ms).
- DCTCP: g = 1/16, one window reduction per RTT of marked feedback.

:class:`TcpConfig` is frozen: every sender of a workload reads the *same*
config object (a 4096-flow point holds one, not 4096 copies), so nothing
may assign to a field after construction — derive a variant with
:meth:`TcpConfig.with_overrides`, which validates it like any other.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from typing import Dict, Optional

from ..sim.units import MS, SEC


@dataclass(frozen=True)
class TcpConfig:
    """Tunables for :class:`repro.tcp.sender.TcpSender` and subclasses."""

    mss: int = 1460
    init_cwnd_mss: float = 2.0
    #: Lower bound enforced on congestion-signal reductions (ECN or fast
    #: retransmit); Eq. (2)'s ``W >= 2``.  The paper lowers this to 1 MSS for
    #: DCTCP+ (footnote 3).
    min_cwnd_mss: float = 2.0
    #: cwnd immediately after an RTO fires (Linux: 1 MSS).
    timeout_cwnd_mss: float = 1.0
    init_ssthresh_mss: float = 64.0
    dupack_threshold: int = 3
    rto_min_ns: int = 200 * MS
    rto_max_ns: int = 60 * SEC
    #: Upper bound on consecutive RTO backoff doublings (Linux: 15 retries).
    max_rto_backoff: int = 15
    #: ECN-capable transport: set ECT on data, react to ECE.  Enabled for
    #: DCTCP/DCTCP+; the paper's TCP baseline runs without ECN.
    ecn_enabled: bool = False
    #: DCTCP marked-fraction EWMA gain ``g`` in Eq. (1).
    dctcp_g: float = 1.0 / 16.0
    #: Initial value of DCTCP's alpha estimate.  1.0 matches the reference
    #: implementation (conservative on the first congested window).
    dctcp_alpha_init: float = 1.0
    #: Seed for the RTT estimator, emulating a persistent connection that
    #: has already measured the path (the incast benchmark reuses
    #: connections across rounds).  ``None`` starts RFC 6298 cold with
    #: ``rto = rto_initial_ns``.
    seed_rtt_ns: Optional[int] = None
    rto_initial_ns: int = 1 * SEC
    #: Receive window advertised by the peer.  Large enough to never bind in
    #: the paper's experiments (flows are at most a few MB).
    rwnd_bytes: int = 4 * 1024 * 1024
    #: Linux ``tcp_slow_start_after_idle`` (default on): when the connection
    #: has been application-idle for more than one RTO, cwnd is decayed by a
    #: halving per idle RTO, floored at the initial window.  On persistent
    #: incast connections this is what stops a flow that finished its
    #: response early (and grew cwnd against an empty network) from opening
    #: the next round with a stale multi-packet burst.
    slow_start_after_idle: bool = True
    #: RFC 3042 Limited Transmit: send one new segment on each of the first
    #: two duplicate ACKs, improving loss recovery for tiny windows (the
    #: LAck-TO regime).  Off by default to match the calibrated incast
    #: dynamics; see DESIGN.md.
    limited_transmit: bool = False

    def __post_init__(self) -> None:
        if self.mss <= 0:
            raise ValueError(f"mss must be positive, got {self.mss}")
        if self.init_cwnd_mss <= 0:
            raise ValueError("initial cwnd must be positive")
        if self.min_cwnd_mss <= 0:
            raise ValueError("cwnd floor must be positive")
        if not 0.0 < self.dctcp_g <= 1.0:
            raise ValueError(f"dctcp_g must be in (0, 1], got {self.dctcp_g}")
        if self.dupack_threshold < 1:
            raise ValueError("dupack threshold must be >= 1")
        if self.rto_min_ns <= 0 or self.rto_max_ns < self.rto_min_ns:
            raise ValueError("invalid RTO bounds")

    # Convenience byte-denominated views -------------------------------------
    # Computed on first read and stored on the object, which is frozen and
    # shared by every sender of a workload: later reads are plain attribute
    # hits, no call per sender or per ACK.
    @cached_property
    def init_cwnd_bytes(self) -> float:
        return self.init_cwnd_mss * self.mss

    @cached_property
    def min_cwnd_bytes(self) -> float:
        return self.min_cwnd_mss * self.mss

    @cached_property
    def timeout_cwnd_bytes(self) -> float:
        return self.timeout_cwnd_mss * self.mss

    @cached_property
    def init_ssthresh_bytes(self) -> float:
        return self.init_ssthresh_mss * self.mss

    @cached_property
    def _derived(self) -> Dict[tuple, "TcpConfig"]:
        """Copies :meth:`with_overrides` has already made of this object.
        Not a field: outside ``==``, ``hash``, ``repr`` and ``replace``."""
        return {}

    def with_overrides(self, **kwargs) -> "TcpConfig":
        """Return a copy with the given fields replaced.

        Memoised per object: asking the same config for the same overrides
        returns the same (frozen) copy, so the per-sender rules that force
        ECN or the cwnd floor resolve to one object per protocol.
        """
        memo = self._derived
        key = tuple(kwargs.items())
        derived = memo.get(key)
        if derived is None:
            derived = memo[key] = replace(self, **kwargs)
        return derived
