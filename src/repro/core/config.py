"""DCTCP+ configuration (paper Section V.C/V.D parameter guidance).

:class:`DctcpPlusConfig` is frozen: one object is shared by every sender
of a workload, so a field assigned through one sender would silently
change all the others — derive a variant with
:meth:`DctcpPlusConfig.with_overrides` instead.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from typing import Dict

from ..sim.units import US


@dataclass(frozen=True)
class DctcpPlusConfig:
    """Knobs of the slow_time regulation law (Algorithm 1).

    The paper's guidance:

    - ``backoff_time_unit``: use the **baseline RTT** (~100 µs on their
      testbed; 100 µs is also quoted as the default).  Too large wastes
      bandwidth; too small fails to relieve the fan-in congestion.
    - ``divisor_factor``: 2.  Too large recovers prematurely; too small
      retards the rate recovery.
    - ``randomize``: the desynchronization mechanism.  The paper's
      "partially implemented DCTCP+" (Fig. 6) disables it and collapses
      past ~100 flows; the full protocol keeps it on.
    - ``threshold_T``: unspecified in the paper; we default to a quarter of
      the backoff unit so a congestion-free flow exits through TIME_DES in
      a couple of ACKs (see DESIGN.md §6).

    The cwnd floor (1 MSS, paper footnote 3) is a transport knob of
    :class:`repro.tcp.config.TcpConfig`, resolved by
    :func:`repro.workloads.protocols.spec_for`.
    """

    backoff_time_unit_ns: int = 100 * US
    #: How the backoff unit tracks the path.  The paper says "we choose to
    #: use the baseline RTT as the backoff time unit"; in a kernel the
    #: available quantity is the connection's smoothed RTT estimate, which
    #: equals the baseline RTT on an idle path and inflates with queueing
    #: delay under fan-in congestion.  ``"fixed"`` (the default, and the
    #: paper's recommendation) always uses ``backoff_time_unit_ns``.
    #: ``"srtt"`` draws each increment from U(0, max(srtt,
    #: backoff_time_unit_ns)) — small nudges at low fan-in, ms-scale
    #: backoff when hundreds of flows inflate the RTT; it has fewer bad
    #: rounds but lower goodput in EXPERIMENTS.md's 8-seed scan.
    backoff_unit_mode: str = "fixed"
    divisor_factor: float = 2.0
    threshold_t_ns: int = 25 * US
    randomize: bool = True
    #: Minimum spacing between consecutive multiplicative decreases of
    #: slow_time.  Fig. 4 guards the relaxation path with a *time*
    #: threshold "to guarantee the relatively smooth regulation of the
    #: sending rate"; pacing the decay by one baseline RTT keeps a burst of
    #: clean ACKs (e.g. the drain after a round barrier) from collapsing
    #: slow_time in a single RTT.  0 decays on every clean ACK.
    decay_interval_ns: int = 100 * US

    def __post_init__(self) -> None:
        if self.backoff_time_unit_ns <= 0:
            raise ValueError("backoff_time_unit must be positive")
        if self.backoff_unit_mode not in ("fixed", "srtt"):
            raise ValueError(
                f"backoff_unit_mode must be 'fixed' or 'srtt', got {self.backoff_unit_mode!r}"
            )
        if self.divisor_factor <= 1.0:
            raise ValueError(
                f"divisor_factor must exceed 1 (got {self.divisor_factor}); "
                "values <= 1 would never shrink slow_time"
            )
        if self.threshold_t_ns < 0:
            raise ValueError("threshold_T must be non-negative")
        if self.decay_interval_ns < 0:
            # A negative interval would make the rate limiter's "now - last
            # >= interval" test vacuously true — silently decaying on every
            # clean ACK instead of flagging the bad config.
            raise ValueError("decay_interval must be non-negative")

    @cached_property
    def _derived(self) -> Dict[tuple, "DctcpPlusConfig"]:
        """Copies :meth:`with_overrides` has already made of this object.
        Not a field: outside ``==``, ``hash``, ``repr`` and ``replace``."""
        return {}

    def with_overrides(self, **kwargs) -> "DctcpPlusConfig":
        """Return a copy with the given fields replaced, memoised per object
        (the same overrides asked of the same config return the same copy)."""
        memo = self._derived
        key = tuple(kwargs.items())
        derived = memo.get(key)
        if derived is None:
            derived = memo[key] = replace(self, **kwargs)
        return derived
