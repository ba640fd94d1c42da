"""One documented namespace for every protocol configuration surface.

The package grew two overlapping config dataclasses — the transport
knobs in :class:`repro.tcp.config.TcpConfig` and the slow_time law in
:class:`repro.core.config.DctcpPlusConfig` — plus the per-protocol
bundle :class:`repro.workloads.protocols.ProtocolSpec` that wires both
into a sender factory.  This module re-exports all of them (the classes
*are* the originals, not copies, so old import paths keep working and
``isinstance`` checks never split) and documents how they compose:

- :class:`TcpConfig` — per-sender transport tunables (MSS, cwnd bounds,
  RTO, ECN, DCTCP's ``g``).  Every sender takes one.
- :class:`DctcpPlusConfig` — the slow_time regulation law (backoff unit,
  divisor, threshold_T, randomization).  Only senders carrying the
  slow_time mixin (DCTCP+/TCP+/D2TCP+) take one, alongside their
  :class:`TcpConfig`.
- :class:`ProtocolSpec` / :func:`spec_for` — a named bundle mapping a
  protocol string ("dctcp+", "tcp", ...) to a sender factory plus its
  default config pair; what scenario specs and workloads consume.

Both config dataclasses are **frozen**: the senders of a workload all read
the same two objects (4096 flows, one :class:`TcpConfig`), so a field is
never assigned after construction.  ``with_overrides`` derives a validated
variant and is memoised per object, which is how the per-sender rules
below resolve to one shared config per protocol rather than a copy each.

Overlap rule (``min_cwnd_mss``): both dataclasses carry a cwnd-floor
field.  The transport-level :attr:`TcpConfig.min_cwnd_mss` (default 2,
Eq. (2)'s ``W >= 2``) is what the sender enforces; DCTCP+'s
:attr:`DctcpPlusConfig.min_cwnd_mss` (default 1, paper footnote 3) is
the *protocol's choice* for that floor, and every slow_time sender
applies it in one place, :class:`repro.core.slow_time.SlowTimeMixin`,
by overriding the transport config::

    config = (config or TcpConfig()).with_overrides(
        min_cwnd_mss=plus_config.min_cwnd_mss, ...
    )

So that the transport knob is not silently inert there, :func:`spec_for`
carries an explicitly set ``tcp_overrides["min_cwnd_mss"]`` over to the
plus config for slow_time strategies, and raises ``ValueError`` when both
floors are set to different values.

:func:`effective_tcp_config` exposes that composition for callers who
want the resolved transport config without building a sender.
"""

from __future__ import annotations

from typing import Optional

from .core.config import DctcpPlusConfig
from .tcp.cc import CongestionControl, cc_labels, cc_names, get_cc, register
from .tcp.config import TcpConfig
from .workloads.protocols import ProtocolSpec, spec_for

__all__ = [
    "TcpConfig",
    "DctcpPlusConfig",
    "ProtocolSpec",
    "spec_for",
    "CongestionControl",
    "register",
    "get_cc",
    "cc_names",
    "cc_labels",
    "effective_tcp_config",
]


def effective_tcp_config(
    tcp: Optional[TcpConfig] = None,
    plus: Optional[DctcpPlusConfig] = None,
    *,
    cc: Optional[str] = None,
    ecn_enabled: Optional[bool] = None,
) -> TcpConfig:
    """The transport config a sender of strategy ``cc`` would actually run with.

    Applies the same precedence as the sender constructors: the plus
    config's ``min_cwnd_mss`` overrides the transport floor (only for
    strategies that actually run the slow_time law, when ``cc`` is given),
    and the ECN stance comes from the strategy's registration —
    ``ecn_enabled`` (when given) still wins, for callers modelling a
    hypothetical stance.
    """
    tcp = tcp or TcpConfig()
    strategy = get_cc(cc) if cc is not None else None
    if plus is not None and (strategy is None or strategy.slow_time):
        tcp = tcp.with_overrides(min_cwnd_mss=plus.min_cwnd_mss)
    if ecn_enabled is None and strategy is not None:
        ecn_enabled = strategy.ecn
    if ecn_enabled is not None:
        tcp = tcp.with_overrides(ecn_enabled=ecn_enabled)
    return tcp
