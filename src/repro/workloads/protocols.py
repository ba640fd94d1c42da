"""Named protocol bundles over the congestion-control registry.

A :class:`ProtocolSpec` pairs a registered
:class:`~repro.tcp.cc.CongestionControl` strategy with its configuration
(:class:`~repro.tcp.config.TcpConfig` + the slow_time law's
:class:`~repro.core.config.DctcpPlusConfig`).  Dispatch — which sender
class, whether the plus config applies, the display label — lives in the
registry (:mod:`repro.tcp.cc`), so adding a competitor is a registration,
not a new branch here.

The paper's four variants:

- ``"tcp"``        — TCP New Reno, no ECN (the paper's TCP baseline).
- ``"dctcp"``      — DCTCP.
- ``"dctcp+"``     — full DCTCP+ (randomized slow_time).
- ``"dctcp+norand"`` — "partially implemented DCTCP+" (Fig. 6): slow_time
  regulation without the desynchronizing randomization.

Section VII extensions (the enhancement coalesced with other transports):

- ``"tcp+"``   — New Reno + slow_time regulation (loss-channel driven).
- ``"d2tcp"``  — deadline-aware DCTCP (Vamanan et al.).
- ``"d2tcp+"`` — D2TCP carrying the slow_time enhancement.

Arena competitors from PAPERS.md:

- ``"pulser"`` — explicit incast-onset notification (arXiv:1809.09751).
- ``"tbtcp"``  — tiny-buffer pacing + capped window (arXiv:1909.05392).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Optional

from ..core.config import DctcpPlusConfig
from ..net.host import Host
from ..net.topology import TwoTierTree
from ..sim.engine import Simulator
from ..tcp.cc import cc_names, get_cc
from ..tcp.config import TcpConfig
from ..tcp.sender import TcpSender

#: All registered strategy names at import time, in registration order.
#: Kept as a module constant for parametrized tests and the fuzzer; new
#: registrations after import are still reachable through spec_for/get_cc.
PROTOCOLS = cc_names()

#: The cwnd floor of slow_time strategies: paper footnote 3 lowers it to
#: 1 MSS "for a smoother rate change".
_SLOW_TIME_MIN_CWND_MSS = 1.0


@dataclass
class ProtocolSpec:
    """A named protocol plus its configuration."""

    name: str
    tcp_config: TcpConfig = field(default_factory=TcpConfig)
    plus_config: DctcpPlusConfig = field(default_factory=DctcpPlusConfig)

    def __post_init__(self) -> None:
        self.cc = get_cc(self.name)  # raises on unknown names
        if self.name == "dctcp+norand":
            self.plus_config = self.plus_config.with_overrides(randomize=False)

    @property
    def is_plus(self) -> bool:
        """Whether the slow_time enhancement mechanism is active."""
        return self.cc.slow_time

    @property
    def label(self) -> str:
        """Display name matching the paper's figures."""
        return self.cc.label

    def seeded_for(self, tree: TwoTierTree) -> "ProtocolSpec":
        """This spec with the RTT estimator seeded for ``tree``.

        Workloads model persistent connections, which have already measured
        the path: senders start from the tree's baseline RTT unless the spec
        carries an explicit seed.  ``self`` is never modified, so one spec
        can serve several trees.
        """
        if self.tcp_config.seed_rtt_ns is not None:
            return self
        seeded = self.tcp_config.with_overrides(seed_rtt_ns=tree.baseline_rtt_ns())
        return replace(self, tcp_config=seeded)

    def install_network(self, tree: TwoTierTree) -> None:
        """Run the strategy's network-side hook (if any) on a built tree."""
        if self.cc.install_network is not None:
            self.cc.install_network(tree)

    def make_sender(
        self,
        sim: Simulator,
        host: Host,
        dst_node_id: int,
        flow_id: int,
        on_complete: Optional[Callable[[TcpSender], None]] = None,
        deadline_ns: Optional[int] = None,
    ) -> TcpSender:
        """Instantiate the sender endpoint for this protocol.

        ``deadline_ns`` is honoured by the deadline-aware variants and
        ignored by the rest.
        """
        return self.cc.build(
            sim,
            host,
            dst_node_id,
            flow_id,
            tcp_config=self.tcp_config,
            plus_config=self.plus_config,
            on_complete=on_complete,
            deadline_ns=deadline_ns,
        )


def spec_for(
    name: str,
    tcp_overrides: Optional[dict] = None,
    plus_overrides: Optional[dict] = None,
) -> ProtocolSpec:
    """Build a :class:`ProtocolSpec` with optional config overrides.

    This is where the cwnd floor is resolved, the last point that knows
    which fields were set explicitly: a slow_time strategy whose caller
    left ``min_cwnd_mss`` unset runs at 1 MSS (paper footnote 3), every
    other strategy at the :class:`TcpConfig` default.  ``ecn_enabled``
    defaults to the strategy's own ECN stance, so its senders take the
    shared config as it is instead of re-deriving it per flow.
    """
    cc = get_cc(name)
    tcp_overrides = dict(tcp_overrides or {})
    if cc.slow_time and "min_cwnd_mss" not in tcp_overrides:
        tcp_overrides["min_cwnd_mss"] = _SLOW_TIME_MIN_CWND_MSS
    tcp_overrides.setdefault("ecn_enabled", cc.ecn)
    return ProtocolSpec(
        name, TcpConfig(**tcp_overrides), DctcpPlusConfig(**(plus_overrides or {}))
    )
