"""The sender host for external (scripted / agent-driven) policies.

:class:`ExternalPolicySender` is the one sender class behind every
``external:<policy>`` strategy: a :class:`~repro.tcp.dctcp.DctcpSender`
whose four CC event methods forward to a bound
:class:`~repro.control.policies.ExternalPolicy` instance.  The host owns
the transport machinery (ledger slot, retransmission, DCTCP marked-byte
bookkeeping); the policy owns the decisions.

Construction mirrors the builtin plus-family senders: the cwnd floor is
the transport config's, resolved by
:func:`~repro.workloads.protocols.spec_for` from the strategy's
``slow_time`` flag (as for :class:`~repro.core.dctcp_plus.DctcpPlusSender`),
and ``policy.bind`` runs *after* the base ``__init__`` — the program
point where builtin subclasses create their per-flow machinery, which
keeps any RNG stream draws at identical ``next_sequence`` offsets.

:func:`make_external_sender` gives ``deadline_aware`` policies the
:class:`DeadlineExternalPolicySender` host (D2TCP's deadline mixin on
top), so a sender answers ``set_deadline`` exactly when its flag says so.
"""

from __future__ import annotations

from typing import Callable, Optional

from ..core.config import DctcpPlusConfig
from ..net.host import Host
from ..sim.engine import Simulator
from ..tcp.config import TcpConfig
from ..tcp.d2tcp import DeadlineMixin
from ..tcp.dctcp import DctcpSender
from ..tcp.events import CCEvent
from ..tcp.flowstats import FlowStats
from ..tcp.sender import TcpSender
from .policies import ExternalPolicy


class ExternalPolicySender(DctcpSender):
    """DCTCP transport with congestion decisions delegated to a policy."""

    def __init__(
        self,
        sim: Simulator,
        host: Host,
        dst_node_id: int,
        flow_id: int,
        policy: ExternalPolicy,
        config: Optional[TcpConfig] = None,
        plus_config: Optional[DctcpPlusConfig] = None,
        stats: Optional[FlowStats] = None,
        on_complete: Optional[Callable[[TcpSender], None]] = None,
    ):
        self.policy = policy
        self.plus_config = plus_config or DctcpPlusConfig()
        super().__init__(sim, host, dst_node_id, flow_id, config, stats, on_complete)
        policy.bind(self)

    # -- CC event surface: forward everything to the policy ----------------------
    def on_ack(self, ev: CCEvent) -> None:
        self.policy.on_ack(self, ev)

    def on_ecn_echo(self, ev: CCEvent) -> None:
        self.policy.on_ecn_echo(self, ev)

    def on_rto(self, ev: CCEvent) -> None:
        self.policy.on_rto(self, ev)

    def on_send_opportunity(self, ev: CCEvent) -> int:
        return self.policy.on_send_opportunity(self, ev)

    def _reduction_penalty(self) -> float:
        return self.policy.reduction_penalty(self)


class DeadlineExternalPolicySender(DeadlineMixin, ExternalPolicySender):
    """The host for ``deadline_aware`` policies: adds the deadline surface."""


def make_external_sender(
    policy: ExternalPolicy, *args, deadline_ns: Optional[int] = None, **kwargs
) -> ExternalPolicySender:
    """Build the host ``policy`` declares: deadline-aware or plain."""
    if policy.deadline_aware:
        return DeadlineExternalPolicySender(
            *args, policy=policy, deadline_ns=deadline_ns, **kwargs
        )
    return ExternalPolicySender(*args, policy=policy, **kwargs)
