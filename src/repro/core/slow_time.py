"""The slow_time enhancement as a mixin over any window-based sender.

The paper's contribution is one small mechanism (its kernel patch is
<100 LoC over DCTCP), and Section VII argues it drops unchanged onto
other transports.  :class:`SlowTimeMixin` is that mechanism, written
once; a protocol carrying it is a class statement naming the transport
underneath::

    class DctcpPlusSender(SlowTimeMixin, DctcpSender): ...   # the paper
    class RenoPlusSender(SlowTimeMixin, TcpSender): ...      # Section VII

It adds exactly two things to the base sender:

1. the :class:`~repro.core.state_machine.SlowTimeStateMachine`, fed by
   every ACK (``statuses_evolution()`` in the paper is invoked per ACK),
   plus RTO retransmissions;
2. the :class:`~repro.core.pacer.SlowTimePacer`, gating data departures
   by ``slow_time`` while the machine is out of NORMAL.

The cwnd floor is the transport config's, resolved in one place,
:func:`~repro.workloads.protocols.spec_for` (1 MSS for slow_time
strategies, paper footnote 3, unless set explicitly).  A sender built
directly runs whatever floor its :class:`TcpConfig` holds.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Optional

from ..net.host import Host
from ..sim.engine import Simulator
from ..tcp.config import TcpConfig
from ..tcp.events import CC_ACK_ECHO, CCEvent
from ..tcp.flowstats import FlowStats
from ..tcp.sender import TcpSender
from .config import DctcpPlusConfig
from .pacer import SlowTimePacer
from .state_machine import SlowTimeStateMachine
from .states import DctcpPlusState


class SlowTimeMixin:
    """slow_time regulation + sending-time desynchronization."""

    #: The machine draws its randomness from the simulator stream
    #: ``"<stream_label>/<seq>"``.
    stream_label: str
    #: ECN stance of the transport underneath: with ECN the machine's
    #: congestion evidence includes ECE-marked ACKs; without it only the
    #: loss channel (an RTO and the ACKs of its go-back-N recovery) remains.
    ecn: bool

    def __init__(
        self,
        sim: Simulator,
        host: Host,
        dst_node_id: int,
        flow_id: int,
        config: Optional[TcpConfig] = None,
        plus_config: Optional[DctcpPlusConfig] = None,
        stats: Optional[FlowStats] = None,
        on_complete: Optional[Callable[[TcpSender], None]] = None,
    ):
        self.plus_config = plus_config or DctcpPlusConfig()
        config = config or TcpConfig()
        if config.ecn_enabled != self.ecn:
            config = config.with_overrides(ecn_enabled=self.ecn)
        super().__init__(sim, host, dst_node_id, flow_id, config, stats, on_complete)
        self.machine = SlowTimeStateMachine(self.plus_config)
        # The stream's name is fixed here, by construction order; the
        # generator (2.5 KiB of Mersenne state) is opened by the machine's
        # first draw, which a flow that never parks at the floor never makes.
        self.machine.rng_source = partial(sim.stream, f"{self.stream_label}/{sim.next_sequence()}")
        if self.plus_config.backoff_unit_mode == "srtt":
            self.machine.unit_source = self._srtt_unit
        self.pacer = SlowTimePacer(self.machine)
        #: set when an RTO fired and its retransmission is outstanding, so
        #: the next ``statuses_evolution`` input counts as congestion
        #: ("retrans" arc in Fig. 4) even if the ACK carries no ECE.
        self._retrans_pending = False
        hooks = sim.hooks
        if hooks is not None:
            hooks.machine_created(self.machine, self)

    def _srtt_unit(self):
        """Live backoff unit for ``backoff_unit_mode='srtt'``: the smoothed
        RTT estimate, which tracks queueing delay under fan-in."""
        srtt = self.rtt.srtt_ns
        return int(srtt) if srtt is not None else None

    # -- state machine inputs ----------------------------------------------------
    def on_ecn_echo(self, ev: CCEvent) -> None:
        if ev.kind is not CC_ACK_ECHO:
            super().on_ecn_echo(ev)
            return
        # Fig. 4's "retrans" condition, kernel reading: the sender is in
        # loss recovery after a timeout (CA_Loss) — every ACK while the
        # retransmitted window drains counts as congestion evidence, not
        # just the ACK that follows the first resend.  (Without ECN no
        # packet is ECT, so ``ev.ece`` is never set and this reduces to
        # the loss channel.)
        congested = ev.ece or self._retrans_pending or self.in_rto_recovery
        if congested:
            # Fig. 4: only the NORMAL -> Time_Inc entry requires cwnd at the
            # minimum; once engaged, *any* ECE-marked ACK (or a timeout
            # retransmission) keeps growing slow_time, even if cwnd has
            # crept above the floor.
            if self.machine.state is not DctcpPlusState.NORMAL or self._cwnd_at_floor:
                self.machine.on_congestion_event()
            # NORMAL with cwnd above the floor: plain window control is
            # still responsive; the machine stays in NORMAL.
        else:
            self.machine.on_clean_ack(ev.time_ns)
        self._retrans_pending = False
        super().on_ecn_echo(ev)

    def on_rto(self, ev: CCEvent) -> None:
        super().on_rto(ev)
        # The timeout retransmission itself is the "retrans" congestion
        # signal; register it immediately so the pacer spaces the go-back-N
        # resends, and remember it for the next ACK's evaluation.
        self._retrans_pending = True
        if self._cwnd_at_floor:
            self.machine.on_congestion_event()

    # -- views --------------------------------------------------------------------
    @property
    def state(self) -> DctcpPlusState:
        return self.machine.state

    @property
    def slow_time_ns(self) -> int:
        return self.machine.slow_time_ns
