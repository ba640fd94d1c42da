"""DCTCP congestion control (Alizadeh et al., SIGCOMM 2010).

Extends the New Reno sender with the two DCTCP equations the paper builds
on:

    alpha <- (1 - g) * alpha + g * F          (Eq. 1)
    W     <- W * (1 - alpha / 2),  W >= floor (Eq. 2)

``F`` is the fraction of ACKed bytes whose ACKs carried ECN-Echo during
the last window of data (~one RTT).  The window reduction is applied at
most once per window, at the window boundary, iff any mark was seen in
that window — the behaviour of the reference Linux implementation.

Loss handling (fast retransmit, RTO) is inherited unchanged from New Reno:
DCTCP reacts to packet loss exactly like TCP.

The alpha/window-of-data accumulators are flow-ledger columns (they are
touched on every ACK); the properties below preserve the attribute API
(``sender.alpha`` etc.) for subclasses, experiments and tests.
"""

from __future__ import annotations

from typing import Callable, Optional

from ..net.host import Host
from ..sim.engine import Simulator
from .config import TcpConfig
from .events import CCEvent
from .flowstate import ledger_field, ledger_flag
from .flowstats import FlowStats
from .sender import TcpSender


class DctcpSender(TcpSender):
    """TCP New Reno + DCTCP ECN reaction."""

    alpha = ledger_field("alpha")
    _win_end_seq = ledger_field("win_end_seq")
    _win_bytes_acked = ledger_field("win_bytes_acked")
    _win_bytes_marked = ledger_field("win_bytes_marked")
    _win_saw_ece = ledger_flag("win_saw_ece")

    def __init__(
        self,
        sim: Simulator,
        host: Host,
        dst_node_id: int,
        flow_id: int,
        config: Optional[TcpConfig] = None,
        stats: Optional[FlowStats] = None,
        on_complete: Optional[Callable[[TcpSender], None]] = None,
    ):
        config = config or TcpConfig()
        if not config.ecn_enabled:
            config = config.with_overrides(ecn_enabled=True)
        super().__init__(sim, host, dst_node_id, flow_id, config, stats, on_complete)
        # The window-of-data accumulators start at the ledger slot's zero;
        # alpha is written to its column (no compatibility-property call).
        self._fl.alpha[self._slot] = config.dctcp_alpha_init
        #: number of times Eq. (2) was applied (instrumentation)
        self.ecn_reductions = 0
        #: number of times Eq. (2) wanted to reduce but cwnd was already at
        #: the floor — the "incapable" case of Section IV.B.
        self.floor_limited_reductions = 0

    # -- DCTCP marked-fraction bookkeeping --------------------------------------
    def on_ack(self, ev: CCEvent) -> None:
        fl = self._fl
        slot = self._slot
        newly_acked = ev.newly_acked
        fl.win_bytes_acked[slot] += newly_acked
        if ev.ece:
            fl.win_bytes_marked[slot] += newly_acked
            fl.win_saw_ece[slot] = 1
        super().on_ack(ev)
        if fl.snd_una[slot] >= fl.win_end_seq[slot]:
            self._end_of_window()

    def _end_of_window(self) -> None:
        cfg = self.config
        fl = self._fl
        slot = self._slot
        acked = fl.win_bytes_acked[slot]
        if acked > 0:
            fraction = fl.win_bytes_marked[slot] / acked
            fl.alpha[slot] = (1.0 - cfg.dctcp_g) * fl.alpha[slot] + cfg.dctcp_g * fraction
        if fl.win_saw_ece[slot]:
            floor = cfg.min_cwnd_bytes
            cwnd = fl.cwnd[slot]
            # Kernel semantics: the multiplicative decrease is computed in
            # integer packets (floor division), so cwnd=2 with any marking
            # drops to the next integer below 2 - alpha, i.e. straight to
            # the floor.
            penalty = self._reduction_penalty()
            target = self._quantize_down(cwnd * (1.0 - penalty / 2.0), floor)
            if target <= floor and cwnd <= floor:
                # Eq. (2) clamps: the sender *cannot* slow down further
                # despite ECN feedback (root cause #1 in the paper).
                self.floor_limited_reductions += 1
            if target < cwnd:
                self.ecn_reductions += 1
            fl.cwnd[slot] = target
            fl.ssthresh[slot] = max(target, floor)
            fl.ca_bytes_acked[slot] = 0.0
        fl.win_end_seq[slot] = fl.snd_nxt[slot]
        fl.win_bytes_acked[slot] = 0
        fl.win_bytes_marked[slot] = 0
        fl.win_saw_ece[slot] = 0

    def _reduction_penalty(self) -> float:
        """Backoff factor ``p`` in ``W <- W(1 - p/2)``.

        Plain DCTCP uses ``alpha``; deadline-aware variants (D2TCP)
        override this with the gamma-corrected ``alpha ** d``.
        """
        return self.alpha

    def on_rto(self, ev: CCEvent) -> None:
        # A whole window was lost; restart the marking observation window at
        # the retransmission point so stale mark counts don't leak in.
        self._win_end_seq = self.snd_una
        self._win_bytes_acked = 0
        self._win_bytes_marked = 0
        self._win_saw_ece = False
        super().on_rto(ev)
