"""TCP New Reno carrying the slow_time enhancement ("TCP⁺").

Section VII of the paper proposes coalescing the enhancement mechanism
with plain TCP.  Without ECN there is no per-ACK congestion bit, so the
state machine's congestion evidence reduces to the loss channel: an RTO
and the ACKs that arrive while its go-back-N retransmissions are
outstanding (the kernel CA_Loss reading used for DCTCP⁺), plus the entry
condition that cwnd has collapsed to its floor.

This cannot match DCTCP⁺ — losses are a far coarser signal than marks —
but it demonstrates the mechanism's portability and measurably softens
TCP's incast behaviour at moderate fan-in.
"""

from __future__ import annotations

from ..tcp.sender import TcpSender
from .slow_time import SlowTimeMixin


class RenoPlusSender(SlowTimeMixin, TcpSender):
    """TCP New Reno + slow_time regulation driven by the loss channel."""

    stream_label = "tcp+"
    ecn = False
