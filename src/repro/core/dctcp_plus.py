"""DCTCP+ — the paper's contribution.

``DctcpPlusSender`` is a :class:`~repro.tcp.dctcp.DctcpSender` carrying
the :class:`~repro.core.slow_time.SlowTimeMixin` and nothing else — the
paper's kernel patch is <100 LoC over DCTCP.  With ECN on, the state
machine's congestion evidence is every ECE-marked ACK plus the loss
channel.
"""

from __future__ import annotations

from ..tcp.dctcp import DctcpSender
from .slow_time import SlowTimeMixin


class DctcpPlusSender(SlowTimeMixin, DctcpSender):
    """DCTCP + slow_time regulation + sending-time desynchronization."""

    stream_label = "dctcp+"
    ecn = True
