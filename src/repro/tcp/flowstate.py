"""The flow ledger: struct-of-arrays storage for per-flow hot counters.

Every ACK and every data segment touches a handful of per-flow counters —
the congestion window, the unacked byte range, dup-ack state, DCTCP's
alpha accumulators, the receiver's reassembly cursor.  The ledger moves
exactly those counters out of endpoint instance dicts into preallocated
parallel columns owned by the simulator (``sim.flows``), indexed by a
small integer **slot** handed out at endpoint registration.

The endpoints (:class:`~repro.tcp.sender.TcpSender`,
:class:`~repro.tcp.receiver.TcpReceiver` and their subclasses) become
thin views: each keeps its slot plus compatibility *properties* (``cwnd``,
``snd_una``, ``alpha`` …) that read/write the columns, so subclasses, the
invariant checker, metrics collectors and tests keep their attribute-style
access unchanged — the ``CongestionControl`` registry API is untouched.
Hot methods bypass the properties and bind the columns to locals.

Columns grow **in place** by doubling (``extend`` — never reassignment),
the growth invariant of :class:`~repro.net.pool.PacketPool`, so column
references bound at endpoint construction stay valid for the simulation's
lifetime.  A column is longer than ``slots``: only the first ``slots``
entries belong to endpoints, the rest are zeros waiting to be claimed.
"""

from __future__ import annotations

from typing import List

#: Initial number of ledger slots; grows by doubling.
DEFAULT_CAPACITY = 64

#: The columns whose zero is ``0.0`` (the rest count in whole ints).
_FLOAT_COLUMNS = frozenset(("cwnd", "ssthresh", "ca_bytes_acked", "alpha"))


class FlowLedger:
    """Parallel per-flow counter columns; one slot per registered endpoint."""

    __slots__ = (
        # sender columns
        "cwnd",
        "ssthresh",
        "snd_una",
        "snd_nxt",
        "dupacks",
        "ca_bytes_acked",
        # DCTCP window-of-data accumulators
        "alpha",
        "win_end_seq",
        "win_bytes_acked",
        "win_bytes_marked",
        "win_saw_ece",
        # receiver columns
        "rcv_nxt",
        "bytes_delivered",
        "pending_segments",
        "ce_state",
        "slots",
        "capacity",
    )

    #: Every column, in declaration order (all slots but ``slots`` and ``capacity``).
    COLUMNS = __slots__[:-2]

    def __init__(self):
        capacity = DEFAULT_CAPACITY
        self.cwnd: List[float] = [0.0] * capacity
        self.ssthresh: List[float] = [0.0] * capacity
        self.snd_una: List[int] = [0] * capacity
        self.snd_nxt: List[int] = [0] * capacity
        self.dupacks: List[int] = [0] * capacity
        self.ca_bytes_acked: List[float] = [0.0] * capacity
        self.alpha: List[float] = [0.0] * capacity
        self.win_end_seq: List[int] = [0] * capacity
        self.win_bytes_acked: List[int] = [0] * capacity
        self.win_bytes_marked: List[int] = [0] * capacity
        self.win_saw_ece: List[int] = [0] * capacity
        self.rcv_nxt: List[int] = [0] * capacity
        self.bytes_delivered: List[int] = [0] * capacity
        self.pending_segments: List[int] = [0] * capacity
        self.ce_state: List[int] = [0] * capacity
        self.slots = 0
        self.capacity = capacity

    @classmethod
    def of(cls, sim) -> "FlowLedger":
        """The simulator's ledger, created (and attached) on first use."""
        flows = sim.flows
        if flows is None:
            flows = sim.flows = cls()
        return flows

    def _grow(self) -> None:
        """Double every column **in place**; bound column refs stay valid."""
        old = self.capacity
        for name in self.COLUMNS:
            getattr(self, name).extend([0.0 if name in _FLOAT_COLUMNS else 0] * old)
        self.capacity = old * 2

    def register(self, cwnd: float = 0.0, ssthresh: float = 0.0) -> int:
        """Claim a fresh slot (one per endpoint): a sender's opening window
        and threshold, every other counter zero.  Slots are never reused, so
        an unclaimed slot still holds the zeros growth filled it with."""
        slot = self.slots
        if slot == self.capacity:
            self._grow()
        self.slots = slot + 1
        self.cwnd[slot] = cwnd
        self.ssthresh[slot] = ssthresh
        return slot

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"FlowLedger({self.slots} slots)"


def ledger_field(column: str):
    """Compatibility property reading/writing one ledger column.

    Installed on endpoint classes for every counter the ledger owns, so
    ``sender.cwnd`` (subclasses, checker, metrics, tests) keeps working
    while the storage lives in ``sim.flows``.
    """

    def _get(self):
        return getattr(self._fl, column)[self._slot]

    def _set(self, value):
        getattr(self._fl, column)[self._slot] = value

    return property(_get, _set)


def ledger_flag(column: str):
    """Like :func:`ledger_field` but presenting an int column as a bool."""

    def _get(self):
        return bool(getattr(self._fl, column)[self._slot])

    def _set(self, value):
        getattr(self._fl, column)[self._slot] = 1 if value else 0

    return property(_get, _set)
