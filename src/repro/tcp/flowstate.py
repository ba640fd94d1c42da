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

Columns grow by ``append`` only (never reassignment), so column references
bound at endpoint construction stay valid for the simulation's lifetime.
"""

from __future__ import annotations

from typing import List


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
    )

    def __init__(self):
        self.cwnd: List[float] = []
        self.ssthresh: List[float] = []
        self.snd_una: List[int] = []
        self.snd_nxt: List[int] = []
        self.dupacks: List[int] = []
        self.ca_bytes_acked: List[float] = []
        self.alpha: List[float] = []
        self.win_end_seq: List[int] = []
        self.win_bytes_acked: List[int] = []
        self.win_bytes_marked: List[int] = []
        self.win_saw_ece: List[int] = []
        self.rcv_nxt: List[int] = []
        self.bytes_delivered: List[int] = []
        self.pending_segments: List[int] = []
        self.ce_state: List[int] = []
        self.slots = 0

    @classmethod
    def of(cls, sim) -> "FlowLedger":
        """The simulator's ledger, created (and attached) on first use."""
        flows = sim.flows
        if flows is None:
            flows = sim.flows = cls()
        return flows

    def register(self, cwnd: float = 0.0, ssthresh: float = 0.0) -> int:
        """Claim a fresh slot (one per endpoint): a sender's opening window
        and threshold, every other counter zero."""
        slot = self.slots
        self.slots = slot + 1
        self.cwnd.append(cwnd)
        self.ssthresh.append(ssthresh)
        self.snd_una.append(0)
        self.snd_nxt.append(0)
        self.dupacks.append(0)
        self.ca_bytes_acked.append(0.0)
        self.alpha.append(0.0)
        self.win_end_seq.append(0)
        self.win_bytes_acked.append(0)
        self.win_bytes_marked.append(0)
        self.win_saw_ece.append(0)
        self.rcv_nxt.append(0)
        self.bytes_delivered.append(0)
        self.pending_segments.append(0)
        self.ce_state.append(0)
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
