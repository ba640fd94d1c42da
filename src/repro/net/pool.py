"""The packet flyweight pool: struct-of-arrays storage for packets in flight.

A packet is an integer **handle** indexing preallocated parallel columns —
one column per field, ``bytearray`` for the flag bits and liveness, Python
lists for the integer fields (measured faster than ``array('q')`` for the
read/write mix of this workload).  It is the simulator's only packet
representation: there is no per-packet object to construct or free.
Components on the hot path (:class:`~repro.net.port.OutputPort`,
:class:`~repro.net.queues.DropTailQueue`, :class:`~repro.net.link.Link`,
the TCP endpoints) bind the columns they touch once at construction and
then index them per packet.

Flag bits
---------
ECN field semantics follow RFC 3168 naming:

- ``F_ECT`` — the sender marked the packet ECN-capable (ECT codepoint).
- ``F_CE``  — a switch changed ECT to CE (Congestion Experienced).
- ``F_ECE`` — the receiver echoes CE back to the sender in ACKs (ECN-Echo).

``F_INC`` is the Pulser-style incast-onset bit (arXiv:1809.09751): a switch
stamps it on packets arriving past the incast threshold, the receiver
echoes it on ACKs, and incast-aware senders back off on the echo.  It is
always clear unless a scenario armed the detector.

Packet ids are numbered by the pool: the n-th allocation of a simulator's
pool gets id n (``allocated_total``) unless its caller passes one, never a
number from a process-global counter, which would make ids depend on
everything that ran earlier in the process, breaking run-to-run and
serial-vs-worker-pool reproducibility.

Handle lifecycle
----------------
``alloc_data`` / ``alloc_ack`` / ``alloc_control`` take a handle off the
freelist (growing the columns by doubling when it is empty) and
initialize the fields that packet kind uses.  Ownership travels with the
packet: whoever terminates the packet's journey frees the handle —

- the receiving endpoint, after copying the fields it needs to locals;
- a queue, when it drops the packet on overflow (after ``on_drop`` fires);
- a switch/host, for unroutable or undeliverable packets;
- a :class:`~repro.net.faults.FaultyLink`, for injected drops.

``free`` always verifies liveness, so a double free or a stale handle
raises :class:`PoolError` immediately instead of silently corrupting a
recycled packet (the same fail-fast contract the PR-3 event freelist
regression test established for events).

Columns grow **in place** (``extend`` — never reassignment), so column
references bound at component construction stay valid across growth.

The ``link`` column
-------------------
One integer column threads every handle list with no list object and no
call: a **free** handle's slot holds the next free handle (the freelist is
LIFO from ``_head``), and a **queued** handle's slot holds the next handle
in its port backlog (see :class:`~repro.net.queues.DropTailQueue`).  A
handle is never both, so one column serves both.  ``NIL`` ends a chain.
:meth:`PacketPool.chain` walks one, bounded by the capacity, so a corrupt
chain raises :class:`PoolError` instead of looping.

The pool is simulator-owned (``sim.pool``), created lazily by
:meth:`PacketPool.of` so the engine never imports the net layer.
"""

from __future__ import annotations

from typing import Iterator, List, Optional

#: Wire size of a full-MSS data frame: 1460 B payload + 40 B TCP/IP headers.
DEFAULT_MSS = 1460
HEADER_BYTES = 40
#: Wire size of a pure ACK (headers only, padded to minimum Ethernet frame).
ACK_BYTES = 64

#: ``packet_id`` of a slot no simulator has assigned one to.
UNASSIGNED_PACKET_ID = -1

#: Flag bits packed into the ``flags`` column (one byte per packet).
F_ACK = 1  #: pure ACK (no payload)
F_ECT = 2  #: ECN-capable transport (RFC 3168 ECT codepoint)
F_CE = 4  #: congestion experienced (set by a switch)
F_ECE = 8  #: ECN-echo (receiver -> sender, on ACKs)
F_INC = 16  #: Pulser-style incast-onset bit (arXiv:1809.09751)
F_RETX = 32  #: retransmitted segment

#: Initial number of packet slots; grows by doubling under load.
DEFAULT_CAPACITY = 256

#: The end of a ``link`` chain (the hot paths test ``h < 0``).
NIL = -1


class PoolError(RuntimeError):
    """A handle was freed twice, or used after being freed."""


class PacketView:
    """Read-only object facade over one pooled packet.

    Cold paths that want attribute access (fault-injection policies,
    debug output, tests) get a view; the hot path never builds
    one.  The view snapshots nothing — it reads through to the columns —
    so it must not outlive the handle's allocation.
    """

    __slots__ = ("_pool", "_h")

    def __init__(self, pool: "PacketPool", handle: int):
        self._pool = pool
        self._h = handle

    @property
    def handle(self) -> int:
        return self._h

    @property
    def packet_id(self) -> int:
        return self._pool.packet_id[self._h]

    @property
    def flow_id(self) -> int:
        return self._pool.flow_id[self._h]

    @property
    def src(self) -> int:
        return self._pool.src[self._h]

    @property
    def dst(self) -> int:
        return self._pool.dst[self._h]

    @property
    def seq(self) -> int:
        return self._pool.seq[self._h]

    @property
    def payload_len(self) -> int:
        return self._pool.payload_len[self._h]

    @property
    def ack_seq(self) -> int:
        return self._pool.ack_seq[self._h]

    @property
    def wire_bytes(self) -> int:
        return self._pool.wire_bytes[self._h]

    @property
    def end_seq(self) -> int:
        return self._pool.seq[self._h] + self._pool.payload_len[self._h]

    @property
    def is_ack(self) -> bool:
        return bool(self._pool.flags[self._h] & F_ACK)

    @property
    def ect(self) -> bool:
        return bool(self._pool.flags[self._h] & F_ECT)

    @property
    def ce(self) -> bool:
        return bool(self._pool.flags[self._h] & F_CE)

    @property
    def ece(self) -> bool:
        return bool(self._pool.flags[self._h] & F_ECE)

    @property
    def inc(self) -> bool:
        return bool(self._pool.flags[self._h] & F_INC)

    @property
    def is_retransmit(self) -> bool:
        return bool(self._pool.flags[self._h] & F_RETX)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        if self.is_ack:
            return (
                f"AckView(h={self._h}, flow={self.flow_id}, ack={self.ack_seq}, "
                f"{'E' if self.ece else '-'}, {self.src}->{self.dst})"
            )
        flags = ("T" if self.ect else "-") + ("C" if self.ce else "-")
        return (
            f"DataView(h={self._h}, flow={self.flow_id}, "
            f"seq={self.seq}+{self.payload_len}, {flags}, {self.src}->{self.dst})"
        )


class PacketPool:
    """Recycled-handle flyweight storage for every packet in one simulation."""

    __slots__ = (
        "flow_id",
        "src",
        "dst",
        "seq",
        "payload_len",
        "ack_seq",
        "wire_bytes",
        "packet_id",
        "flags",
        "live",
        "link",
        "capacity",
        "allocated_total",
        "freed_total",
        "_head",
    )

    def __init__(self, capacity: int = DEFAULT_CAPACITY):
        if capacity <= 0:
            raise ValueError(f"pool capacity must be positive, got {capacity}")
        self.flow_id: List[int] = [0] * capacity
        self.src: List[int] = [0] * capacity
        self.dst: List[int] = [0] * capacity
        self.seq: List[int] = [0] * capacity
        self.payload_len: List[int] = [0] * capacity
        self.ack_seq: List[int] = [0] * capacity
        self.wire_bytes: List[int] = [0] * capacity
        self.packet_id: List[int] = [UNASSIGNED_PACKET_ID] * capacity
        self.flags = bytearray(capacity)
        self.live = bytearray(capacity)
        # LIFO freelist threaded through ``link``: the most recently freed
        # handle is the next allocated, keeping the working set of columns
        # cache-warm.  A fresh pool hands out 0, 1, 2, ... in order.
        self.link: List[int] = list(range(1, capacity + 1))
        self.link[-1] = NIL
        self._head = 0
        self.capacity = capacity
        self.allocated_total = 0
        self.freed_total = 0

    @classmethod
    def of(cls, sim) -> "PacketPool":
        """The simulator's pool, created (and attached) on first use."""
        pool = sim.pool
        if pool is None:
            pool = sim.pool = cls()
        return pool

    # -- capacity ---------------------------------------------------------------
    def _grow(self) -> None:
        """Double every column **in place**; bound column refs stay valid."""
        old = self.capacity
        self.flow_id.extend([0] * old)
        self.src.extend([0] * old)
        self.dst.extend([0] * old)
        self.seq.extend([0] * old)
        self.payload_len.extend([0] * old)
        self.ack_seq.extend([0] * old)
        self.wire_bytes.extend([0] * old)
        self.packet_id.extend([UNASSIGNED_PACKET_ID] * old)
        self.flags.extend(bytes(old))
        self.live.extend(bytes(old))
        # The new slots go on top of the freelist in ascending order, ahead
        # of whatever was still free.
        new = old * 2
        self.link.extend(range(old + 1, new + 1))
        self.link[new - 1] = self._head
        self._head = old
        self.capacity = new

    # -- allocation -------------------------------------------------------------
    def alloc_data(
        self,
        flow_id: int,
        src: int,
        dst: int,
        seq: int,
        payload_len: int,
        ect: bool,
        is_retransmit: bool,
        packet_id: Optional[int] = None,
    ) -> int:
        """Allocate a data segment (payload + 40 B header on the wire)."""
        h = self._head
        if h < 0:
            self._grow()
            h = self._head
        self._head = self.link[h]
        self.flow_id[h] = flow_id
        self.src[h] = src
        self.dst[h] = dst
        self.seq[h] = seq
        self.payload_len[h] = payload_len
        self.ack_seq[h] = 0
        self.wire_bytes[h] = payload_len + HEADER_BYTES
        self.flags[h] = (F_ECT if ect else 0) | (F_RETX if is_retransmit else 0)
        self.live[h] = 1
        self.allocated_total = n = self.allocated_total + 1
        self.packet_id[h] = n if packet_id is None else packet_id
        return h

    def alloc_ack(
        self,
        flow_id: int,
        src: int,
        dst: int,
        ack_seq: int,
        ece: bool,
        inc: bool,
        packet_id: Optional[int] = None,
    ) -> int:
        """Allocate a pure cumulative ACK (64 B on the wire)."""
        h = self._head
        if h < 0:
            self._grow()
            h = self._head
        self._head = self.link[h]
        self.flow_id[h] = flow_id
        self.src[h] = src
        self.dst[h] = dst
        self.seq[h] = 0
        self.payload_len[h] = 0
        self.ack_seq[h] = ack_seq
        self.wire_bytes[h] = ACK_BYTES
        self.flags[h] = F_ACK | (F_ECE if ece else 0) | (F_INC if inc else 0)
        self.live[h] = 1
        self.allocated_total = n = self.allocated_total + 1
        self.packet_id[h] = n if packet_id is None else packet_id
        return h

    def alloc_control(
        self, flow_id: int, src: int, dst: int, wire_bytes: int, packet_id: Optional[int] = None
    ) -> int:
        """Allocate a bare control frame (incast request packets)."""
        h = self._head
        if h < 0:
            self._grow()
            h = self._head
        self._head = self.link[h]
        self.flow_id[h] = flow_id
        self.src[h] = src
        self.dst[h] = dst
        self.seq[h] = 0
        self.payload_len[h] = 0
        self.ack_seq[h] = 0
        self.wire_bytes[h] = wire_bytes
        self.flags[h] = 0
        self.live[h] = 1
        self.allocated_total = n = self.allocated_total + 1
        self.packet_id[h] = n if packet_id is None else packet_id
        return h

    # -- release ----------------------------------------------------------------
    def free(self, h: int) -> None:
        """Return a handle to the freelist.

        Always validates liveness: freeing twice, or freeing a handle that
        was never allocated, raises :class:`PoolError` at the exact
        operation that went wrong.
        """
        if not self.live[h]:
            raise PoolError(
                f"free of dead packet handle {h} "
                f"(double free, or a stale handle kept past its lifetime)"
            )
        self.live[h] = 0
        self.freed_total += 1
        self.link[h] = self._head
        self._head = h

    # -- chains -----------------------------------------------------------------
    def chain(self, head: int) -> Iterator[int]:
        """The handles linked from ``head`` through ``link``, in order.

        Walks at most ``capacity`` handles: a cycle, or a link that points
        outside the pool, raises :class:`PoolError` rather than hanging.
        """
        link = self.link
        capacity = self.capacity
        h = head
        steps = 0
        while h != NIL:
            if not 0 <= h < capacity:
                raise PoolError(f"chain from {head} links to {h}, outside the pool")
            steps += 1
            if steps > capacity:
                raise PoolError(f"chain from {head} is longer than the pool (a cycle)")
            yield h
            h = link[h]

    # -- views ------------------------------------------------------------------
    def view(self, h: int) -> PacketView:
        """An attribute-style facade over a live handle (cold paths only)."""
        if not self.live[h]:
            raise PoolError(f"view of dead packet handle {h}")
        return PacketView(self, h)

    @property
    def live_count(self) -> int:
        """Handles currently allocated (conservation: allocated - freed)."""
        return self.allocated_total - self.freed_total

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"PacketPool(capacity={self.capacity}, live={self.live_count}, "
            f"allocated={self.allocated_total}, freed={self.freed_total})"
        )
