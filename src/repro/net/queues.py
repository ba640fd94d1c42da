"""Output-port queueing: drop-tail FIFO with byte accounting + ECN marking.

The switch model in the paper's testbed uses a **static** per-port buffer
(128 KB) with drop-tail and DCTCP-style ECN marking: packets are marked CE
on *enqueue* when the instantaneous queue occupancy exceeds the threshold
``K`` (32 KB).  Marking happens before the drop decision is taken on the
incoming packet, mirroring a real egress pipeline (mark, then try to admit).

Queues operate on pooled packet **handles** (see :mod:`repro.net.pool`):
the flag and wire-size columns are bound once at construction and indexed
per packet, and the queue owns the handle of any packet it drops — the
drop is the end of that packet's journey, so the handle is freed here
(after ``on_drop`` fires, while the fields are still readable).

The backlog is a chain through the pool's ``link`` column from ``_head``
to ``_tail`` (a queued handle is live, so its ``link`` slot is unused by
the freelist): enqueue and dequeue are subscripts, not list calls.
"""

from __future__ import annotations

from typing import Callable, Iterator, Optional

from .pool import F_CE, F_ECT, F_INC, NIL, PacketPool

#: Paper defaults (Section III / VI.A).
DEFAULT_BUFFER_BYTES = 128 * 1024
DEFAULT_ECN_THRESHOLD = 32 * 1024


class DropTailQueue:
    """FIFO byte-limited queue with optional instantaneous ECN marking.

    Parameters
    ----------
    capacity_bytes:
        Static buffer size; a packet that would push occupancy past this is
        dropped (drop-tail).
    ecn_threshold_bytes:
        Mark incoming ECT packets CE when current occupancy (before the new
        packet is admitted) is at or above this threshold.  ``None`` disables
        marking (plain drop-tail, used for host NIC queues).
    on_drop / on_mark:
        Optional instrumentation callbacks invoked with the packet handle.
        ``on_drop`` fires while the dropped handle is still live; the queue
        frees it right after.
    pool:
        The owning simulation's :class:`~repro.net.pool.PacketPool`.

    ``peak_bytes`` / ``peak_ns`` is the one occupancy peak (counting the
    arriving frame) and when it was first reached, written inline by the
    owning :class:`~repro.net.port.OutputPort` (the queue has no clock).
    A reader that wants a window (ControlEnv) resets ``peak_bytes`` to 0.
    """

    __slots__ = (
        "capacity_bytes",
        "ecn_threshold_bytes",
        "inc_threshold_bytes",
        "inc_marked_packets",
        "pool",
        "_flags",
        "_wire",
        "_pool_free",
        "_link",
        "_head",
        "_tail",
        "occupancy_bytes",
        "enqueued_packets",
        "dequeued_packets",
        "dropped_packets",
        "marked_packets",
        "enqueued_bytes",
        "dequeued_bytes",
        "dropped_bytes",
        "on_drop",
        "on_mark",
        "peak_bytes",
        "peak_ns",
    )

    def __init__(
        self,
        capacity_bytes: int = DEFAULT_BUFFER_BYTES,
        ecn_threshold_bytes: Optional[int] = DEFAULT_ECN_THRESHOLD,
        on_drop: Optional[Callable[[int], None]] = None,
        on_mark: Optional[Callable[[int], None]] = None,
        *,
        pool: PacketPool,
    ):
        if capacity_bytes <= 0:
            raise ValueError(f"queue capacity must be positive, got {capacity_bytes}")
        if ecn_threshold_bytes is not None and ecn_threshold_bytes < 0:
            raise ValueError(f"ECN threshold must be non-negative, got {ecn_threshold_bytes}")
        self.capacity_bytes = capacity_bytes
        self.ecn_threshold_bytes = ecn_threshold_bytes
        #: Pulser-style incast-onset threshold; ``None`` (the default)
        #: disables the detector entirely — see repro.tcp.pulser.
        self.inc_threshold_bytes: Optional[int] = None
        self.inc_marked_packets = 0
        self.pool = pool
        # Column views bound once; pool growth extends in place, so these
        # references stay valid for the queue's lifetime.
        self._flags = pool.flags
        self._wire = pool.wire_bytes
        self._pool_free = pool.free
        self._link = pool.link
        self._head = NIL
        self._tail = NIL
        self.occupancy_bytes = 0
        self.enqueued_packets = 0
        self.dequeued_packets = 0
        self.dropped_packets = 0
        self.marked_packets = 0
        self.enqueued_bytes = 0
        self.dequeued_bytes = 0
        self.dropped_bytes = 0
        self.on_drop = on_drop
        self.on_mark = on_mark
        self.peak_bytes = 0
        self.peak_ns = 0

    def __len__(self) -> int:
        """Resident packets, counted by walking the backlog chain."""
        n = 0
        for _ in self.pool.chain(self._head):
            n += 1
        return n

    def __iter__(self) -> Iterator[int]:
        """The resident handles, head of line first."""
        return self.pool.chain(self._head)

    def enqueue(self, h: int) -> bool:
        """Admit handle ``h``; returns False (and counts a drop) on overflow.

        ECN marking uses the occupancy *including* the queued bytes already
        present (instantaneous queue length seen by the arriving packet), the
        same rule as the DCTCP switch: mark if ``queue length > K``.

        Runs once per packet per hop; occupancy, flags and wire size are
        read into locals once.  A dropped packet's handle is freed here.
        """
        flags_col = self._flags
        occupancy = self.occupancy_bytes
        wire_bytes = self._wire[h]
        flags = flags_col[h]
        threshold = self.ecn_threshold_bytes
        if threshold is not None and flags & F_ECT and occupancy > threshold:
            if not (flags & F_CE):
                flags = flags_col[h] = flags | F_CE
                self.marked_packets += 1
                if self.on_mark is not None:
                    self.on_mark(h)
        inc_threshold = self.inc_threshold_bytes
        if inc_threshold is not None and occupancy > inc_threshold and not (flags & F_INC):
            flags_col[h] = flags | F_INC
            self.inc_marked_packets += 1
        if occupancy + wire_bytes > self.capacity_bytes:
            self.dropped_packets += 1
            self.dropped_bytes += wire_bytes
            if self.on_drop is not None:
                self.on_drop(h)
            self._pool_free(h)
            return False
        link = self._link
        link[h] = NIL
        if self._head < 0:
            self._head = h
        else:
            link[self._tail] = h
        self._tail = h
        self.occupancy_bytes = occupancy + wire_bytes
        self.enqueued_packets += 1
        self.enqueued_bytes += wire_bytes
        return True

    def dequeue(self) -> Optional[int]:
        """Remove and return the head-of-line handle (None when empty)."""
        h = self._head
        if h < 0:
            return None
        self._head = self._link[h]
        wire_bytes = self._wire[h]
        self.occupancy_bytes -= wire_bytes
        # Departure counters close the conservation law the validate layer
        # sweeps: enqueued == dequeued + resident, in packets and bytes.
        self.dequeued_packets += 1
        self.dequeued_bytes += wire_bytes
        return h
