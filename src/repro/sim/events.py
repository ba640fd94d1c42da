"""Event handles and the binary-heap event queue.

The queue is the hottest data structure in the simulator, so it is built
for throughput:

- Heap entries are ``(time, seq, event)`` **tuples**, so ``heapq`` orders
  them with C tuple comparison on the two integers and never calls back
  into Python (``seq`` is unique, so the ``Event`` itself is never
  compared).
- **Light entries**: one-shot, never-cancelled callbacks (the two
  scheduling sites every packet hop pays — serialization-finish and
  propagation-arrival, ~94% of all events) skip the :class:`Event`
  object entirely and sit in the same heap as bare
  ``(time, seq, callback, arg)`` 4-tuples, pushed by
  :meth:`repro.sim.engine.Simulator.schedule_light`.  They draw from the
  same ``seq`` stream, and since ``seq`` is unique the comparison never
  reaches element 2, so 3- and 4-tuples mix freely with ordering
  bit-for-bit identical to the all-``Event`` implementation.  Consumers
  discriminate with ``entry[2].__class__ is Event``.
- Cancellation is *lazy* — a cancelled event stays in the heap and is
  skipped when popped — which keeps ``cancel()`` O(1) and avoids heap
  surgery.  Skipped carcasses go to a bounded **freelist** and are
  recycled by the next ``push`` instead of becoming garbage.
- :meth:`EventQueue.reschedule` moves a pending event to a *later* time
  without touching the heap at all: it records the new deadline on the
  handle, and when the stale heap entry surfaces the event is re-filed at
  its true deadline.  Timer churn in TCP (every ACK restarts the
  retransmission timer, and the new deadline is almost always later)
  makes this the difference between O(ACKs) and O(expiries) heap traffic.

The reschedule path consumes exactly one sequence number per call — the
same as the historical ``cancel(); push()`` idiom — and the deferred
re-file reuses that number, so event ordering (including FIFO ties at
one timestamp) is bit-for-bit identical to the naive implementation.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, List, Optional, Tuple

#: Recycled-event pool cap; enough to absorb timer churn bursts without
#: pinning memory after a large simulation drains.
FREELIST_MAX = 4096


class Event:
    """A scheduled callback.

    ``time``/``seq`` mirror the heap entry currently filing this event;
    ``deadline`` is the authoritative fire time (later than ``time`` when a
    reschedule deferred the event), and ``deadline`` < 0 means the event is
    no longer pending (already fired, or cancelled).
    """

    __slots__ = ("time", "seq", "deadline", "_dseq", "callback", "args", "cancelled")

    def __init__(self, time: int, seq: int, callback: Callable[..., None], args: tuple):
        self.time = time
        self.seq = seq
        self.deadline = time
        self._dseq = seq
        self.callback = callback
        self.args = args
        self.cancelled = False

    def cancel(self) -> None:
        """Mark the event as cancelled; it will be skipped when popped."""
        self.cancelled = True
        self.deadline = -1
        # Drop references eagerly so cancelled timers don't pin senders,
        # packets, etc. in memory while they wait to be popped.
        self.callback = _noop
        self.args = ()

    def __lt__(self, other: "Event") -> bool:
        if self.time != other.time:
            return self.time < other.time
        return self.seq < other.seq

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "cancelled" if self.cancelled else "pending"
        return f"Event(t={self.time}, seq={self.seq}, {state})"


def _noop(*_args: Any) -> None:
    """Placeholder callback installed when an event is cancelled."""


#: One heap entry: ``(time, seq, event)`` — or the light form
#: ``(time, seq, callback, arg)``; ``seq`` uniqueness keeps comparisons
#: from ever reaching element 2, so the two shapes mix freely.
Entry = Tuple[int, int, Any]


class EventQueue:
    """Binary-heap priority queue of :class:`Event` with lazy cancellation.

    ``_heap``/``_free`` are accessed directly by the fused dispatch loop in
    :meth:`repro.sim.engine.Simulator.run` (and by ``_evcore.c``); any
    change to the entry layout must be mirrored there.
    """

    __slots__ = ("_heap", "_seq", "_live", "_free", "_core")

    def __init__(self) -> None:
        self._heap: List[Entry] = []
        self._seq = 0
        self._live = 0
        self._free: List[Event] = []
        # Native event core (set by the owning Simulator when the C engine
        # is active).  When attached, it owns the simulation-wide sequence
        # counter — light events filed in its C heap and regular events
        # filed here must share one totally ordered (time, seq) stream —
        # so push/reschedule draw from it instead of ``_seq``.
        self._core = None

    def __len__(self) -> int:
        """Number of *live* (non-cancelled) events."""
        return self._live

    def push(self, time: int, callback: Callable[..., None], args: tuple = ()) -> Event:
        """Schedule ``callback(*args)`` at ``time``; returns a cancellable handle."""
        core = self._core
        if core is None:
            seq = self._seq
            self._seq = seq + 1
        else:
            seq = core.take_seq()
        free = self._free
        if free:
            ev = free.pop()
            ev.time = time
            ev.seq = seq
            ev.deadline = time
            ev._dseq = seq
            ev.callback = callback
            ev.args = args
            ev.cancelled = False
        else:
            ev = Event(time, seq, callback, args)
        self._live += 1
        heapq.heappush(self._heap, (time, seq, ev))
        return ev

    def reschedule(
        self,
        event: Optional[Event],
        time: int,
        callback: Callable[..., None],
        args: tuple = (),
    ) -> Event:
        """Move a timer to ``time``, recycling its heap entry when possible.

        Equivalent to ``cancel(event); push(time, ...)`` but with zero heap
        traffic in the common case (``event`` still pending and the new
        deadline not earlier than its current heap slot).  Always returns
        the live handle, which may or may not be ``event`` itself.
        """
        if (
            event is not None
            and not event.cancelled
            and event.deadline >= 0
            and event.time <= time
        ):
            event.deadline = time
            core = self._core
            if core is None:
                event._dseq = self._seq
                self._seq += 1
            else:
                event._dseq = core.take_seq()
            event.callback = callback
            event.args = args
            return event
        if event is not None:
            self.cancel(event)
        return self.push(time, callback, args)

    def cancel(self, event: Event) -> None:
        """Cancel a previously pushed event (idempotent; fired events no-op)."""
        if not event.cancelled and event.deadline >= 0:
            event.cancel()
            self._live -= 1

    def pop(self) -> Optional[Event]:
        """Pop the earliest live event, skipping cancelled ones.

        Returns ``None`` when the queue holds no live events.  A light
        entry (see module docstring) is materialized into an already-fired
        :class:`Event` so callers see one uniform type; the fused dispatch
        loop never pays this, it only serves the queue-level API.
        """
        time = self.peek_time()  # leaves the earliest live entry at the head
        if time is None:
            return None
        entry = heapq.heappop(self._heap)
        self._live -= 1
        ev = entry[2]
        if ev.__class__ is not Event:
            ev = Event(time, entry[1], ev, (entry[3],))
        ev.deadline = -1  # fired: no longer pending
        return ev

    def peek_time(self) -> Optional[int]:
        """Timestamp of the earliest live event, or ``None`` if empty."""
        heap = self._heap
        free = self._free
        while heap:
            entry = heap[0]
            time = entry[0]
            ev = entry[2]
            if ev.__class__ is not Event:
                return time  # light entries are always live
            if ev.cancelled:
                heapq.heappop(heap)
                if len(free) < FREELIST_MAX:
                    free.append(ev)
                continue
            deadline = ev.deadline
            if deadline > time:
                ev.time = deadline
                ev.seq = ev._dseq
                heapq.heapreplace(heap, (deadline, ev._dseq, ev))
                continue
            return time
        return None

    def clear(self) -> None:
        """Drop all events, including the light ones an attached native
        core files in its own heap (the sequence counter keeps running)."""
        self._heap.clear()
        self._free.clear()
        self._live = 0
        if self._core is not None:
            self._core.clear()
