"""Output port: a drop-tail queue drained onto a link.

The port implements the standard store-and-forward egress pump: when a
packet is admitted to an idle port it begins serializing immediately; when
serialization finishes the frame is handed to the link for propagation and
the next queued frame (if any) starts serializing.

Every packet in every experiment crosses several ports, so the pump binds
its collaborators (queue ops, wire-size column, the link's delay memo,
scheduler) once at construction instead of chasing attributes per packet,
and it moves packet *handles* (see :mod:`repro.net.pool`), never objects.

A frame admitted to an idle port with nothing queued cuts through: it is
counted in and out of the queue at once and goes straight to
serialization, never touching the backlog chain.  That is exact because
an idle port's occupancy is 0, so no marking rule (``occupancy >
threshold``) can fire; the finish event is pushed at the same time, in
the same order, as the queued path would push it.  Every admit path also
writes the queue's peak field inline, counting the arriving frame; no
observer rides on admission (DESIGN.md §8.5).

A plain link into a :class:`~repro.net.switch.Switch` is routed at
departure: the finish subscripts the switch's forwarding table and pushes
the arrival straight onto the route's callback (the egress port's
``send``, or the ECMP closure, which still assigns its ordinals at
arrival), so no ``Switch.receive`` frame runs per hop.  Routes are only
installed while a topology is built, so looking one up a propagation
delay early finds the same entry.  An unroutable destination pushes
``Switch.receive``, which counts and frees the frame at arrival.

The native event core runs ``_finish_tx`` and a routed ``send`` itself
when their gates hold (DESIGN.md §8.2): this module is its reference.
"""

from __future__ import annotations

from ..sim import _native
from ..sim.engine import Simulator
from .link import Link
from .pool import F_CE, F_ECT, F_INC, NIL
from .queues import DropTailQueue

# Captured at import: the pump inlines DropTailQueue's enqueue/dequeue, and
# the inline gate must disengage if anyone has since swapped those methods
# (the validate fuzzer's mutation testing does exactly that to prove the
# checker catches accounting bugs).
_PRISTINE_ENQUEUE = DropTailQueue.enqueue
_PRISTINE_DEQUEUE = DropTailQueue.dequeue


class OutputPort:
    """Queue + transmitter for one egress direction.

    Parameters
    ----------
    sim:
        The simulator (owns the clock the pump runs on).
    link:
        The outgoing :class:`Link`.
    queue:
        Byte-accounted FIFO; ECN marking behaviour is configured there.
    name:
        Identifier used by instrumentation (e.g. ``"switch1->aggregator"``).
    """

    __slots__ = (
        "sim",
        "_link",
        "queue",
        "name",
        "_busy",
        "tx_packets",
        "tx_bytes",
        "_enqueue",
        "_dequeue",
        "_plain_queue",
        "_link_col",
        "_wire",
        "_dst_col",
        "_ser_delay",
        "_ser_ns",
        "_propagate",
        "_schedule",
        "_push_light",
        "_finish",
        "_prop_delay",
        "_dst_receive",
        "_dst_sends",
    )

    def __init__(self, sim: Simulator, link: Link, queue: DropTailQueue, name: str = ""):
        self.sim = sim
        self.queue = queue
        self.name = name
        self._busy = False
        self.tx_packets = 0
        self.tx_bytes = 0
        self._enqueue = queue.enqueue
        self._dequeue = queue.dequeue
        # Exactly-DropTailQueue egress gets its enqueue/dequeue inlined
        # into the pump (marking, occupancy and departure counters, nothing
        # virtual); subclasses (e.g. the shared-buffer _PooledQueue) and
        # monkeypatched queue methods keep the indirect call so their
        # overrides stay in the loop.
        self._plain_queue = (
            queue.__class__ is DropTailQueue
            and DropTailQueue.enqueue is _PRISTINE_ENQUEUE
            and DropTailQueue.dequeue is _PRISTINE_DEQUEUE
        )
        # The pool's link column, which threads the queue's backlog chain;
        # the pump links and unlinks by subscript.
        self._link_col = queue.pool.link
        # Wire-size and destination columns of the pool backing this
        # queue's packets.
        self._wire = queue.pool.wire_bytes
        self._dst_col = queue.pool.dst
        self._schedule = sim.schedule
        # Serialization-finish and propagation-arrival are one-shot and
        # never cancelled, so the pump schedules them as light events
        # (no Event allocation, no cancel bookkeeping) through the bound
        # absolute-time primitive — a direct C call in native mode.
        self._push_light = sim.push_light
        self.link = link  # property: also binds the link fast paths
        hooks = sim.hooks
        if hooks is not None:
            hooks.port_created(self)

    @property
    def link(self) -> Link:
        return self._link

    @link.setter
    def link(self, link: Link) -> None:
        """Attach ``link``, rebinding the pump's per-packet fast paths.

        A property so that tests splicing a replacement link (e.g. a
        :class:`~repro.net.faults.FaultyLink`) onto a built port keep the
        bound methods coherent with the active link.
        """
        self._link = link
        self._ser_delay = link.serialization_delay
        # Fast path for the delay lookup: subscript the link's memo dict
        # directly and only call the computing method on a miss.
        self._ser_ns = link._ser_ns
        self._propagate = link.propagate
        if link.__class__ is Link and link.dst is not None:
            # A plain link is pure bookkeeping + a constant-delay hop, so
            # its propagate() is fused into the pump (_finish_tx): the
            # delivery schedules straight onto dst.receive with no
            # intermediate call frame.  Subclasses (FaultyLink et al.)
            # override propagate() and keep the indirect path.
            from .switch import Switch  # switch.py imports this module

            self._prop_delay = link.prop_delay_ns
            self._dst_receive = link._dst_receive
            # Into exactly a Switch, the hop is routed at departure.
            dst = link.dst
            self._dst_sends = dst._sends if dst.__class__ is Switch else None
            self._finish = self._finish_tx
        else:
            self._prop_delay = None
            self._dst_receive = None
            self._dst_sends = None
            self._finish = self._finish_tx_indirect

    def send(self, h: int) -> bool:
        """Admit handle ``h`` to the egress queue; start the pump if idle.

        Returns False when the queue dropped the packet (the handle is
        freed by the queue in that case and must not be used again).
        """
        q = self.queue
        if not self._plain_queue:
            if not self._enqueue(h):
                return False
            occupancy = q.occupancy_bytes
            if occupancy > q.peak_bytes:
                q.peak_bytes = occupancy
                q.peak_ns = self.sim.now
            if not self._busy:
                self._start_next()
            return True
        # Inlined DropTailQueue.enqueue (keep in sync with queues.py, and this
        # branch with _evcore.c's hop_send): ECN/INC marking against the
        # occupancy the arriving packet sees, then drop-tail admission.
        flags_col = q._flags
        occupancy = q.occupancy_bytes
        wire_bytes = self._wire[h]
        flags = flags_col[h]
        threshold = q.ecn_threshold_bytes
        if threshold is not None and flags & F_ECT and occupancy > threshold:
            if not (flags & F_CE):
                flags = flags_col[h] = flags | F_CE
                q.marked_packets += 1
                if q.on_mark is not None:
                    q.on_mark(h)
        inc_threshold = q.inc_threshold_bytes
        if inc_threshold is not None and occupancy > inc_threshold and not (flags & F_INC):
            flags_col[h] = flags | F_INC
            q.inc_marked_packets += 1
        if occupancy + wire_bytes > q.capacity_bytes:
            q.dropped_packets += 1
            q.dropped_bytes += wire_bytes
            if q.on_drop is not None:
                q.on_drop(h)
            q._pool_free(h)
            return False
        head = q._head
        if head < 0 and not self._busy:
            # Cut-through at an idle port: the frame enters and leaves the
            # queue in the same instant (occupancy stays 0) and starts
            # serializing, exactly as _start_next would have started it.
            q.enqueued_packets += 1
            q.enqueued_bytes += wire_bytes
            q.dequeued_packets += 1
            q.dequeued_bytes += wire_bytes
            now = self.sim.now
            if wire_bytes > q.peak_bytes:
                q.peak_bytes = wire_bytes
                q.peak_ns = now
            self._busy = True
            try:
                delay = self._ser_ns[wire_bytes]
            except KeyError:
                delay = self._ser_delay(wire_bytes)
            self._push_light(now + delay, self._finish, h)
            return True
        link = self._link_col
        link[h] = NIL
        if head < 0:
            q._head = h
        else:
            link[q._tail] = h
        q._tail = h
        occupancy += wire_bytes
        q.occupancy_bytes = occupancy
        q.enqueued_packets += 1
        q.enqueued_bytes += wire_bytes
        if occupancy > q.peak_bytes:
            q.peak_bytes = occupancy
            q.peak_ns = self.sim.now
        if not self._busy:
            self._start_next()
        return True

    @property
    def backlog_bytes(self) -> int:
        """Bytes currently waiting (excludes the frame on the wire)."""
        return self.queue.occupancy_bytes

    def _start_next(self) -> None:
        q = self.queue
        h = q._head
        if h < 0:
            self._busy = False
            return
        if self._plain_queue:
            # Inlined DropTailQueue.dequeue (keep in sync with queues.py).
            q._head = self._link_col[h]
            wire_bytes = self._wire[h]
            q.occupancy_bytes -= wire_bytes
            q.dequeued_packets += 1
            q.dequeued_bytes += wire_bytes
        else:
            h = self._dequeue()
            wire_bytes = self._wire[h]
        self._busy = True
        try:
            delay = self._ser_ns[wire_bytes]
        except KeyError:
            delay = self._ser_delay(wire_bytes)
        self._push_light(self.sim.now + delay, self._finish, h)

    def _finish_tx(self, h: int) -> None:
        # Fused fast path (plain Link only; keep in sync with _evcore.c's
        # hop_finish_tx): port + link bookkeeping, the propagation hop onto
        # the destination's receive (or, into a Switch, onto the route's
        # callback), then the next frame's serialization.
        if self._prop_delay is None:
            # The link was spliced (e.g. to a FaultyLink) while this frame
            # was on the wire; deliver it through the new link's propagate,
            # exactly as the pre-fusion pump did.
            self._finish_tx_indirect(h)
            return
        wire_bytes = self._wire[h]
        self.tx_packets += 1
        self.tx_bytes += wire_bytes
        link = self._link
        link.delivered_packets += 1
        link.delivered_bytes += wire_bytes
        now = self.sim.now
        push = self._push_light
        sends = self._dst_sends
        if sends is None:
            push(now + self._prop_delay, self._dst_receive, h)
        else:
            # Routed at departure (see the module docstring).
            try:
                arrive = sends[self._dst_col[h]]
            except KeyError:
                arrive = self._dst_receive
            push(now + self._prop_delay, arrive, h)
        # Inlined _start_next: the pump is mid-transmission, so _busy is
        # already True and only the went-idle transition needs a store.
        q = self.queue
        nxt = q._head
        if nxt < 0:
            self._busy = False
            return
        if self._plain_queue:
            # Inlined DropTailQueue.dequeue (keep in sync with queues.py).
            q._head = self._link_col[nxt]
            wire_bytes = self._wire[nxt]
            q.occupancy_bytes -= wire_bytes
            q.dequeued_packets += 1
            q.dequeued_bytes += wire_bytes
        else:
            nxt = self._dequeue()
            wire_bytes = self._wire[nxt]
        try:
            delay = self._ser_ns[wire_bytes]
        except KeyError:
            delay = self._ser_delay(wire_bytes)
        push(now + delay, self._finish, nxt)

    def _finish_tx_indirect(self, h: int) -> None:
        # Virtual path for Link subclasses whose propagate() does more
        # than bookkeeping (fault injection, scripted drops).
        self.tx_packets += 1
        self.tx_bytes += self._wire[h]
        self._propagate(self.sim, h)
        self._start_next()


# The C core runs these two bodies itself when their gates hold.
_native.register_hop("finish_tx", OutputPort._finish_tx)
_native.register_hop("send", OutputPort.send)
