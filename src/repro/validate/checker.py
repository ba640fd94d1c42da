"""The invariant checker: conservation laws swept while a simulation runs.

The checker is a subscriber of the shared
:class:`repro.telemetry.hooks.HookRegistry`: components announce
themselves to ``sim.hooks`` at construction (``sim.hooks is not None`` —
the *only* cost paid on the normal, unobserved path) and the registry
fans the lifecycle and per-queue drop/mark events out to the checker, the
tracer, or both — no parallel callback chains.  :meth:`Simulator.run`
then holds every dispatched timestamp to
:meth:`InvariantChecker.check_dispatch_time` (the native core compares
them itself and hands the checker the last one before each sweep) and
calls :meth:`InvariantChecker.sweep` every ``sweep_every`` events and when
it returns; sweeps are plain in-loop calls, never scheduled events, so
validated runs process the exact same event sequence as unvalidated ones
and produce identical results.

Checked invariants
------------------
Per queue (every switch port and host NIC):

- packet conservation: ``enqueued == dequeued + resident``
- byte conservation: ``enqueued_bytes == dequeued_bytes + occupancy``
- occupancy within ``[0, capacity]``
- drops and ECN marks counted exactly once (cross-checked against an
  independent count taken from the hook registry's ``queue_dropped`` /
  ``queue_marked`` events)
- marks only issued when the instantaneous occupancy exceeds K
- every resident packet handle is live in the packet pool, and the
  backlog chain ends at the queue's tail

Packet pool (``sim.pool``): handle conservation —
``allocated_total - freed_total`` equals the number of live flags set,
the freelist holds exactly the dead handles (no leaks, no double-frees
that slipped past the pool's own guard), and every freelist entry is
dead.  Resident and free counts come from walking the ``link`` chains
(bounded by the pool's capacity), never from a stored count, so a
corrupt chain — a cycle, or a link out of the pool — is a violation.

Per port: the egress pump holds at most one in-flight frame
(``dequeued == tx + (1 if serializing else 0)``).

Per shared-buffer switch: the incrementally maintained pool occupancy
equals the sum of per-port occupancies and stays within the pool.

Per flow (sender/receiver pair): sequence-number sanity
(``0 <= snd_una <= snd_nxt <= total``), ``bytes_in_flight`` equals the
unacked range, and byte conservation across the network —
``snd_una <= rcv_nxt <= high-water mark of bytes ever sent``.

Per DCTCP+/Reno+ state machine: the ``NORMAL -> DCTCP_Time_Inc``
transition only happens with cwnd at its floor (paper Fig. 4's entry
condition).

Engine: dispatch timestamps are monotone non-decreasing.

Any violation raises :class:`InvariantViolation` immediately (fail-fast:
the first broken account is the one closest to the bug).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids import cycles
    from ..core.state_machine import SlowTimeStateMachine
    from ..net.port import OutputPort
    from ..net.queues import DropTailQueue
    from ..net.shared_buffer import SharedBufferSwitch
    from ..sim.engine import Simulator
    from ..tcp.receiver import TcpReceiver
    from ..tcp.sender import TcpSender

#: Sweep cadence (events between full conservation sweeps).  Low enough to
#: localize a violation to a small event window, high enough that sweeping
#: stays a small fraction of validated run time.
DEFAULT_SWEEP_EVERY = 256


class InvariantViolation(AssertionError):
    """A conservation law or state-machine invariant does not hold."""


class _QueueRecord:
    """One monitored queue plus independent drop/mark counts.

    The independent counts come from the hook registry's ``queue_dropped``
    / ``queue_marked`` events (the registry chains over the queue's
    callback slots, so user instrumentation still fires) and are compared
    against the queue's counters at every sweep — a mutation that
    double-counts or skips a drop shows up as a mismatch.
    """

    __slots__ = ("queue", "name", "drops_seen", "marks_seen")

    def __init__(self, queue: "DropTailQueue", name: str):
        self.queue = queue
        self.name = name
        self.drops_seen = 0
        self.marks_seen = 0


class InvariantChecker:
    """Registry + sweep engine for runtime invariants (see module docs)."""

    __slots__ = (
        "sim",
        "sweep_every",
        "sweeps",
        "_queues",
        "_ports",
        "_switches",
        "_senders",
        "_receivers",
        "_record_by_queue",
        "_last_dispatch_ns",
    )

    def __init__(self, sim: "Simulator", sweep_every: int = DEFAULT_SWEEP_EVERY):
        self.sim = sim
        self.sweep_every = sweep_every
        self.sweeps = 0
        self._queues: List[_QueueRecord] = []
        self._ports: List["OutputPort"] = []
        self._switches: List["SharedBufferSwitch"] = []
        self._senders: List["TcpSender"] = []
        self._receivers: Dict[int, "TcpReceiver"] = {}
        self._record_by_queue: Dict["DropTailQueue", _QueueRecord] = {}
        self._last_dispatch_ns = 0

    # -- registration (dispatched by the shared HookRegistry) -------------------
    def register_port(self, port: "OutputPort") -> None:
        self._ports.append(port)
        record = _QueueRecord(port.queue, port.name or f"port#{len(self._ports)}")
        self._queues.append(record)
        self._record_by_queue[port.queue] = record

    def register_switch(self, switch: "SharedBufferSwitch") -> None:
        """Shared-buffer switches: pool accounting is cross-checked too.

        The switch's ports register themselves (each creates an
        :class:`~repro.net.port.OutputPort`), so only the pool-level view
        is recorded here.
        """
        self._switches.append(switch)

    def register_sender(self, sender: "TcpSender") -> None:
        self._senders.append(sender)

    def register_receiver(self, receiver: "TcpReceiver") -> None:
        self._receivers[receiver.flow_id] = receiver

    def attach_machine(self, machine: "SlowTimeStateMachine", sender: "TcpSender") -> None:
        """Hook the slow_time machine's NORMAL -> TIME_INC transition."""

        def _on_enter_time_inc(m: "SlowTimeStateMachine") -> None:
            if not sender._cwnd_at_floor:
                self._fail(
                    f"flow {sender.flow_id}: state machine entered DCTCP_Time_Inc "
                    f"with cwnd {sender.cwnd:.0f}B above the floor "
                    f"{sender.config.min_cwnd_bytes:.0f}B"
                )

        machine.observer = _on_enter_time_inc

    # -- queue events (dispatched by the shared HookRegistry) -------------------
    def queue_dropped(self, queue: "DropTailQueue", name: str, h: int) -> None:
        self._record_by_queue[queue].drops_seen += 1

    def queue_marked(self, queue: "DropTailQueue", name: str, h: int) -> None:
        record = self._record_by_queue[queue]
        record.marks_seen += 1
        threshold = queue.ecn_threshold_bytes
        # Marking fires before admission, so occupancy_bytes is the
        # instantaneous queue length the marking decision saw.
        if threshold is None or queue.occupancy_bytes <= threshold:
            self._fail(
                f"queue {record.name}: CE mark at occupancy "
                f"{queue.occupancy_bytes}B, not above K="
                f"{threshold if threshold is not None else 'disabled'}"
            )

    # -- engine hooks ------------------------------------------------------------
    def check_dispatch_time(self, time_ns: int) -> None:
        """Called by the dispatch loop before the events at ``time_ns`` fire
        (by the native loop: at a run's first timestamp, before each sweep,
        at exit, and at any timestamp below the last)."""
        if time_ns < self._last_dispatch_ns:
            self._fail(
                f"event dispatch time went backwards: {time_ns} < {self._last_dispatch_ns}"
            )
        self._last_dispatch_ns = time_ns

    def sweep(self) -> None:
        """Assert every registered conservation law at the current instant.

        Runs between events (never inside one), where every component is in
        a quiescent, self-consistent state.
        """
        self.sweeps += 1
        for record in self._queues:
            self._check_queue(record)
        for port in self._ports:
            self._check_port(port)
        for switch in self._switches:
            self._check_pool(switch)
        for sender in self._senders:
            self._check_flow(sender)
        self._check_packet_pool()

    def verify_all(self) -> Dict[str, int]:
        """Final sweep; returns a summary of what was watched.

        Called by :func:`repro.exec.scenario.run_scenario` after the
        workload completes, so validated runs always end on a full check
        even if the last event landed mid-cadence.
        """
        self.sweep()
        return {
            "queues": len(self._queues),
            "ports": len(self._ports),
            "switches": len(self._switches),
            "senders": len(self._senders),
            "receivers": len(self._receivers),
            "sweeps": self.sweeps,
        }

    # -- individual laws ---------------------------------------------------------
    def _check_queue(self, record: _QueueRecord) -> None:
        q = record.queue
        resident, last = self._walk(q.pool, q._head, record.name)
        if resident and last != q._tail:
            self._fail(
                f"queue {record.name}: backlog chain ends at handle {last}, "
                f"not at the tail {q._tail}"
            )
        if q.enqueued_packets != q.dequeued_packets + resident:
            self._fail(
                f"queue {record.name}: packet conservation broken — "
                f"enqueued={q.enqueued_packets} != dequeued={q.dequeued_packets} "
                f"+ resident={resident}"
            )
        if q.enqueued_bytes != q.dequeued_bytes + q.occupancy_bytes:
            self._fail(
                f"queue {record.name}: byte conservation broken — "
                f"enqueued={q.enqueued_bytes} != dequeued={q.dequeued_bytes} "
                f"+ occupancy={q.occupancy_bytes}"
            )
        if not 0 <= q.occupancy_bytes <= q.capacity_bytes:
            self._fail(
                f"queue {record.name}: occupancy {q.occupancy_bytes}B outside "
                f"[0, {q.capacity_bytes}]"
            )
        if q.dropped_packets != record.drops_seen:
            self._fail(
                f"queue {record.name}: drop counter mismatch — counter says "
                f"{q.dropped_packets}, on_drop fired {record.drops_seen} times"
            )
        if q.marked_packets != record.marks_seen:
            self._fail(
                f"queue {record.name}: mark counter mismatch — counter says "
                f"{q.marked_packets}, on_mark fired {record.marks_seen} times"
            )

    def _check_port(self, port: "OutputPort") -> None:
        q = port.queue
        in_flight = 1 if port._busy else 0
        if q.dequeued_packets != port.tx_packets + in_flight:
            self._fail(
                f"port {port.name}: pump imbalance — dequeued "
                f"{q.dequeued_packets} != transmitted {port.tx_packets} + "
                f"serializing {in_flight}"
            )

    def _check_pool(self, switch: "SharedBufferSwitch") -> None:
        pool = switch.pool_occupancy_bytes
        if not 0 <= pool <= switch.shared_pool_bytes:
            self._fail(
                f"switch {switch.name}: pool occupancy {pool}B outside "
                f"[0, {switch.shared_pool_bytes}]"
            )
        per_port = sum(p.queue.occupancy_bytes for p in switch.ports)
        if pool != per_port:
            self._fail(
                f"switch {switch.name}: pool occupancy {pool}B != sum of "
                f"per-port occupancies {per_port}B"
            )

    def _check_flow(self, sender: "TcpSender") -> None:
        # Counters come straight from the flow ledger's columns, each read
        # once; bytes_in_flight goes through its property, which the law
        # checks against the unacked range.
        fid = sender.flow_id
        fl = sender._fl
        slot = sender._slot
        snd_una = fl.snd_una[slot]
        snd_nxt = fl.snd_nxt[slot]
        if not 0 <= snd_una <= snd_nxt:
            self._fail(
                f"flow {fid}: sequence corruption — snd_una={snd_una}, "
                f"snd_nxt={snd_nxt}"
            )
        if snd_nxt > sender.total_bytes:
            self._fail(
                f"flow {fid}: snd_nxt={snd_nxt} beyond application "
                f"bytes {sender.total_bytes}"
            )
        in_flight = sender.bytes_in_flight
        if in_flight != snd_nxt - snd_una:
            self._fail(
                f"flow {fid}: bytes_in_flight={in_flight} "
                f"inconsistent with unacked range "
                f"[{snd_una}, {snd_nxt})"
            )
        cwnd = fl.cwnd[slot]
        if cwnd <= 0:
            self._fail(f"flow {fid}: cwnd={cwnd} not positive")
        receiver = self._receivers.get(fid)
        if receiver is None:
            return
        # ACKs carry rcv_nxt, so acked bytes can never outrun delivery; and
        # delivery can never outrun the bytes ever handed to the network
        # (snd_nxt, or the pre-timeout high-water mark after a go-back-N
        # rewind).
        rfl = receiver._fl
        rslot = receiver._slot
        rcv_nxt = rfl.rcv_nxt[rslot]
        high_water = sender.rto_recovery_point
        if snd_nxt > high_water:
            high_water = snd_nxt
        if not snd_una <= rcv_nxt <= high_water:
            self._fail(
                f"flow {fid}: byte conservation broken — snd_una="
                f"{snd_una}, rcv_nxt={rcv_nxt}, "
                f"high-water={high_water}"
            )
        delivered = rfl.bytes_delivered[rslot]
        if delivered != rcv_nxt:
            self._fail(
                f"flow {fid}: receiver delivered {delivered}B "
                f"but rcv_nxt={rcv_nxt}"
            )

    def _check_packet_pool(self) -> None:
        """Handle conservation over the struct-of-arrays packet pool."""
        pool = self.sim.pool
        if pool is None:
            return
        live_flags = sum(pool.live)
        expected_live = pool.allocated_total - pool.freed_total
        if live_flags != expected_live:
            self._fail(
                f"packet pool: live-flag count {live_flags} != allocated "
                f"{pool.allocated_total} - freed {pool.freed_total}"
            )
        free, _ = self._walk(pool, pool._head)
        if free + live_flags != pool.capacity:
            self._fail(
                f"packet pool: freelist {free} + live {live_flags} != "
                f"capacity {pool.capacity} (leaked or duplicated handle)"
            )

    def _walk(self, pool, head: int, queue_name: Optional[str] = None) -> Tuple[int, int]:
        """Count one ``link`` chain from ``head``: (handles, last handle).

        A queue's backlog (``queue_name`` given) must hold only live
        handles, the freelist only dead ones.  The walk stops at the pool's
        capacity, so a cycle or a link out of the pool fails here instead
        of hanging the sweep.
        """
        link = pool.link
        live = pool.live
        capacity = pool.capacity
        liveness = 0 if queue_name is None else 1
        count = 0
        last = h = head
        while h != -1:  # the pool's NIL
            if not 0 <= h < capacity:
                self._chain_fail(queue_name, f"links to handle {h}, outside the pool")
            if count == capacity:
                self._chain_fail(queue_name, "is longer than the pool (a cycle)")
            if live[h] != liveness:
                self._chain_fail(
                    queue_name,
                    f"holds live handle {h}"
                    if queue_name is None
                    else f"holds handle {h}, dead in the pool (freed while queued, or stale)",
                )
            count += 1
            last = h
            h = link[h]
        return count, last

    def _chain_fail(self, queue_name: Optional[str], message: str) -> None:
        where = "packet pool: freelist" if queue_name is None else f"queue {queue_name}: backlog"
        self._fail(f"{where} {message}")

    # -- failure -----------------------------------------------------------------
    def _fail(self, message: str) -> None:
        raise InvariantViolation(f"[t={self.sim.now}ns] {message}")
