"""Observation assembly for the control environment.

:class:`~repro.control.env.ControlEnv` pauses the simulation at per-flow
window boundaries and hands the acting agent an :class:`Observation` — a
flat snapshot of the controlled flow's transport state plus the
bottleneck queue's recent behaviour.  This module builds those snapshots
from the same zero/low-cost channels the rest of the telemetry layer
uses:

- transport state is read straight off the sender (ledger-backed
  attributes: cwnd, snd_una, RTT estimate, DCTCP alpha);
- the per-window marked fraction comes from the CC event stream (the
  bridge policy accumulates ``newly_acked``/``ece`` per window, exactly
  the bytes DCTCP itself counts);
- the queue high-water mark rides the :class:`~repro.net.queues.DropTailQueue`
  ``on_enqueue`` channel, which both port send paths already test for
  ``None`` per packet — chaining a watcher there costs nothing when no
  assembler is attached, and every assembler watching one queue shares
  a single watcher, so an enqueue costs one call however many flows
  are controlled;
- timeout taxonomy counts (FLoss-TO / LAck-TO) come from the flow's
  :class:`~repro.tcp.flowstats.FlowStats` record.

The assembler schedules no events and draws no randomness, so attaching
it never perturbs a simulation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional

from ..tcp.timeouts import TimeoutKind

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..net.queues import DropTailQueue
    from ..tcp.sender import TcpSender


@dataclass
class Observation:
    """One step's view of a controlled flow (gym-style observation)."""

    #: Simulated time of the snapshot (ns).
    time_ns: int
    #: Ordinal of the controlled flow within the workload (construction order).
    flow: int
    #: Monotonic step counter for this flow (0 = first window boundary).
    step: int
    #: Congestion window (bytes) after this window's CC reaction.
    cwnd_bytes: float
    #: Slow-start threshold (bytes).
    ssthresh_bytes: float
    #: Unacknowledged bytes in flight at the snapshot.
    inflight_bytes: int
    #: Smoothed RTT estimate (ns); None before the first sample.
    srtt_ns: Optional[int]
    #: DCTCP marked-byte EWMA (the sender's alpha).
    alpha: float
    #: Bytes newly ACKed during the window just closed.
    acked_bytes: int
    #: Fraction of those bytes whose ACKs carried ECN-Echo.
    marked_fraction: float
    #: Bottleneck queue high-water mark (bytes) since the previous
    #: observation; 0 when no queue is being watched.
    queue_highwater_bytes: int
    #: Cumulative full-window-loss timeouts (FLoss-TO) for this flow.
    timeouts_floss: int
    #: Cumulative last-ACK-loss timeouts (LAck-TO) for this flow.
    timeouts_lack: int
    #: True when the workload has finished; no further steps will follow.
    done: bool = False


class _QueuePeak:
    """The one ``on_enqueue`` watcher of a queue, shared by its assemblers.

    It keeps a single peak; each snapshot folds that peak into every
    assembler's own high-water mark and resets it, so each assembler still
    reports the peak occupancy since *its* previous observation.
    """

    __slots__ = ("queue", "peak", "assemblers", "_prev")

    def __init__(self, queue: "DropTailQueue") -> None:
        self.queue = queue
        self.peak = 0
        self.assemblers: List["ObservationAssembler"] = []
        # Chains any previously installed observer, mirroring the
        # telemetry hook registry's convention.
        self._prev = queue.on_enqueue
        queue.on_enqueue = self.on_enqueue

    def on_enqueue(self, handle: int) -> None:
        occupancy = self.queue.occupancy_bytes
        if occupancy > self.peak:
            self.peak = occupancy
        if self._prev is not None:
            self._prev(handle)

    def fold(self) -> None:
        peak = self.peak
        if peak:
            for assembler in self.assemblers:
                if peak > assembler._highwater:
                    assembler._highwater = peak
            self.peak = 0


class ObservationAssembler:
    """Builds :class:`Observation` records for one controlled flow.

    One assembler per controlled flow; the environment shares a single
    watched queue across assemblers (each keeps its own high-water window
    so observations for different flows don't steal each other's peaks).
    """

    __slots__ = ("_watch", "_highwater", "_step")

    def __init__(self) -> None:
        self._watch: Optional[_QueuePeak] = None
        self._highwater = 0
        self._step = 0

    def watch_queue(self, queue: "DropTailQueue") -> None:
        """Track ``queue``'s occupancy peaks via its enqueue channel.

        Joins the queue's existing watcher if another assembler installed
        one; otherwise installs it, chaining any previous observer.
        """
        watch = getattr(queue.on_enqueue, "__self__", None)
        if watch.__class__ is not _QueuePeak:
            watch = _QueuePeak(queue)
        # Peaks seen before this assembler joined belong to the others.
        watch.fold()
        watch.assemblers.append(self)
        self._watch = watch
        self._highwater = queue.occupancy_bytes

    def snapshot(
        self,
        sender: "TcpSender",
        flow: int,
        acked_bytes: int,
        marked_bytes: int,
        done: bool = False,
    ) -> Observation:
        """Close the current window and emit its observation."""
        watch = self._watch
        if watch is not None:
            watch.fold()
        stats = sender.stats
        srtt = sender.rtt.srtt_ns
        obs = Observation(
            time_ns=sender.sim.now,
            flow=flow,
            step=self._step,
            cwnd_bytes=sender.cwnd,
            ssthresh_bytes=sender.ssthresh,
            inflight_bytes=sender.bytes_in_flight,
            srtt_ns=int(srtt) if srtt is not None else None,
            alpha=getattr(sender, "alpha", 0.0),
            acked_bytes=acked_bytes,
            marked_fraction=(marked_bytes / acked_bytes) if acked_bytes > 0 else 0.0,
            queue_highwater_bytes=self._highwater,
            timeouts_floss=stats.timeout_count_of(TimeoutKind.FLOSS),
            timeouts_lack=stats.timeout_count_of(TimeoutKind.LACK),
            done=done,
        )
        self._step += 1
        self._highwater = watch.queue.occupancy_bytes if watch is not None else 0
        return obs
