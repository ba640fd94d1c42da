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
- the queue high-water mark is the :class:`~repro.net.queues.DropTailQueue`
  peak field (``peak_bytes``) that the port writes inline on every
  admit, so watching a queue costs nothing per packet.  Each snapshot
  folds the field into every assembler watching the queue and resets
  it, so each assembler still reports the peak since its own previous
  observation;
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


def _fold_peak(queue: "DropTailQueue", assemblers: List["ObservationAssembler"]) -> None:
    """Fold ``queue``'s peak field into every assembler watching it, then
    reset the field: the one reset owner of a watched queue."""
    peak = queue.peak_bytes
    if peak:
        for assembler in assemblers:
            if peak > assembler._highwater:
                assembler._highwater = peak
        queue.peak_bytes = 0


class ObservationAssembler:
    """Builds :class:`Observation` records for one controlled flow.

    One assembler per controlled flow; the environment shares a single
    watched queue across assemblers (each keeps its own high-water window
    so observations for different flows don't steal each other's peaks).
    """

    __slots__ = ("_queue", "_peers", "_highwater", "_step")

    def __init__(self) -> None:
        self._queue: Optional["DropTailQueue"] = None
        self._peers: List["ObservationAssembler"] = []
        self._highwater = 0
        self._step = 0

    def watch_queue(self, queue: "DropTailQueue", peers: List["ObservationAssembler"]) -> None:
        """Track ``queue``'s occupancy peaks via its peak field.

        Every assembler watching one queue must be given the same ``peers``
        list, because each snapshot resets the field after folding it into
        all of them.  Peaks before this assembler joins go to the others.
        """
        _fold_peak(queue, peers)
        peers.append(self)
        self._queue = queue
        self._peers = peers
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
        queue = self._queue
        if queue is not None:
            _fold_peak(queue, self._peers)
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
        self._highwater = queue.occupancy_bytes if queue is not None else 0
        return obs
