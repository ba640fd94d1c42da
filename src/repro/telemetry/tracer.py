"""Typed, append-only event tracing — the unified observability record.

A :class:`Tracer` turns the hook points scattered through the simulator
(queue drops and CE marks, retransmissions, RTOs with their FLoss/LAck
classification, slow_time state-machine activity, queue high-watermarks)
into one flat stream of :class:`TraceRecord` rows.  The paper's entire
diagnosis (Table I, Fig. 2, Fig. 9) is built from exactly this kind of
event-level visibility; the tracer makes it available for *any* scenario
instead of per-figure ad-hoc probes.

Cost model: when no tracer is attached, every hook point is a single
``is None`` test (senders) or entirely absent (queues — the dispatch
chains are only installed on watched queues); queue peaks are read off
``DropTailQueue.peak_bytes`` when a run returns.  The tracer itself never
schedules simulator events, so event counts, golden digests and RNG
draws are identical whether tracing is on or off.

Usage::

    tracer = Tracer()
    sim = Simulator(seed=1, tracer=tracer)
    ... build topology / workload, run ...
    for rec in tracer.of_kind("rto"):
        print(rec.time_ns, rec.subject, rec.detail)
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, NamedTuple, Tuple, Union

from .collector import Collector

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids import cycles
    from ..core.state_machine import SlowTimeStateMachine
    from ..net.queues import DropTailQueue
    from ..sim.engine import Simulator
    from ..tcp.sender import TcpSender
    from ..tcp.timeouts import TimeoutKind

#: Every record kind a tracer can emit.
EVENT_KINDS = (
    "drop",  # queue rejected a packet (subject: queue, value: occupancy B)
    "mark",  # queue set CE on a packet (subject: queue, value: occupancy B)
    "retransmit",  # sender retransmitted (subject: flow, value: seq)
    "rto",  # RTO fired (subject: flow, value: backoff, detail: FLoss/LAck)
    "state",  # slow_time machine transition (detail: "FROM->TO")
    "slow_time",  # slow_time value changed (value: slow_time ns)
    "queue_hwm",  # queue peak risen during a run() (value: bytes, time: first reached)
)


class TraceRecord(NamedTuple):
    """One traced event: a uniform 5-tuple, cheap to append and serialize."""

    time_ns: int
    kind: str
    subject: str
    value: Union[int, float]
    detail: str = ""


class Tracer(Collector):
    """Collects :class:`TraceRecord` rows from the engine's hook points.

    Attach by passing the tracer to the :class:`~repro.sim.engine.Simulator`
    constructor *before* building components — the hook registry wires the
    queue/sender/state-machine probes at component construction.

    The record list is append-only and bounded by ``max_records``; once the
    bound is hit further events are silently dropped and ``truncated`` is
    set (a trace that lies by omission must say so).
    """

    def __init__(self, max_records: int = 2_000_000):
        if max_records <= 0:
            raise ValueError(f"max_records must be positive, got {max_records}")
        self.max_records = max_records
        self.records: List[TraceRecord] = []
        self.truncated = False
        self.sim: "Simulator" = None  # bound by Simulator.__init__
        # [queue, name, peak last recorded] per registered queue.
        self._queues: List[list] = []
        self._flow_labels: Dict[int, int] = {}

    def bind(self, sim: "Simulator") -> None:
        self.sim = sim

    def register_sender(self, sender: "TcpSender") -> None:
        """Dispatched by the HookRegistry at sender construction."""
        self._flow_label(sender.flow_id)

    def _flow_label(self, flow_id: int) -> int:
        """Per-trace flow ordinal (assigned in sender-creation order).

        Raw flow ids come from a process-global counter (unique across
        *every* simulation in the process), so writing them into records
        would make two identical runs trace differently.  The ordinal is
        per-run deterministic, which keeps traces byte-comparable across
        runs and processes.
        """
        labels = self._flow_labels
        label = labels.get(flow_id)
        if label is None:
            label = labels[flow_id] = len(labels)
        return label

    # -- emission ---------------------------------------------------------------
    def _emit(self, kind: str, subject: str, value, detail: str = "") -> None:
        records = self.records
        if len(records) >= self.max_records:
            self.truncated = True
            return
        records.append(TraceRecord(self.sim.now, kind, subject, value, detail))

    # -- queue hooks (dispatched by the HookRegistry) ----------------------------
    def queue_dropped(self, queue: "DropTailQueue", name: str, h: int) -> None:
        flow_id = self.sim.pool.flow_id[h]
        self._emit("drop", name, queue.occupancy_bytes, f"flow={self._flow_label(flow_id)}")

    def queue_marked(self, queue: "DropTailQueue", name: str, h: int) -> None:
        flow_id = self.sim.pool.flow_id[h]
        self._emit("mark", name, queue.occupancy_bytes, f"flow={self._flow_label(flow_id)}")

    def register_queue(self, queue: "DropTailQueue", name: str) -> None:
        self._queues.append([queue, name, 0])

    def run_ended(self) -> None:
        """Record each queue whose peak rose during the run (called by
        :meth:`Simulator.run` on return).  The record carries the time the
        peak was first reached; the field itself is left as it is."""
        for entry in self._queues:
            queue = entry[0]
            peak = queue.peak_bytes
            if peak > entry[2]:
                entry[2] = peak
                if len(self.records) >= self.max_records:
                    self.truncated = True
                    return
                self.records.append(TraceRecord(queue.peak_ns, "queue_hwm", entry[1], peak))

    # -- sender hooks (called directly via sender._tracer) -----------------------
    def rto_fired(self, sender: "TcpSender", kind: "TimeoutKind") -> None:
        self._emit("rto", f"flow:{self._flow_label(sender.flow_id)}", sender.rto_backoff, kind.value)

    def retransmitted(self, sender: "TcpSender", seq: int) -> None:
        self._emit("retransmit", f"flow:{self._flow_label(sender.flow_id)}", seq)

    # -- state-machine hook (dispatched by the HookRegistry) ---------------------
    def attach_machine(self, machine: "SlowTimeStateMachine", sender: "TcpSender") -> None:
        subject = f"flow:{self._flow_label(sender.flow_id)}"
        prev_state = [machine.state]

        def _on_update(m: "SlowTimeStateMachine", cause: str) -> None:
            state = m.state
            if state is not prev_state[0]:
                self._emit(
                    "state",
                    subject,
                    m.slow_time_ns,
                    f"{prev_state[0].value}->{state.value}",
                )
                prev_state[0] = state
            self._emit("slow_time", subject, m.slow_time_ns, cause)

        machine.on_update = _on_update

    # -- views ------------------------------------------------------------------
    def of_kind(self, kind: str) -> List[TraceRecord]:
        return [r for r in self.records if r.kind == kind]

    def counts_by_kind(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for record in self.records:
            counts[record.kind] = counts.get(record.kind, 0) + 1
        return counts

    def high_watermarks(self) -> Dict[str, int]:
        """Final per-queue occupancy peaks, keyed by queue name."""
        peaks: Dict[str, int] = {}
        for record in self.records:
            if record.kind == "queue_hwm":
                peaks[record.subject] = int(record.value)
        return peaks

    # Collector-style export surface (see repro.telemetry.collector).
    def schema(self) -> Tuple[str, ...]:
        return TraceRecord._fields

    def rows(self) -> List[TraceRecord]:
        return self.records

    def __len__(self) -> int:
        return len(self.records)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Tracer({len(self.records)} records, truncated={self.truncated})"
