"""Shared skeleton for closed-loop application workloads.

:class:`ClosedLoopWorkload` is the one lifecycle every request/response
workload shares — ``start()`` / ``run_to_completion()`` / ``close()``, a
``rounds`` list of :class:`RoundResult`, lifetime ``flow_stats`` and the
goodput/FCT/timeout aggregates — so the incast, HTTP and swarm workloads
all plug into :func:`repro.exec.run_scenario` the same way.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from ..net.host import Host
from ..sim.units import bits_per_second
from ..tcp.receiver import TcpReceiver
from ..tcp.sender import TcpSender
from .protocols import ProtocolSpec


@dataclass
class RoundResult:
    """Outcome of one request/response round."""

    index: int
    start_ns: int
    duration_ns: int
    bytes_received: int
    timeouts: int
    completed: bool
    #: flows that finished after the configured flow deadline (0 when no
    #: deadline is configured).
    missed_deadlines: int = 0

    @property
    def goodput_bps(self) -> float:
        return bits_per_second(self.bytes_received, self.duration_ns)


class ClosedLoopWorkload:
    """Base for workloads that issue requests, wait, then issue again.

    Subclasses populate ``senders`` / ``receivers`` / ``_ctrl`` during
    construction, implement :meth:`_begin` to kick off the closed loops,
    and call :meth:`_finish` once every loop has drained (workloads of
    independent loops count them in ``_live`` and call :meth:`_loop_done`).
    """

    def __init__(self, sim, tree, spec: ProtocolSpec):
        self.sim = sim
        self.tree = tree
        # Seed the RTT estimator as a persistent connection would be (the
        # connection's handshake and first rounds have measured the path).
        self.spec = spec.seeded_for(tree)
        self.rounds: List[RoundResult] = []
        self.finished = False
        self.senders: List[TcpSender] = []
        self.receivers: List[TcpReceiver] = []
        self._ctrl: List[Tuple[Host, int]] = []
        self._started = False
        self._stop_on_finish = False
        self._live = 0

    @property
    def flow_stats(self) -> List:
        """Per-flow lifetime statistics, in flow-creation order (they span
        all rounds, like the paper's per-flow kernel traces)."""
        return [s.stats for s in self.senders]

    # -- lifecycle -------------------------------------------------------------
    def start(self) -> None:
        """Schedule the first requests at the current simulated time."""
        if self._started:
            raise RuntimeError("workload already started")
        self._started = True
        self.sim.schedule(0, self._begin)

    def _begin(self) -> None:
        raise NotImplementedError

    def run_to_completion(self, max_events: Optional[int] = None) -> None:
        """Start (if needed) and pump the simulator until every loop ends.

        Only runs pumped here stop at workload completion; a caller driving
        ``sim.run(until=...)`` itself (e.g. to keep a queue sampler or
        background traffic going past the last round) runs to its own bound.
        """
        if not self._started:
            self.start()
        if not self.finished:
            self._stop_on_finish = True
            try:
                self.sim.run(max_events=max_events)
            finally:
                self._stop_on_finish = False

    def _finish(self) -> None:
        """Mark the workload complete; stops the pump when we own it."""
        self.finished = True
        # Stop via the engine flag rather than a per-event stop_when
        # predicate — but only when run_to_completion is the pump, so a
        # caller's own sim.run(until=...) keeps its scope.
        if self._stop_on_finish:
            self.sim.request_stop()

    def _loop_done(self) -> None:
        """One independent loop has drained; the last one ends the workload."""
        self._live -= 1
        if self._live == 0:
            self._finish()

    def close(self) -> None:
        """Tear down all endpoints (end of the experiment)."""
        for sender in self.senders:
            sender.close()
        for receiver in self.receivers:
            receiver.close()
        for host, ctrl_id in self._ctrl:
            host.unregister_flow(ctrl_id)
        self._ctrl = []

    # -- aggregate views -------------------------------------------------------
    @property
    def mean_goodput_bps(self) -> float:
        """Average application goodput across requests (incast: across
        rounds — paper Fig. 1/7/8/11)."""
        if not self.rounds:
            return 0.0
        return sum(r.goodput_bps for r in self.rounds) / len(self.rounds)

    @property
    def mean_fct_ns(self) -> float:
        """Average request completion time (incast: round completion time,
        the paper's FCT — Fig. 7/12)."""
        if not self.rounds:
            return 0.0
        return sum(r.duration_ns for r in self.rounds) / len(self.rounds)

    @property
    def total_timeouts(self) -> int:
        return sum(r.timeouts for r in self.rounds)

    @property
    def total_reordered_packets(self) -> int:
        """Receiver-observed reordering across all flows (multipath spray)."""
        return sum(r.reordered_packets for r in self.receivers)
