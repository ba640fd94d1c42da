"""The incast benchmark (paper Section VI.B, after Vasudevan et al.).

One aggregator requests ``total_bytes / N`` from each of ``N`` worker
flows; workers respond immediately and simultaneously; the aggregator
waits for **all** responses (barrier) and then issues the next request.
Flows are spread round-robin across the servers (the paper's
multithreaded senders: each server carries several concurrent flows).

Connections are **persistent across rounds**, as in the reference
benchmark (github.com/amarp/incast): the same TCP state — cwnd, ssthresh,
RTT estimate, DCTCP alpha, DCTCP+ slow_time — carries over from round to
round.  This matters: a fresh connection would re-enter slow start every
round and overshoot, which is not what the testbed measures.

Requests are modelled as real 64-byte control packets sent back-to-back
through the aggregator's NIC, so workers start within a few microseconds
of each other — the synchronization that produces the fan-in burst.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter
from typing import Callable, Optional, Tuple

from ..net.pool import PacketPool
from ..net.topology import TwoTierTree
from ..sim.engine import Simulator
from ..sim.units import MB, SEC
from ..tcp.flowstate import FlowLedger
from ..tcp.receiver import TcpReceiver
from ..tcp.sender import TcpSender
from .base import ClosedLoopWorkload, RoundResult
from .ids import next_flow_id
from .protocols import ProtocolSpec


@dataclass
class IncastConfig:
    """Parameters of one incast run."""

    n_flows: int
    #: Total bytes per round, split evenly across flows (paper: 1 MB).
    total_bytes: int = 1 * MB
    #: Overrides the even split: exact bytes requested from *each* flow
    #: (Fig. 14 uses 4 MB per flow).
    bytes_per_flow: Optional[int] = None
    n_rounds: int = 10
    request_bytes: int = 64
    #: Interval between consecutive request issues at the aggregator.  The
    #: reference benchmark's aggregator is a userspace loop over N sockets
    #: ("multiple threads ... in a serially round-robin way"), so requests
    #: leave one send() syscall apart, not back-to-back on the wire.  ~30 us
    #: per request matches syscall + thread wakeup cost on the paper's
    #: 2009-era hardware (Celeron dual-core, CentOS 5.5).
    request_spacing_ns: int = 30_000
    #: Optional worker-side start jitter (models app/OS scheduling noise;
    #: 0 keeps workers perfectly synchronized).
    start_jitter_ns: int = 0
    #: Per-round wall-clock guard; a round that exceeds this is recorded as
    #: failed instead of hanging the simulation.
    round_deadline_ns: int = 60 * SEC
    #: Optional per-flow completion deadline, relative to the round start.
    #: Deadline-aware senders (d2tcp / d2tcp+) modulate their backoff with
    #: it; every protocol gets its misses counted in the round results.
    flow_deadline_ns: Optional[int] = None

    def __post_init__(self) -> None:
        if self.n_flows < 1:
            raise ValueError("need at least one flow")
        if self.bytes_per_flow is None and self.total_bytes < self.n_flows:
            raise ValueError("total_bytes must allow >= 1 byte per flow")
        if self.n_rounds < 1:
            raise ValueError("need at least one round")

    @property
    def sru_bytes(self) -> int:
        """Server request unit: bytes each worker sends per round."""
        if self.bytes_per_flow is not None:
            return self.bytes_per_flow
        return self.total_bytes // self.n_flows

    @property
    def round_bytes(self) -> int:
        return self.sru_bytes * self.n_flows


class _RequestListener:
    """Worker-side endpoint that starts the response on request arrival."""

    __slots__ = ("callback", "_pool_free")

    def __init__(self, callback: Callable[[], None], pool: PacketPool):
        self.callback = callback
        self._pool_free = pool.free

    def on_packet(self, h: int) -> None:
        self._pool_free(h)
        self.callback()


class IncastWorkload(ClosedLoopWorkload):
    """Drives ``n_rounds`` of the incast pattern over persistent flows."""

    def __init__(
        self,
        sim: Simulator,
        tree: TwoTierTree,
        spec: ProtocolSpec,
        config: IncastConfig,
        on_round_end: Optional[Callable[[RoundResult], None]] = None,
    ):
        super().__init__(sim, tree, spec)
        self.config = config
        self.on_round_end = on_round_end
        self._jitter_rng = sim.stream("incast/jitter")
        self._round_index = 0
        self._pending = 0
        self._round_start = 0
        self._missed_this_round = 0
        self._deadline_event = None
        self._bytes_at_round_start = 0
        self._timeouts_at_round_start = 0
        self._build_flows()

    # -- construction ----------------------------------------------------------
    def _build_flows(self) -> None:
        sim = self.sim
        servers = self.tree.servers
        n_servers = len(servers)
        aggregator = self.tree.aggregator
        aggregator_id = aggregator.node_id
        pool = PacketPool.of(sim)
        make_sender = self.spec.make_sender
        on_flow_complete = self._on_flow_complete  # one bound method, not one per flow
        jitter = self.config.start_jitter_ns
        sru = self.config.sru_bytes
        for i in range(self.config.n_flows):
            server = servers[i % n_servers]
            flow_id = next_flow_id()
            ctrl_id = next_flow_id()

            receiver = TcpReceiver(
                sim,
                aggregator,
                server.node_id,
                flow_id,
                expected_bytes=0,
                on_complete=on_flow_complete,
            )
            sender = make_sender(sim, server, aggregator_id, flow_id)
            self.senders.append(sender)
            self.receivers.append(receiver)

            listener = _RequestListener(self._make_starter(sender, sru, jitter), pool)
            server.register_flow(ctrl_id, listener)
            self._ctrl.append((server, ctrl_id))
        # Round accounting reads columns, not endpoints: one itemgetter over
        # the receivers' ledger slots (a one-key itemgetter returns a bare
        # value, so N=1 picks a one-slot slice instead) and the senders'
        # timeout logs, both summed at C speed in a constant number of calls.
        slots = [receiver._slot for receiver in self.receivers]
        self._delivered = FlowLedger.of(sim).bytes_delivered
        self._pick_delivered = (
            itemgetter(*slots) if len(slots) > 1 else itemgetter(slice(slots[0], slots[0] + 1))
        )
        self._timeout_logs = [sender.stats.timeouts for sender in self.senders]

    def _make_starter(self, sender: TcpSender, sru: int, jitter: int) -> Callable[[], None]:
        def _start() -> None:
            if jitter > 0:
                self.sim.schedule(self._jitter_rng.randrange(jitter + 1), sender.send, sru)
            else:
                sender.send(sru)

        return _start

    # -- round lifecycle -----------------------------------------------------------
    def _totals(self) -> Tuple[int, int]:
        """Bytes delivered and timeouts taken so far, over every flow."""
        return sum(self._pick_delivered(self._delivered)), sum(map(len, self._timeout_logs))

    def _begin_round(self) -> None:
        cfg = self.config
        sim = self.sim
        now = sim.now
        self._round_start = now
        self._pending = cfg.n_flows
        self._missed_this_round = 0
        self._bytes_at_round_start, self._timeouts_at_round_start = self._totals()
        if cfg.flow_deadline_ns is not None:
            absolute = now + cfg.flow_deadline_ns
            for sender in self.senders:
                set_deadline = getattr(sender, "set_deadline", None)
                if set_deadline is not None:
                    set_deadline(absolute)
        sru = cfg.sru_bytes
        for receiver in self.receivers:
            receiver.expect(sru)
        pool = PacketPool.of(sim)
        aggregator = self.tree.aggregator
        aggregator_id = aggregator.node_id
        send = aggregator.send
        # Requests are light events (nothing cancels them): one push each,
        # on the sequence stream `schedule` would have used.
        push_light = sim.push_light
        spacing = cfg.request_spacing_ns
        for i, (server, ctrl_id) in enumerate(self._ctrl):
            request = pool.alloc_control(
                ctrl_id,
                aggregator_id,
                server.node_id,
                cfg.request_bytes,
                sim.next_packet_id(),
            )
            if spacing > 0:
                push_light(now + i * spacing, send, request)
            else:
                send(request)
        self._deadline_event = sim.schedule(cfg.round_deadline_ns, self._on_deadline)

    #: The base lifecycle's entry point; the method keeps its own name
    #: because profiles attribute round setup to it by ``__qualname__``.
    _begin = _begin_round

    def _on_flow_complete(self, receiver: TcpReceiver) -> None:
        self._pending -= 1
        deadline = self.config.flow_deadline_ns
        if deadline is not None and self.sim.now > self._round_start + deadline:
            self._missed_this_round += 1
        if self._pending == 0:
            self._end_round(completed=True)

    def _on_deadline(self) -> None:
        self._deadline_event = None
        self._end_round(completed=False)

    def _end_round(self, completed: bool) -> None:
        sim = self.sim
        if self._deadline_event is not None:
            sim.cancel(self._deadline_event)
            self._deadline_event = None
        delivered, timed_out = self._totals()
        result = RoundResult(
            index=self._round_index,
            start_ns=self._round_start,
            duration_ns=sim.now - self._round_start,
            bytes_received=delivered - self._bytes_at_round_start,
            timeouts=timed_out - self._timeouts_at_round_start,
            completed=completed,
            missed_deadlines=self._missed_this_round,
        )
        self.rounds.append(result)
        if self.on_round_end is not None:
            self.on_round_end(result)

        self._round_index += 1
        if self._round_index >= self.config.n_rounds:
            self._finish()
        else:
            sim.schedule(0, self._begin_round)

    # -- aggregate views -------------------------------------------------------------
    @property
    def total_missed_deadlines(self) -> int:
        return sum(r.missed_deadlines for r in self.rounds)

    @property
    def missed_deadline_fraction(self) -> float:
        """Share of (flow, round) completions that blew their deadline."""
        total = len(self.rounds) * self.config.n_flows
        if total == 0:
            return 0.0
        return self.total_missed_deadlines / total
