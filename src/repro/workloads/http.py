"""HTTP-style closed-loop request/response workload.

Each client runs the classic closed loop: issue a request, wait for the
full response, *think*, repeat.  Clients live on the network's
``aggregator`` host and fetch from the ``servers`` round-robin, so all
responses fan in through the topology's bottleneck — the application
shape behind the paper's Fig. 11/12 background-traffic discussion, as
opposed to the barrier-synchronized incast.

Response sizes and think times come from the empirical CDFs in
:mod:`repro.workloads.distributions` (drawn from per-client named
simulator streams, so a scenario replays identically anywhere).  Every
completed request is recorded as a
:class:`~repro.workloads.base.RoundResult`, so the scenario layer's
goodput / p99-FCT / timeout-taxonomy path consumes this workload
unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Union

from ..net.pool import PacketPool
from ..sim.engine import Simulator
from ..sim.units import MS, SEC
from ..tcp.receiver import TcpReceiver
from .base import ClosedLoopWorkload, RoundResult
from .distributions import (
    BACKGROUND_FLOW_SIZE_CDF,
    BACKGROUND_INTERARRIVAL_CDF,
    SHORT_MESSAGE_SIZE_CDF,
    sample_flow_size_bytes,
)
from .ids import next_flow_id
from .incast import _RequestListener
from .protocols import ProtocolSpec

#: Named response-size distributions selectable from a spec (strings keep
#: :class:`~repro.exec.ScenarioSpec` overrides JSON-able and hashable).
RESPONSE_SIZE_CDFS = {
    "short-message": SHORT_MESSAGE_SIZE_CDF,
    "background": BACKGROUND_FLOW_SIZE_CDF,
}


@dataclass
class HttpConfig:
    """Parameters of one closed-loop HTTP run."""

    n_clients: int
    #: Requests each client issues before its loop ends.
    n_requests: int = 10
    #: Response size: a :data:`RESPONSE_SIZE_CDFS` name, or fixed bytes.
    response_size: Union[int, str] = "short-message"
    #: Think-time model between a response and the next request:
    #: ``"cdf"`` samples :data:`BACKGROUND_INTERARRIVAL_CDF` (scaled by
    #: ``think_scale``), ``"fixed"`` waits ``think_ns``, ``"none"`` reissues
    #: immediately (a pure back-to-back closed loop).
    think_mode: str = "cdf"
    think_scale: float = 1.0
    think_ns: int = 1 * MS
    request_bytes: int = 64
    #: Per-request give-up guard: a client whose request exceeds this stops
    #: issuing (the request is recorded as failed) instead of hanging.
    request_deadline_ns: int = 60 * SEC

    def __post_init__(self) -> None:
        if self.n_clients < 1:
            raise ValueError("need at least one client")
        if self.n_requests < 1:
            raise ValueError("need at least one request per client")
        if isinstance(self.response_size, str):
            if self.response_size not in RESPONSE_SIZE_CDFS:
                raise ValueError(
                    f"unknown response-size distribution {self.response_size!r}; "
                    f"choose from {sorted(RESPONSE_SIZE_CDFS)} or pass fixed bytes"
                )
        elif self.response_size < 1:
            raise ValueError("fixed response size must be >= 1 byte")
        if self.think_mode not in ("cdf", "fixed", "none"):
            raise ValueError(f"unknown think mode {self.think_mode!r}")
        if self.think_scale < 0:
            raise ValueError("think_scale must be >= 0")


class _HttpClient:
    """Per-client closed-loop state."""

    __slots__ = (
        "index",
        "server",
        "sender",
        "receiver",
        "ctrl_id",
        "next_bytes",
        "requests_done",
        "gave_up",
        "request_start_ns",
        "bytes_at_start",
        "timeouts_at_start",
        "deadline_event",
        "size_rng",
        "think_rng",
    )

    def __init__(self, index):
        self.index = index
        self.next_bytes = 0
        self.requests_done = 0
        self.gave_up = False
        self.request_start_ns = 0
        self.bytes_at_start = 0
        self.timeouts_at_start = 0
        self.deadline_event = None


class HttpWorkload(ClosedLoopWorkload):
    """Drives ``n_clients`` independent closed request/response loops."""

    def __init__(
        self,
        sim: Simulator,
        tree,
        spec: ProtocolSpec,
        config: HttpConfig,
    ):
        super().__init__(sim, tree, spec)
        self.config = config
        self.clients: List[_HttpClient] = []
        self._build_clients()

    # -- construction ----------------------------------------------------------
    def _build_clients(self) -> None:
        sim = self.sim
        tree = self.tree
        servers = tree.servers
        pool = PacketPool.of(sim)
        for i in range(self.config.n_clients):
            client = _HttpClient(i)
            client.server = servers[i % len(servers)]
            client.size_rng = sim.stream(f"http/size/{i}")
            client.think_rng = sim.stream(f"http/think/{i}")
            flow_id = next_flow_id()
            ctrl_id = next_flow_id()
            # The response flows server -> client host (fan-in through the
            # bottleneck); the request is a control packet the other way.
            client.receiver = TcpReceiver(
                sim,
                tree.aggregator,
                client.server.node_id,
                flow_id,
                expected_bytes=0,
                on_complete=self._make_on_response(client),
            )
            client.sender = self.spec.make_sender(
                sim, client.server, tree.aggregator.node_id, flow_id
            )
            self.senders.append(client.sender)
            self.receivers.append(client.receiver)
            listener = _RequestListener(self._make_responder(client), pool)
            client.server.register_flow(ctrl_id, listener)
            self._ctrl.append((client.server, ctrl_id))
            client.ctrl_id = ctrl_id
            self.clients.append(client)

    def _make_responder(self, client: _HttpClient):
        def _respond() -> None:
            client.sender.send(client.next_bytes)

        return _respond

    def _make_on_response(self, client: _HttpClient):
        def _on_response(_receiver) -> None:
            self._on_response(client)

        return _on_response

    # -- the closed loop -------------------------------------------------------
    def _begin(self) -> None:
        self._live = len(self.clients)
        for client in self.clients:
            self._issue(client)

    def _draw_response_bytes(self, client: _HttpClient) -> int:
        size = self.config.response_size
        if isinstance(size, str):
            return sample_flow_size_bytes(client.size_rng, RESPONSE_SIZE_CDFS[size])
        return size

    def _issue(self, client: _HttpClient) -> None:
        sim = self.sim
        cfg = self.config
        client.next_bytes = self._draw_response_bytes(client)
        client.request_start_ns = sim.now
        client.bytes_at_start = client.receiver.bytes_delivered
        client.timeouts_at_start = client.sender.stats.timeout_count
        client.receiver.expect(client.next_bytes)
        request = PacketPool.of(sim).alloc_control(
            client.ctrl_id,
            self.tree.aggregator.node_id,
            client.server.node_id,
            cfg.request_bytes,
        )
        self.tree.aggregator.send(request)
        client.deadline_event = sim.schedule(
            cfg.request_deadline_ns, self._on_giveup, client
        )

    def _record(self, client: _HttpClient, completed: bool) -> None:
        sim = self.sim
        self.rounds.append(
            RoundResult(
                index=len(self.rounds),
                start_ns=client.request_start_ns,
                duration_ns=sim.now - client.request_start_ns,
                bytes_received=client.receiver.bytes_delivered - client.bytes_at_start,
                timeouts=client.sender.stats.timeout_count - client.timeouts_at_start,
                completed=completed,
            )
        )

    def _on_response(self, client: _HttpClient) -> None:
        if client.gave_up:
            return  # a response that limped in after the give-up guard
        sim = self.sim
        if client.deadline_event is not None:
            sim.cancel(client.deadline_event)
            client.deadline_event = None
        self._record(client, completed=True)
        client.requests_done += 1
        if client.requests_done >= self.config.n_requests:
            self._loop_done()
            return
        think = self._think_ns(client)
        if think > 0:
            sim.schedule(think, self._issue, client)
        else:
            self._issue(client)

    def _on_giveup(self, client: _HttpClient) -> None:
        client.deadline_event = None
        client.gave_up = True
        self._record(client, completed=False)
        self._loop_done()

    def _think_ns(self, client: _HttpClient) -> int:
        cfg = self.config
        if cfg.think_mode == "none":
            return 0
        if cfg.think_mode == "fixed":
            return cfg.think_ns
        draw = BACKGROUND_INTERARRIVAL_CDF.sample(client.think_rng)
        return max(0, int(draw * cfg.think_scale))
