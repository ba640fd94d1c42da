"""Production-cluster benchmark traffic (paper Section VI.D).

Three streams share the testbed, following the statistics of the DCTCP
paper's production cluster:

- **Queries**: Poisson arrivals; each query fans out over
  ``query_fanout`` **persistent** worker connections (round-robin over the
  servers, exactly like the incast benchmark) that each respond with 2 KB
  to the aggregator.  The query's FCT is the time until *all* responses
  arrive (partition/aggregate semantics).  Persistence matters twice: it
  is how the real benchmark runs, and it is what lets DCTCP+'s slow_time
  state span queries — a fresh 2-packet connection has no room to pace.
- **Short messages**: 50 KB - 1 MB flows between random hosts.
- **Background flows**: heavy-tailed 1 KB - 50 MB flows between random
  hosts, bursty inter-arrivals.

The paper runs 7,000 queries and 7,000 background flows with
``RTO_min = 10 ms`` for both DCTCP+ and DCTCP; Fig. 13 reports the
mean / 95th / 99th-percentile FCT per category.  With a fan-in of a few
hundred flows per query (this paper's regime), each query is itself a
micro-incast: DCTCP takes ~one 10 ms RTO per query on average (mean FCT
13.6 ms) while DCTCP+ paces through at 4.1 ms.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..net.host import Host
from ..net.topology import TwoTierTree
from ..sim.engine import Simulator
from ..sim.units import KB, MS
from ..tcp.receiver import TcpReceiver
from ..tcp.sender import TcpSender
from ..telemetry.taxonomy import Summary
from .distributions import (
    BACKGROUND_FLOW_SIZE_CDF,
    BACKGROUND_INTERARRIVAL_CDF,
    SHORT_MESSAGE_SIZE_CDF,
    EmpiricalCDF,
    exponential_interarrival_ns,
    sample_flow_size_bytes,
)
from .ids import next_flow_id
from .protocols import ProtocolSpec


@dataclass
class BenchmarkConfig:
    """Scale and shape of the benchmark mix."""

    n_queries: int = 7000
    n_background: int = 7000
    n_short_messages: int = 1000
    #: concurrent response flows per query.  The paper studies the
    #: massive-fan-in regime (its incast experiments run to 200+ flows);
    #: 200 makes each query a micro-incast that overflows the pipeline
    #: capacity unless paced.
    query_fanout: int = 200
    query_response_bytes: int = 2 * KB
    query_interarrival_mean_ns: int = 10 * MS
    #: per-request issue spacing at the aggregator for query fan-out
    #: (2 KB query requests issue faster than the incast benchmark's
    #: full-response requests).
    request_spacing_ns: int = 20_000
    #: probability a short/background flow targets the aggregator (and so
    #: crosses the studied bottleneck) rather than another server.
    to_aggregator_prob: float = 0.5
    #: optional cap on sampled flow sizes — used by the reduced-scale
    #: benches so a single 50 MB tail sample cannot dominate the runtime.
    max_flow_bytes: Optional[int] = None
    #: distributions (overridable for sensitivity studies)
    background_size_cdf: EmpiricalCDF = field(default=BACKGROUND_FLOW_SIZE_CDF)
    background_interarrival_cdf: EmpiricalCDF = field(default=BACKGROUND_INTERARRIVAL_CDF)
    short_size_cdf: EmpiricalCDF = field(default=SHORT_MESSAGE_SIZE_CDF)

    def __post_init__(self) -> None:
        if self.query_fanout < 1:
            raise ValueError("query_fanout must be >= 1")
        if not 0.0 <= self.to_aggregator_prob <= 1.0:
            raise ValueError("to_aggregator_prob must be in [0, 1]")
        if min(self.n_queries, self.n_background, self.n_short_messages) < 0:
            raise ValueError("stream counts must be non-negative")


@dataclass
class FlowRecord:
    """Completion record for one benchmark flow or query."""

    category: str  # "query" | "background" | "short"
    start_ns: int
    end_ns: int
    total_bytes: int
    timeouts: int

    @property
    def fct_ns(self) -> int:
        return self.end_ns - self.start_ns


class _QueryEngine:
    """Persistent partition/aggregate fan-out shared by all queries.

    One TCP connection per fan-out slot lives for the whole benchmark;
    query ``q``'s completion target on every connection is
    ``(q + 1) * response_bytes`` of cumulatively delivered data.  Because
    TCP delivers in order, targets complete in issue order per connection.
    """

    def __init__(self, workload: "BenchmarkWorkload"):
        self.wl = workload
        cfg = workload.config
        tree = workload.tree
        sim = workload.sim
        self.resp_bytes = cfg.query_response_bytes
        self.senders: List[TcpSender] = []
        self.receivers: List[TcpReceiver] = []
        self.delivered: List[int] = []
        self.next_target: List[int] = []  # per-flow index of next query target
        self.pending: Dict[int, int] = {}  # query index -> flows not yet done
        self.start_ns: Dict[int, int] = {}
        self.issued = 0
        self._one_way = tree.baseline_rtt_ns() // 2
        for i in range(cfg.query_fanout):
            server = tree.servers[i % len(tree.servers)]
            flow_id = next_flow_id()
            receiver = TcpReceiver(
                sim,
                tree.aggregator,
                server.node_id,
                flow_id,
                expected_bytes=None,
                on_data=self._make_on_data(i),
            )
            sender = workload.spec.make_sender(sim, server, tree.aggregator.node_id, flow_id)
            self.senders.append(sender)
            self.receivers.append(receiver)
            self.delivered.append(0)
            self.next_target.append(0)

    def issue(self) -> int:
        """Launch the next query; returns its index."""
        q = self.issued
        self.issued += 1
        cfg = self.wl.config
        sim = self.wl.sim
        self.pending[q] = cfg.query_fanout
        self.start_ns[q] = sim.now
        for i, sender in enumerate(self.senders):
            delay = self._one_way + i * cfg.request_spacing_ns
            sim.schedule(delay, self._respond, sender)
        return q

    def _respond(self, sender: TcpSender) -> None:
        if not sender.closed:
            sender.send(self.resp_bytes)

    def _make_on_data(self, i: int):
        def _on_data(nbytes: int) -> None:
            self.delivered[i] += nbytes
            while (
                self.next_target[i] < self.issued
                and self.delivered[i] >= (self.next_target[i] + 1) * self.resp_bytes
            ):
                q = self.next_target[i]
                self.next_target[i] += 1
                self.pending[q] -= 1
                if self.pending[q] == 0:
                    del self.pending[q]
                    wl = self.wl
                    wl._record(
                        FlowRecord(
                            "query",
                            self.start_ns.pop(q),
                            wl.sim.now,
                            self.resp_bytes * len(self.senders),
                            0,
                        )
                    )
                    wl._flow_finished()

        return _on_data

    @property
    def total_timeouts(self) -> int:
        return sum(s.stats.timeout_count for s in self.senders)

    def close(self) -> None:
        for s in self.senders:
            s.close()
        for r in self.receivers:
            r.close()


class BenchmarkWorkload:
    """Drives the three-stream benchmark mix to completion."""

    def __init__(
        self,
        sim: Simulator,
        tree: TwoTierTree,
        spec: ProtocolSpec,
        config: Optional[BenchmarkConfig] = None,
    ):
        self.sim = sim
        self.tree = tree
        self.spec = spec.seeded_for(tree)
        self.config = config or BenchmarkConfig()
        self.records: List[FlowRecord] = []
        self.finished = False
        self._queries_left = self.config.n_queries
        self._bg_left = self.config.n_background
        self._short_left = self.config.n_short_messages
        self._open_flows = 0
        self._rng_query = sim.stream("benchmark/query")
        self._rng_bg = sim.stream("benchmark/background")
        self._rng_short = sim.stream("benchmark/short")
        self._started = False
        self._stop_on_finish = False
        self.query_engine: Optional[_QueryEngine] = None

    # -- public --------------------------------------------------------------
    def start(self) -> None:
        if self._started:
            raise RuntimeError("benchmark already started")
        self._started = True
        if self.config.n_queries > 0:
            self.query_engine = _QueryEngine(self)
            self.sim.schedule(
                exponential_interarrival_ns(
                    self._rng_query, self.config.query_interarrival_mean_ns
                ),
                self._next_query,
            )
        if self.config.n_background > 0:
            self.sim.schedule(
                max(1, int(self.config.background_interarrival_cdf.sample(self._rng_bg))),
                self._next_background,
            )
        if self.config.n_short_messages > 0:
            self.sim.schedule(
                max(1, int(self.config.background_interarrival_cdf.sample(self._rng_short))),
                self._next_short,
            )
        self._check_done()

    def run_to_completion(self, max_events: Optional[int] = None) -> None:
        """Start (if needed) and pump the simulator until all flows finish.

        Only runs pumped here stop at workload completion; a caller driving
        ``sim.run(until=...)`` itself runs to its own bound.
        """
        if not self._started:
            self.start()
        if not self.finished:
            self._stop_on_finish = True
            try:
                self.sim.run(max_events=max_events)
            finally:
                self._stop_on_finish = False

    def close(self) -> None:
        if self.query_engine is not None:
            self.query_engine.close()

    # -- stream generators -------------------------------------------------------
    def _next_query(self) -> None:
        if self._queries_left <= 0:
            return
        self._queries_left -= 1
        self._open_flows += 1
        self.query_engine.issue()
        if self._queries_left > 0:
            self.sim.schedule(
                exponential_interarrival_ns(
                    self._rng_query, self.config.query_interarrival_mean_ns
                ),
                self._next_query,
            )

    def _next_background(self) -> None:
        if self._bg_left <= 0:
            return
        self._bg_left -= 1
        size = sample_flow_size_bytes(self._rng_bg, self.config.background_size_cdf)
        self._launch_point_flow("background", size, self._rng_bg)
        if self._bg_left > 0:
            gap = max(1, int(self.config.background_interarrival_cdf.sample(self._rng_bg)))
            self.sim.schedule(gap, self._next_background)

    def _next_short(self) -> None:
        if self._short_left <= 0:
            return
        self._short_left -= 1
        size = sample_flow_size_bytes(self._rng_short, self.config.short_size_cdf)
        self._launch_point_flow("short", size, self._rng_short)
        if self._short_left > 0:
            gap = max(1, int(self.config.background_interarrival_cdf.sample(self._rng_short)))
            self.sim.schedule(gap, self._next_short)

    # -- point-to-point flows ------------------------------------------------------
    def _launch_point_flow(self, category: str, size: int, rng) -> None:
        cfg = self.config
        if cfg.max_flow_bytes is not None:
            size = min(size, cfg.max_flow_bytes)
        tree = self.tree
        src = tree.servers[rng.randrange(len(tree.servers))]
        if rng.random() < cfg.to_aggregator_prob:
            dst: Host = tree.aggregator
        else:
            others = [s for s in tree.servers if s is not src]
            dst = others[rng.randrange(len(others))]
        flow_id = next_flow_id()
        start_ns = self.sim.now
        self._open_flows += 1
        state: Dict[str, object] = {}

        def _on_complete(receiver: TcpReceiver) -> None:
            sender: TcpSender = state["sender"]  # type: ignore[assignment]
            self._record(
                FlowRecord(category, start_ns, self.sim.now, size, sender.stats.timeout_count)
            )
            sender.close()
            receiver.close()
            self._flow_finished()

        receiver = TcpReceiver(
            self.sim,
            dst,
            src.node_id,
            flow_id,
            expected_bytes=size,
            on_complete=_on_complete,
        )
        sender = self.spec.make_sender(self.sim, src, dst.node_id, flow_id)
        state["sender"] = sender
        sender.send(size)

    # -- completion tracking ---------------------------------------------------------
    def _record(self, record: FlowRecord) -> None:
        self.records.append(record)

    def _flow_finished(self) -> None:
        self._open_flows -= 1
        self._check_done()

    def _check_done(self) -> None:
        if (
            self._queries_left == 0
            and self._bg_left == 0
            and self._short_left == 0
            and self._open_flows == 0
        ):
            self.finished = True
            # Engine-level stop flag instead of a per-event stop_when
            # predicate — but only when run_to_completion is the pump, so a
            # caller's own sim.run(until=...) keeps its scope
            # (run_to_completion guards the already-finished case).
            if self._stop_on_finish:
                self.sim.request_stop()

    # -- views --------------------------------------------------------------------------
    def fct_summary_ms(self, category: str) -> Summary:
        """mean/p95/p99 FCT (milliseconds) for one category (Fig. 13)."""
        fcts = [r.fct_ns / 1e6 for r in self.records if r.category == category]
        return Summary.of(fcts)

    def timeout_total(self, category: str) -> int:
        """Timeouts attributed to a category's senders."""
        if category == "query":
            return self.query_engine.total_timeouts if self.query_engine else 0
        return sum(r.timeouts for r in self.records if r.category == category)
