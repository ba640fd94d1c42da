"""Declarative experiment points.

A :class:`ScenarioSpec` is a frozen, hashable, picklable description of
**one** simulation point — (protocol, N, seed) plus every knob the figure
drivers vary.  Because the spec is pure data, a point can be handed to a
worker process, replayed later, or used as a cache key; because every
simulation is seeded through :class:`~repro.sim.rng.RngRegistry` with
per-simulation stream names, running the same spec anywhere yields the
same :class:`PointResult`.

:func:`run_scenario` is the one place a spec is turned into a simulation:
it builds a fresh :class:`~repro.sim.engine.Simulator`, topology and
workload, runs to completion, and returns a :class:`PointResult` carrying
the aggregates, the per-flow statistics and wall-clock/event telemetry.
"""

from __future__ import annotations

import gc
import hashlib
import json
import time
from dataclasses import asdict, dataclass, field, fields
from functools import cached_property
from itertools import accumulate, chain, pairwise, starmap
from operator import attrgetter
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

from ..net.faults import drop_nth, make_lossy, random_loss
from ..net.topology import (
    TopologyParams,
    TwoTierTree,
    check_wiring,
    topology_builder,
)
from ..sim.engine import Simulator
from ..tcp.flowstats import FlowStats
from ..tcp.timeouts import TimeoutKind
from ..telemetry.collector import QueueSampler
from ..telemetry.tracer import Tracer, TraceRecord
from ..workloads.background import BackgroundTraffic
from ..workloads.http import HttpConfig, HttpWorkload
from ..workloads.incast import IncastConfig, IncastWorkload
from ..workloads.protocols import ProtocolSpec, spec_for
from ..workloads.swarm import SwarmConfig, SwarmWorkload

#: Bumped whenever the on-disk result encoding changes shape; part of the
#: cache key so stale entries from older encodings never decode.
#: v3: ScenarioSpec.cc dimension + PointResult.round_durations_ns.
#: v4: ScenarioSpec.topology / workload / workload_overrides dimensions.
#: v5: external CC policies (cc="external:<policy>") resolve through the
#:     strategy registry; their senders ride the CC event protocol.
#: v6: columnar ``flow_stats`` / ``trace_events`` (one array per field); the
#:     key hashes version, schema and :attr:`ScenarioSpec.canonical_text`.
SCHEMA_VERSION = 6

#: Spec-level workload names (see :func:`_make_workload`): the incast
#: barrier benchmark, the HTTP closed loop, and the many-to-many swarm.
WORKLOAD_NAMES = ("incast", "http", "swarm")

Overrides = Tuple[Tuple[str, object], ...]


def _freeze(overrides: Optional[Mapping[str, object]]) -> Overrides:
    """Normalize an override mapping to a sorted, hashable tuple of pairs."""
    if not overrides:
        return ()
    return tuple(sorted(overrides.items()))


def _listify(value: tuple) -> list:
    """Tuples to lists at every depth, as a trip through JSON does."""
    return [_listify(item) if item.__class__ is tuple else item for item in value]


def canonical_json(payload: object) -> str:
    """The one JSON encoding stores compare by: sorted keys, no spaces."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


@dataclass(frozen=True)
class ScenarioSpec:
    """Everything needed to reproduce one (protocol, N, seed) measurement."""

    protocol: str
    n_flows: int
    rounds: int = 20
    seed: int = 1
    tcp_overrides: Overrides = ()
    plus_overrides: Overrides = ()
    incast_overrides: Overrides = ()
    #: () means "builder defaults"; otherwise the full TopologyParams fields.
    topo_overrides: Overrides = ()
    #: fault injection on the bottleneck link, as pure data (see
    #: :func:`_apply_faults`); () means no injected faults.
    fault_overrides: Overrides = ()
    with_background: bool = False
    sample_queue: bool = False
    #: record telemetry trace events (repro.telemetry.Tracer) during the
    #: run; the tracer schedules no events, so results are identical to an
    #: untraced run apart from the ``trace_events`` payload.
    trace: bool = False
    max_events: int = 400_000_000
    #: Congestion-control strategy override (a repro.tcp.cc registry name).
    #: "" — the default — derives the strategy from ``protocol``; a
    #: non-empty value selects the strategy while ``protocol`` remains the
    #: point's reporting label.  Part of to_dict(), so it joins the cache
    #: key and the fuzzer's differential digests.
    cc: str = ""
    #: Network shape (a :data:`repro.net.topology.TOPOLOGIES` name).
    topology: str = "two-tier"
    #: Application shape (a :data:`WORKLOAD_NAMES` entry).  ``n_flows`` maps
    #: onto the workload's fan-out (flows / clients / peers) and ``rounds``
    #: onto its repetition count (rounds / requests / pieces).
    workload: str = "incast"
    #: Overrides for the non-incast workload configs (``incast_overrides``
    #: keeps serving the incast workload, unchanged).
    workload_overrides: Overrides = ()

    @classmethod
    def create(
        cls,
        protocol: str,
        n_flows: int,
        rounds: int = 20,
        seed: int = 1,
        rto_min_ms: Optional[float] = None,
        min_cwnd_mss: Optional[float] = None,
        tcp_overrides: Optional[Mapping[str, object]] = None,
        plus_overrides: Optional[Mapping[str, object]] = None,
        incast_overrides: Optional[Mapping[str, object]] = None,
        topo: Optional[Union[TopologyParams, Mapping[str, object]]] = None,
        fault_overrides: Optional[Mapping[str, object]] = None,
        with_background: bool = False,
        sample_queue: bool = False,
        trace: bool = False,
        max_events: int = 400_000_000,
        cc: str = "",
        topology: str = "two-tier",
        workload: str = "incast",
        workload_overrides: Optional[Mapping[str, object]] = None,
    ) -> "ScenarioSpec":
        """Build a spec from the kwargs the figure drivers historically used.

        ``rto_min_ms`` / ``min_cwnd_mss`` are folded into ``tcp_overrides``
        (:func:`repro.experiments.common.make_spec` resolves through here).
        """
        tcp: Dict[str, object] = dict(tcp_overrides or {})
        if rto_min_ms is not None:
            tcp["rto_min_ns"] = int(rto_min_ms * 1e6)
        if min_cwnd_mss is not None:
            tcp["min_cwnd_mss"] = min_cwnd_mss
        if isinstance(topo, TopologyParams):
            topo = asdict(topo)
        return cls(
            protocol=protocol,
            n_flows=n_flows,
            rounds=rounds,
            seed=seed,
            tcp_overrides=_freeze(tcp),
            plus_overrides=_freeze(plus_overrides),
            incast_overrides=_freeze(incast_overrides),
            topo_overrides=_freeze(topo),
            fault_overrides=_freeze(fault_overrides),
            with_background=with_background,
            sample_queue=sample_queue,
            trace=trace,
            max_events=max_events,
            cc=cc,
            topology=topology,
            workload=workload,
            workload_overrides=_freeze(workload_overrides),
        )

    @property
    def cc_name(self) -> str:
        """The effective congestion-control strategy name."""
        return self.cc or self.protocol

    # -- derived builders ------------------------------------------------------
    def protocol_spec(self) -> ProtocolSpec:
        return spec_for(
            self.cc_name,
            tcp_overrides=dict(self.tcp_overrides),
            plus_overrides=dict(self.plus_overrides),
        )

    def topology_params(self) -> Optional[TopologyParams]:
        if not self.topo_overrides:
            return None
        return TopologyParams(**dict(self.topo_overrides))

    def incast_config(self) -> IncastConfig:
        kwargs: Dict[str, object] = dict(n_flows=self.n_flows, n_rounds=self.rounds)
        kwargs.update(dict(self.incast_overrides))
        return IncastConfig(**kwargs)

    # -- identity --------------------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        """JSON-ready representation: tuples become lists at every depth, so
        the dict equals its own JSON round trip."""
        return {
            name: _listify(value) if value.__class__ is tuple else value
            for name, value in zip(_SPEC_FIELDS, _spec_values(self))
        }

    @cached_property
    def canonical_text(self) -> str:
        """The spec as canonical JSON, computed once per spec object.

        The one identity text: :meth:`cache_key` hashes it and the store's
        ``spec`` column holds it, so a lookup compares two strings.  Not a
        dataclass field — it joins neither ``==``, ``hash`` nor
        :meth:`to_dict` — and independent of the package version, which
        :meth:`cache_key` reads on every call.
        """
        return canonical_json(self.to_dict())

    def cache_key(self) -> str:
        """Stable content digest of the spec + package/schema version.

        Any change to a field, to the package version or to the result
        encoding yields a new key, so on-disk cache entries are invalidated
        automatically.
        """
        from .. import __version__

        blob = f"{__version__}\n{SCHEMA_VERSION}\n{self.canonical_text}"
        return hashlib.sha256(blob.encode()).hexdigest()

    def label(self) -> str:
        """Short human-readable tag for progress lines."""
        name = self.protocol if not self.cc else f"{self.protocol}[cc={self.cc}]"
        extra = ""
        if self.topology != "two-tier" or self.workload != "incast":
            extra = f" {self.topology}/{self.workload}"
        return f"{name}{extra} N={self.n_flows} seed={self.seed}"


_SPEC_FIELDS = tuple(f.name for f in fields(ScenarioSpec))
_spec_values = attrgetter(*_SPEC_FIELDS)


@dataclass
class PointResult:
    """Outcome of one or more scenario runs at a (protocol, N) point.

    A single :func:`run_scenario` produces a one-seed result; the executor
    folds per-seed results into a cross-seed aggregate with
    :meth:`PointResult.aggregate` — averaging goodput/FCT, summing the
    counters, concatenating the traces.  Background throughput is a real
    optional field (it used to be stashed on the result dynamically).
    """

    protocol: str
    n_flows: int
    seeds: Tuple[int, ...]
    goodput_mbps: float
    fct_ms: float
    timeouts: int
    rounds: int
    bad_rounds: int
    flow_stats: List[FlowStats] = field(default_factory=list)
    queue_samples_bytes: List[int] = field(default_factory=list)
    #: Per-round completion times, concatenated across seeds — the tail
    #: behind the ``fct_ms`` mean (the arena scores p99 from these).
    round_durations_ns: List[int] = field(default_factory=list)
    #: Telemetry records captured when the spec asked for tracing (empty
    #: otherwise); serialized with the result, so cached runs keep their
    #: telemetry.
    trace_events: List[TraceRecord] = field(default_factory=list)
    #: Mean long-flow throughput when the scenario ran with background
    #: traffic; ``None`` otherwise.
    bg_throughput_mbps: Optional[float] = None
    #: Simulator events processed (deterministic given the spec).
    events_processed: int = 0
    #: Host wall-clock seconds spent simulating; excluded from equality so a
    #: cache hit compares equal to the cold run that produced it.
    wall_time_s: float = field(default=0.0, compare=False)

    @property
    def fct_p99_ms(self) -> float:
        """99th-percentile round completion time (nearest-rank); the mean
        for a result that completed no round."""
        durations = self.round_durations_ns
        if not durations:
            return self.fct_ms
        ranked = sorted(durations)
        index = max(0, -(-99 * len(ranked) // 100) - 1)  # ceil(0.99 n) - 1
        return ranked[index] / 1e6

    @classmethod
    def aggregate(cls, results: Sequence["PointResult"]) -> "PointResult":
        """Fold per-seed results for one (protocol, N) point."""
        if not results:
            raise ValueError("cannot aggregate zero results")
        first = results[0]
        for r in results[1:]:
            if (r.protocol, r.n_flows) != (first.protocol, first.n_flows):
                raise ValueError(
                    "cannot aggregate results from different points: "
                    f"{(first.protocol, first.n_flows)} vs {(r.protocol, r.n_flows)}"
                )
        bg = [r.bg_throughput_mbps for r in results if r.bg_throughput_mbps is not None]
        return cls(
            protocol=first.protocol,
            n_flows=first.n_flows,
            seeds=tuple(s for r in results for s in r.seeds),
            goodput_mbps=sum(r.goodput_mbps for r in results) / len(results),
            fct_ms=sum(r.fct_ms for r in results) / len(results),
            timeouts=sum(r.timeouts for r in results),
            rounds=sum(r.rounds for r in results),
            bad_rounds=sum(r.bad_rounds for r in results),
            flow_stats=[fs for r in results for fs in r.flow_stats],
            queue_samples_bytes=[q for r in results for q in r.queue_samples_bytes],
            round_durations_ns=[d for r in results for d in r.round_durations_ns],
            trace_events=[e for r in results for e in r.trace_events],
            bg_throughput_mbps=sum(bg) / len(bg) if bg else None,
            events_processed=sum(r.events_processed for r in results),
            wall_time_s=sum(r.wall_time_s for r in results),
        )

    # -- JSON codec (for the on-disk result cache) ----------------------------
    def to_dict(self) -> Dict[str, object]:
        return {
            "protocol": self.protocol,
            "n_flows": self.n_flows,
            "seeds": list(self.seeds),
            "goodput_mbps": self.goodput_mbps,
            "fct_ms": self.fct_ms,
            "timeouts": self.timeouts,
            "rounds": self.rounds,
            "bad_rounds": self.bad_rounds,
            "flow_stats": _encode_flows(self.flow_stats),
            "queue_samples_bytes": list(self.queue_samples_bytes),
            "round_durations_ns": list(self.round_durations_ns),
            "trace_events": dict(
                zip(TraceRecord._fields, _columns(self.trace_events, len(TraceRecord._fields)))
            ),
            "bg_throughput_mbps": self.bg_throughput_mbps,
            "events_processed": self.events_processed,
            "wall_time_s": self.wall_time_s,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "PointResult":
        """Decode :meth:`to_dict`'s payload; a missing key or columns that
        disagree in length raise (the store counts that as one miss)."""
        trace_columns = map(data["trace_events"].__getitem__, TraceRecord._fields)
        return cls(
            protocol=data["protocol"],
            n_flows=data["n_flows"],
            seeds=tuple(data["seeds"]),
            goodput_mbps=data["goodput_mbps"],
            fct_ms=data["fct_ms"],
            timeouts=data["timeouts"],
            rounds=data["rounds"],
            bad_rounds=data["bad_rounds"],
            flow_stats=_decode_flows(data["flow_stats"]),
            queue_samples_bytes=list(data["queue_samples_bytes"]),
            round_durations_ns=list(data["round_durations_ns"]),
            trace_events=list(starmap(TraceRecord, zip(*trace_columns, strict=True))),
            bg_throughput_mbps=data["bg_throughput_mbps"],
            events_processed=data["events_processed"],
            wall_time_s=data["wall_time_s"],
        )


# -- columnar flow codec ---------------------------------------------------------
# ``flow_stats`` is stored as one array per FlowStats field instead of one
# dict per flow.  The two ragged fields are flattened: ``timeouts_len[i]`` /
# ``snapshots_len[i]`` say how many consecutive entries of the flat
# ``timeouts_*`` / ``snapshots_*`` arrays belong to flow ``i``.
_FLOW_FIELDS = tuple(f.name for f in fields(FlowStats))
_RAGGED = ("timeouts", "send_snapshots")
_FLOW_SCALARS = tuple(name for name in _FLOW_FIELDS if name not in _RAGGED)
_flow_row = attrgetter(*_FLOW_SCALARS, *_RAGGED)


def _columns(rows: Iterable[Sequence[object]], width: int) -> List[list]:
    """Equal-width rows transposed to ``width`` lists (empty for no rows)."""
    return list(map(list, zip(*rows))) or [[] for _ in range(width)]


def _runs(lengths: Sequence[int], flat: list) -> List[list]:
    """Cut ``flat`` into consecutive runs, one per entry of ``lengths``."""
    offsets = [0, *accumulate(lengths)]
    if offsets[-1] != len(flat) or min(lengths, default=0) < 0:
        raise ValueError(f"run lengths sum to {offsets[-1]}, not the {len(flat)} entries held")
    return [flat[a:b] for a, b in pairwise(offsets)]


def _encode_flows(flow_stats: Sequence[FlowStats]) -> Dict[str, list]:
    *scalars, timeouts, snapshots = _columns(map(_flow_row, flow_stats), len(_FLOW_FIELDS))
    out = dict(zip(_FLOW_SCALARS, scalars))
    out["timeouts_len"] = list(map(len, timeouts))
    out["timeouts_ns"], kinds = _columns(chain.from_iterable(timeouts), 2)
    out["timeouts_kind"] = [kind.name for kind in kinds]
    out["snapshots_len"] = list(map(len, snapshots))
    out["snapshots_cwnd"], out["snapshots_ece"] = _columns(chain.from_iterable(snapshots), 2)
    out["snapshots_count"] = list(chain.from_iterable(map(dict.values, snapshots)))
    return out


def _decode_flows(data: Mapping[str, list]) -> List[FlowStats]:
    """Rebuild the flows; any inconsistency between columns raises."""
    columns = {name: data[name] for name in _FLOW_SCALARS}
    kinds = map(TimeoutKind.__members__.__getitem__, data["timeouts_kind"])
    columns["timeouts"] = _runs(
        data["timeouts_len"], list(zip(data["timeouts_ns"], kinds, strict=True))
    )
    states = zip(data["snapshots_cwnd"], data["snapshots_ece"], strict=True)
    columns["send_snapshots"] = map(
        dict, _runs(data["snapshots_len"], list(zip(states, data["snapshots_count"], strict=True)))
    )
    return list(starmap(FlowStats, zip(*map(columns.__getitem__, _FLOW_FIELDS), strict=True)))


def _apply_faults(sim: Simulator, tree: TwoTierTree, fault_overrides: Overrides) -> None:
    """Splice a lossy link onto the bottleneck port per the fault spec.

    The spec is pure data so it stays hashable/picklable: ``kind`` selects
    the policy (``random_loss`` with ``rate``, or ``drop_nth`` with
    ``indices``), and randomness comes from a named simulator stream so the
    injected losses replay exactly for a given scenario seed.
    """
    cfg = dict(fault_overrides)
    kind = cfg.get("kind")
    if kind == "random_loss":
        policy = random_loss(sim.stream("faults/bottleneck"), float(cfg.get("rate", 0.01)))
    elif kind == "drop_nth":
        policy = drop_nth(*cfg.get("indices", ()))
    else:
        raise ValueError(f"unknown fault kind: {kind!r}")
    port = tree.bottleneck_port
    port.link = make_lossy(port.link, policy)


def _make_workload(spec: ScenarioSpec, sim: Simulator, tree, protocol_spec: ProtocolSpec):
    """Instantiate the spec's workload over a built network.

    ``n_flows``/``rounds`` keep their historical meaning for incast and map
    onto the closed-loop workloads' fan-out/repetition knobs, so sweep
    grids and the arena vary all three workloads through one axis pair.
    """
    if spec.workload == "incast":
        return IncastWorkload(sim, tree, protocol_spec, spec.incast_config())
    if spec.workload == "http":
        kwargs: Dict[str, object] = dict(n_clients=spec.n_flows, n_requests=spec.rounds)
        kwargs.update(dict(spec.workload_overrides))
        return HttpWorkload(sim, tree, protocol_spec, HttpConfig(**kwargs))
    if spec.workload == "swarm":
        kwargs = dict(n_peers=spec.n_flows, n_pieces=spec.rounds)
        kwargs.update(dict(spec.workload_overrides))
        return SwarmWorkload(sim, tree, protocol_spec, SwarmConfig(**kwargs))
    raise ValueError(
        f"unknown workload {spec.workload!r}; choose from {list(WORKLOAD_NAMES)}"
    )


def run_scenario(
    spec: ScenarioSpec, validate: Optional[bool] = None, profiler=None
) -> PointResult:
    """Simulate one :class:`ScenarioSpec` and return its :class:`PointResult`.

    This is the worker function of the execution layer: it is a pure
    function of the spec (module-level, so it pickles for process pools),
    builds its own :class:`Simulator`, and never touches shared state.
    Flow ids in the returned stats are renumbered to per-scenario indices so
    that results are identical no matter which process ran the spec.

    ``validate`` attaches the :mod:`repro.validate` invariant checker for
    this run (``None`` defers to ``REPRO_VALIDATE``, so worker processes
    inherit the choice through the environment).  ``spec.trace`` attaches a
    :class:`~repro.telemetry.Tracer` whose records land in
    ``PointResult.trace_events``; ``profiler`` accepts a
    :class:`~repro.telemetry.EngineProfiler` for dispatch-loop timing
    (local to this call — not part of the spec, so never cached).

    The whole point is one GC epoch (DESIGN.md "One GC epoch per point"):
    automatic collection is paused from before the simulator exists until
    the result does, then one young collection frees the dead topology.
    A caller that has already disabled the collector is left alone.
    """
    started = time.perf_counter()
    gc_was_enabled = gc.isenabled()
    if gc_was_enabled:
        gc.disable()
    try:
        result = _simulate(spec, validate, profiler)
    finally:
        if gc_was_enabled:
            # _simulate's locals are gone and nothing was promoted while the
            # collector was off, so generation 0 holds all of the point's
            # cyclic garbage (the topology; flows went by refcount at close).
            # Not optional: without it the garbage waits for the collections
            # the *next* point's construction triggers, and peak RSS rises.
            gc.collect(0)
            gc.enable()
    result.wall_time_s = time.perf_counter() - started
    return result


def _simulate(spec: ScenarioSpec, validate: Optional[bool], profiler) -> PointResult:
    """:func:`run_scenario`'s body, in a frame of its own so that every
    simulation object is unreferenced by the time it returns."""
    tracer = Tracer() if spec.trace else None
    sim = Simulator(seed=spec.seed, validate=validate, tracer=tracer, profiler=profiler)
    events_before = sim.events_processed
    tree = topology_builder(spec.topology)(sim, spec.topology_params())
    if sim.checker is not None:
        # Structural invariants piggyback on validate mode: check_wiring is
        # purely passive, so validated results stay identical to plain runs.
        check_wiring(tree)
    if spec.fault_overrides:
        _apply_faults(sim, tree, spec.fault_overrides)
    protocol_spec = spec.protocol_spec()
    # Strategy network hook (e.g. Pulser arming the bottleneck's incast
    # detector); a no-op for every strategy that doesn't declare one.
    protocol_spec.install_network(tree)

    background = None
    if spec.with_background:
        background = BackgroundTraffic(sim, tree, spec.protocol_spec())
        background.start()

    sampler = None
    if spec.sample_queue:
        sampler = QueueSampler(sim, tree.bottleneck_port)
        sampler.start()

    workload = _make_workload(spec, sim, tree, protocol_spec)
    workload.run_to_completion(max_events=spec.max_events)
    if sim.checker is not None:
        sim.checker.verify_all()

    queue_samples: List[int] = []
    if sampler is not None:
        sampler.stop()
        queue_samples = list(sampler.occupancy_bytes)

    bg_throughput_mbps = None
    if background is not None:
        bg_throughput_mbps = background.mean_throughput_bps() / 1e6
        background.stop()

    flow_stats = workload.flow_stats
    # Flow ids come from a process-global counter; renumber so the result
    # does not depend on what else ran in this process before us.
    for i, fs in enumerate(flow_stats):
        fs.flow_id = i
    workload.close()
    # Closed endpoints hold no callbacks and no host holds them; whatever the
    # queue still files (light events in flight, cancelled timer carcasses,
    # the event freelist) is the last thing that could keep a flow alive.
    sim.queue.clear()

    return PointResult(
        protocol=spec.protocol,
        n_flows=spec.n_flows,
        seeds=(spec.seed,),
        goodput_mbps=workload.mean_goodput_bps / 1e6,
        fct_ms=workload.mean_fct_ns / 1e6,
        timeouts=workload.total_timeouts,
        rounds=len(workload.rounds),
        bad_rounds=sum(1 for r in workload.rounds if r.timeouts > 0),
        flow_stats=flow_stats,
        queue_samples_bytes=queue_samples,
        round_durations_ns=[r.duration_ns for r in workload.rounds],
        trace_events=list(tracer.records) if tracer is not None else [],
        bg_throughput_mbps=bg_throughput_mbps,
        events_processed=sim.events_processed - events_before,
    )
