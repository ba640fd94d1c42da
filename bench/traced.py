"""Outside-in tracing: ``run_scenario``'s recipe rebuilt from public pieces,
each call into a layer wrapped in a span recorded here, in ``bench/``.

No file under ``src/`` knows about spans (in-program tracing is a later
issue), so the recipe below repeats what ``repro.exec.run_scenario`` does
— ``Simulator`` -> ``topology_builder`` -> ``protocol_spec`` /
``install_network`` -> workload constructor -> ``run_to_completion`` ->
``flow_stats`` / ``close`` — and every traced op is checked against
``run_scenario(spec)``: a recipe that drifts from ``src/`` shows up as a
failed op, not as a wrong attribution.
"""

from __future__ import annotations

from contextlib import contextmanager
from time import perf_counter
from typing import Dict, List, Optional

from repro import (
    HttpConfig,
    HttpWorkload,
    IncastWorkload,
    PointResult,
    ScenarioSpec,
    Simulator,
    SwarmConfig,
    SwarmWorkload,
    Tracer,
    check_wiring,
    run_scenario,
    topology_builder,
)

from .workloads import PLAIN, Plain

#: Span row layout (a list, mutated once when the span closes).
NAME, START, END, PARENT, OP = range(5)

#: The untraced original each traced op is checked and timed against; a span
#: of its own so that it is nobody's self time.
REFERENCE = "bench.reference"


class Spans:
    """In-memory span log; written to ``--trace-out`` when the run ends.

    A span is ``[name, start, end, parent, op]`` with ``parent`` the index
    of the enclosing span (-1 for an op's root) and ``op`` the label of
    the benchmark op it belongs to.
    """

    def __init__(self) -> None:
        self.rows: List[list] = []
        self._open: List[int] = []
        self.op = ""

    @contextmanager
    def span(self, name: str):
        row = [name, perf_counter(), 0.0, self._open[-1] if self._open else -1, self.op]
        self._open.append(len(self.rows))
        self.rows.append(row)
        try:
            yield
        finally:
            row[END] = perf_counter()
            self._open.pop()

    def self_times(self) -> List[float]:
        """Per span: its duration minus the part its child spans cover."""
        out = [row[END] - row[START] for row in self.rows]
        for row in self.rows:
            if row[PARENT] >= 0:
                out[row[PARENT]] -= row[END] - row[START]
        return out

    def self_by_name(self, root: str = "") -> Dict[str, float]:
        """Self seconds summed by span name, optionally only inside spans
        named ``root`` (children always follow their parent in ``rows``)."""
        keep = None
        if root:
            keep = set()
            for i, row in enumerate(self.rows):
                if row[NAME] == root or row[PARENT] in keep:
                    keep.add(i)
        totals: Dict[str, float] = {}
        for i, (row, own) in enumerate(zip(self.rows, self.self_times())):
            if keep is None or i in keep:
                totals[row[NAME]] = totals.get(row[NAME], 0.0) + own
        return totals

    def total(self, name: str) -> float:
        """Summed duration of every span called ``name``."""
        return sum(row[END] - row[START] for row in self.rows if row[NAME] == name)

    def to_rows(self) -> List[dict]:
        return [
            dict(id=i, name=row[NAME], start=row[START], end=row[END],
                 parent=row[PARENT], op=row[OP])
            for i, row in enumerate(self.rows)
        ]


def _build_workload(spec: ScenarioSpec, sim, tree, protocol_spec):
    """The workload constructors behind ``ScenarioSpec.workload``."""
    if spec.workload == "incast":
        return IncastWorkload(sim, tree, protocol_spec, spec.incast_config())
    overrides = dict(spec.workload_overrides)
    if spec.workload == "http":
        config = HttpConfig(**{"n_clients": spec.n_flows, "n_requests": spec.rounds, **overrides})
        return HttpWorkload(sim, tree, protocol_spec, config)
    if spec.workload == "swarm":
        config = SwarmConfig(**{"n_peers": spec.n_flows, "n_pieces": spec.rounds, **overrides})
        return SwarmWorkload(sim, tree, protocol_spec, config)
    raise ValueError(f"traced recipe does not know workload {spec.workload!r}")


def traced_point(
    spans: Spans,
    spec: ScenarioSpec,
    validate: Optional[bool] = None,
    profiler=None,
    native: Optional[bool] = None,
) -> PointResult:
    """``run_scenario(spec)`` step by step, one span per layer call."""
    if spec.fault_overrides or spec.with_background or spec.sample_queue:
        raise ValueError("traced recipe covers plain scenarios only (no faults/background/sampler)")
    span = spans.span
    started = perf_counter()
    with span("exec.point"):
        with span("sim.init"):
            tracer = Tracer() if spec.trace else None
            kwargs = {} if native is None else {"native": native}
            sim = Simulator(seed=spec.seed, validate=validate, tracer=tracer,
                            profiler=profiler, **kwargs)
        events_before = sim.events_processed
        with span(f"net.build.{spec.topology}"):
            tree = topology_builder(spec.topology)(sim, spec.topology_params())
        if sim.checker is not None:
            with span("validate.check_wiring"):
                check_wiring(tree)
        with span("workloads.protocol_spec"):
            protocol_spec = spec.protocol_spec()
            protocol_spec.install_network(tree)
        with span(f"workloads.build.{spec.workload}"):
            workload = _build_workload(spec, sim, tree, protocol_spec)
        with span("sim.run"):
            workload.run_to_completion(max_events=spec.max_events)
        if sim.checker is not None:
            with span("validate.verify_all"):
                sim.checker.verify_all()
        with span("exec.collect"):
            flow_stats = workload.flow_stats
            for i, fs in enumerate(flow_stats):
                fs.flow_id = i
        with span("workloads.close"):
            workload.close()
        with span("exec.collect"):
            rounds = workload.rounds
            result = PointResult(
                protocol=spec.protocol,
                n_flows=spec.n_flows,
                seeds=(spec.seed,),
                goodput_mbps=workload.mean_goodput_bps / 1e6,
                fct_ms=workload.mean_fct_ns / 1e6,
                timeouts=workload.total_timeouts,
                rounds=len(rounds),
                bad_rounds=sum(1 for r in rounds if r.timeouts > 0),
                flow_stats=flow_stats,
                round_durations_ns=[r.duration_ns for r in rounds],
                trace_events=list(tracer.records) if tracer is not None else [],
                events_processed=sim.events_processed - events_before,
            )
    result.wall_time_s = perf_counter() - started
    return result


class _ComputeCache:
    """Executor cache slot that "hits" every spec by computing it through
    ``compute`` — how the figure driver and ``SerialExecutor.map`` run on a
    recipe of ours without touching ``repro.exec``."""

    hits = misses = write_errors = 0

    def __init__(self, compute):
        self._compute = compute

    def get(self, spec):
        return self._compute(spec)

    def put(self, spec, result) -> None:
        pass


class _ComputeStore:
    """``SweepStore`` facade: ``get``/``put`` are spans, and a miss is
    computed through ``compute`` and stored, as the executor would."""

    def __init__(self, store, compute, span):
        self._store = store
        self._compute = compute
        self._span = span

    def __getattr__(self, name):
        return getattr(self._store, name)

    def __len__(self) -> int:
        return len(self._store)

    def get(self, spec):
        with self._span("sweep.get"):
            hit = self._store.get(spec)
        if hit is None:
            hit = self._compute(spec)
            self.put(spec, hit)
        return hit

    def put(self, spec, result) -> None:
        with self._span("sweep.put"):
            self._store.put(spec, result)


class Via(Plain):
    """Strategy routing every point computation through ``compute(spec,
    validate=, profiler=)`` — directly, through the executor's cache slot,
    or through the sweep store's miss path."""

    def __init__(self, compute):
        self.compute = compute

    def point_cache(self):
        return _ComputeCache(self.compute)

    def store(self, store):
        return _ComputeStore(store, self.compute, self.span)


class Traced(Via):
    """The ``--trace`` strategy: spans around every layer call, and each
    traced op compared with (and timed against) the untraced original."""

    def __init__(self) -> None:
        self.spans = Spans()
        #: one row per traced op: label, traced/untraced wall, equality.
        self.ops: List[dict] = []
        super().__init__(self._compute)

    def span(self, name: str):
        return self.spans.span(name)

    def _begin_op(self, label: str) -> str:
        self.spans.op = op = f"{len(self.ops)}:{label}"
        return op

    def _compute(self, spec, validate=None, profiler=None):
        def untraced():
            fresh_profiler = type(profiler)() if profiler is not None else None
            started = perf_counter()
            with self.spans.span(REFERENCE):
                reference = run_scenario(spec, validate=validate, profiler=fresh_profiler)
            return reference, perf_counter() - started

        # Odd ops run the untraced original first, so that whatever the
        # second run of a pair gains or loses cancels in trace.overhead_pct.
        reference_first = len(self.ops) % 2 == 1
        if reference_first:
            reference, untraced_s = untraced()
        op = self._begin_op(spec.label())
        started = perf_counter()
        result = traced_point(self.spans, spec, validate=validate, profiler=profiler)
        traced_s = perf_counter() - started
        self.spans.op = ""
        if not reference_first:
            reference, untraced_s = untraced()
        self.ops.append(dict(op=op, kind="point", traced_s=traced_s, untraced_s=untraced_s,
                             events=result.events_processed, equal=result == reference))
        return result

    def episode(self, env) -> int:
        op = self._begin_op("episode")
        rows = self.spans.rows
        started = perf_counter()
        with self.spans.span("control.episode"):
            parent = len(rows) - 1
            with self.spans.span("control.reset"):
                obs = env.reset()
            steps = 0
            while not obs.done:
                t0 = perf_counter()
                obs = env.step(None)
                rows.append(["control.step", t0, perf_counter(), parent, op])
                steps += 1
        traced_s = perf_counter() - started
        traced_events = env.sim.events_processed
        self.spans.op = ""
        # reset() builds a fresh simulation, so the same env replays untraced.
        started = perf_counter()
        with self.spans.span(REFERENCE):
            plain_steps = PLAIN.episode(env)
        untraced_s = perf_counter() - started
        self.ops.append(dict(
            op=op, kind="episode", traced_s=traced_s, untraced_s=untraced_s,
            events=traced_events,
            equal=(steps, traced_events) == (plain_steps, env.sim.events_processed),
        ))
        return steps
