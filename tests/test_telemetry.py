"""The telemetry subsystem: tracer, hooks, collectors, exporters, profiler."""

from __future__ import annotations

import pytest

from repro.exec.scenario import PointResult, ScenarioSpec, run_scenario
from repro.telemetry import (
    EVENT_KINDS,
    Collector,
    EngineProfiler,
    Tracer,
    TraceRecord,
    records_from_jsonl,
    records_to_jsonl,
    timeout_taxonomy,
    timeout_taxonomy_from_stats,
)


def _spec(**overrides):
    kwargs = dict(protocol="dctcp+", n_flows=8, rounds=2, seed=3, sample_queue=True)
    kwargs.update(overrides)
    return ScenarioSpec.create(**kwargs)


# -- tracing must be invisible to the simulation --------------------------------
def test_tracing_does_not_perturb_results():
    traced = run_scenario(_spec(trace=True))
    plain = run_scenario(_spec())
    assert traced.events_processed == plain.events_processed
    t, p = traced.to_dict(), plain.to_dict()
    for payload in (t, p):
        payload.pop("wall_time_s")
        payload.pop("trace_events")
    assert t == p
    assert traced.trace_events and not plain.trace_events


def test_traced_run_is_deterministic():
    a = run_scenario(_spec(trace=True))
    b = run_scenario(_spec(trace=True))
    assert a.trace_events == b.trace_events


def test_validated_and_plain_traced_runs_agree():
    """Flow labels are per-run ordinals, so the checker can't skew traces."""
    validated = run_scenario(_spec(trace=True), validate=True)
    plain = run_scenario(_spec(trace=True), validate=False)
    assert validated.trace_events == plain.trace_events


# -- record content --------------------------------------------------------------
def test_dctcp_plus_trace_covers_the_event_taxonomy():
    records = run_scenario(_spec(trace=True)).trace_events
    kinds = {r.kind for r in records}
    assert kinds <= set(EVENT_KINDS)
    # ECN marks and queue watermarks appear in any congested DCTCP+ run;
    # slow_time records prove the state-machine hook fired.
    assert {"mark", "queue_hwm", "slow_time"} <= kinds
    for r in records:
        assert isinstance(r, TraceRecord)
        assert r.time_ns >= 0


def test_queue_hwm_records_are_strictly_increasing_per_queue():
    records = run_scenario(_spec(trace=True)).trace_events
    peaks = {}
    for r in records:
        if r.kind == "queue_hwm":
            assert r.value > peaks.get(r.subject, -1)
            peaks[r.subject] = r.value


def test_queue_hwm_is_one_record_per_risen_queue_per_run():
    """The tracer reads each queue's peak field when run() returns: one
    record per queue whose peak rose, stamped when it was first reached,
    and none for a queue that admitted nothing."""
    from repro.net.host import Host
    from repro.net.link import Link
    from repro.net.pool import PacketPool
    from repro.net.port import OutputPort
    from repro.net.queues import DropTailQueue
    from repro.sim.engine import Simulator

    from .helpers import data

    tracer = Tracer()
    sim = Simulator(seed=1, tracer=tracer)
    pool = PacketPool.of(sim)
    sink = Host(sim, "sink")
    busy = OutputPort(sim, Link(sink), DropTailQueue(10**6, None, pool=pool), "busy")
    OutputPort(sim, Link(sink), DropTailQueue(10**6, None, pool=pool), "idle")

    def burst(frames):
        for seq in range(frames):
            busy.send(data(sim, 1, 0, sink.node_id, seq, 1460))

    sim.at(1_000, burst, 3)
    sim.run(until=50_000)
    assert tracer.of_kind("queue_hwm") == [TraceRecord(1_000, "queue_hwm", "busy", 3_000)]
    sim.at(60_000, burst, 2)  # a lower burst: the peak has not risen
    sim.run(until=100_000)
    assert len(tracer.of_kind("queue_hwm")) == 1
    sim.at(110_000, burst, 4)
    sim.run(until=200_000)
    assert tracer.high_watermarks() == {"busy": 4_500}
    assert tracer.of_kind("queue_hwm")[-1].time_ns == 110_000


def test_tracing_keeps_every_port_on_the_cut_through(monkeypatch):
    """Tracing hooks nothing on admission, so a traced run starts exactly
    as many frames through _start_next as a plain one and leaves every
    queue's counters, peak included, where the plain run leaves them."""
    from repro.net.port import OutputPort

    ports = []
    starts = []
    init, start_next = OutputPort.__init__, OutputPort._start_next

    def _init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        ports.append(self)

    def _start_next_counted(self):
        starts.append(self.name)
        start_next(self)

    monkeypatch.setattr(OutputPort, "__init__", _init)
    monkeypatch.setattr(OutputPort, "_start_next", _start_next_counted)
    fields = (
        "enqueued_packets enqueued_bytes dequeued_packets dequeued_bytes dropped_packets"
        " dropped_bytes marked_packets occupancy_bytes peak_bytes peak_ns"
    ).split()
    seen = []
    for trace in (False, True):
        del ports[:], starts[:]
        run_scenario(ScenarioSpec.create("dctcp+", n_flows=16, rounds=2, seed=1, trace=trace))
        counters = {p.name: tuple(getattr(p.queue, f) for f in fields) for p in ports}
        seen.append((len(starts), counters))
    assert seen[0] == seen[1]
    assert sum(c[0] for c in seen[0][1].values()) > 0


def test_timeout_taxonomy_matches_flow_stats():
    """The acceptance cross-check at the Table-I 128-flow point."""
    result = run_scenario(ScenarioSpec.create("dctcp", n_flows=128, rounds=2, seed=1, trace=True))
    from_trace = timeout_taxonomy(result.trace_events)
    from_stats = timeout_taxonomy_from_stats(result.flow_stats)
    assert sum(from_trace.values()) > 0, "N=128 incast must produce timeouts"
    assert from_trace == from_stats


def test_tracer_record_cap_sets_truncated():
    tracer = Tracer(max_records=2)
    tracer.sim = type("S", (), {"now": 7})()
    for i in range(5):
        tracer._emit("drop", "q", i)
    assert len(tracer.records) == 2
    assert tracer.truncated


def test_tracer_rejects_bad_cap():
    with pytest.raises(ValueError):
        Tracer(max_records=0)


# -- exec integration -------------------------------------------------------------
def test_trace_events_round_trip_through_point_result():
    result = run_scenario(_spec(trace=True))
    clone = PointResult.from_dict(result.to_dict())
    assert clone.trace_events == result.trace_events
    assert all(isinstance(r, TraceRecord) for r in clone.trace_events)


def test_trace_flag_is_part_of_the_cache_key():
    assert _spec(trace=True).cache_key() != _spec().cache_key()


# -- exporters --------------------------------------------------------------------
def test_jsonl_round_trip():
    records = run_scenario(_spec(trace=True)).trace_events
    text = records_to_jsonl(records)
    assert records_from_jsonl(text) == list(records)
    assert text.endswith("\n")
    assert records_to_jsonl([]) == ""


def test_collector_csv_rendering():
    class Two(Collector):
        def schema(self):
            return ("a", "b")

        def rows(self):
            return [(1, 2.5), (3, 4.0)]

    assert Two().to_csv() == "a,b\n1,2.500\n3,4.000"


# -- profiler ----------------------------------------------------------------------
def test_profiler_attributes_dispatch_time():
    profiler = EngineProfiler()
    result = run_scenario(_spec(), profiler=profiler)
    assert profiler.events == result.events_processed
    assert sum(profiler.counts.values()) == result.events_processed
    assert profiler.wall_s > 0
    assert profiler.events_per_sec > 0
    kinds = dict(zip(profiler.schema(), next(iter(profiler.rows()))))
    assert set(profiler.schema()) == {
        "kind", "events", "total_s", "mean_us", "share", "mean_batch",
    }
    assert kinds["events"] > 0
    assert kinds["mean_batch"] >= 1.0
    assert profiler.batches > 0
    assert profiler.mean_batch_size >= 1.0
    assert "events/s" in profiler.report()
    assert "batches" in profiler.report()


def test_profiled_run_matches_plain_run():
    profiled = run_scenario(_spec(), profiler=EngineProfiler())
    plain = run_scenario(_spec())
    p, q = profiled.to_dict(), plain.to_dict()
    p.pop("wall_time_s")
    q.pop("wall_time_s")
    assert p == q


def test_profiler_composes_with_tracing():
    profiler = EngineProfiler()
    traced = run_scenario(_spec(trace=True), profiler=profiler)
    plain = run_scenario(_spec(trace=True))
    assert profiler.events == traced.events_processed
    assert traced.trace_events == plain.trace_events


def test_validation_and_profiling_compose(monkeypatch):
    """validate + profile: one loop feeds both observers and perturbs nothing."""
    from repro.validate.checker import InvariantChecker

    checkers = []
    verify_all = InvariantChecker.verify_all
    monkeypatch.setattr(
        InvariantChecker, "verify_all", lambda self: checkers.append(self) or verify_all(self)
    )
    profiler = EngineProfiler()
    observed = run_scenario(_spec(), validate=True, profiler=profiler)
    plain = run_scenario(_spec(), validate=False)
    o, p = observed.to_dict(), plain.to_dict()
    o.pop("wall_time_s")
    p.pop("wall_time_s")
    assert o == p
    assert profiler.events == observed.events_processed
    (checker,) = checkers
    # the in-loop cadence sweeps, on top of the end-of-run ones
    assert checker.sweeps > observed.events_processed // checker.sweep_every > 0
