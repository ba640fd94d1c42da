"""What runs inside a child interpreter: one unit, set-up, probe or traced run.

The parent (``bench.runner``) starts one child at a time with the
``REPRO_*`` switches removed from the environment, so a child is a fresh
single-threaded interpreter in ``repro``'s default configuration.  The
child writes one JSON document to ``<workdir>/result.json``; its stdout
is not part of the protocol.
"""

from __future__ import annotations

import cProfile
import gc
import json
import platform
import pstats
import signal
import statistics
import time
import tracemalloc
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter
from typing import Dict, List

#: A child that outlives this is killed (SIGALRM), and its unit counts as failed.
DEADLINE_S = 170

RESULT_FILE = "result.json"

#: Share of ``--seconds`` the warm probe serves stored points for (CPU time).
WARM_PROBE_SHARE = 0.1


def _probe_size(args) -> str:
    """The probe slice: the first ~0.5 s of a workload's ops."""
    return "smoke" if args.size == "smoke" else "probe"


def _setup(args, size: str = ""):
    """Import ``repro``, load the native core, build the workload's specs."""
    from repro import Simulator

    from .workloads import make_workload, passes_for

    workload = make_workload(args.workload, args.seed, size or args.size)
    workload.prepare(Path(args.workdir))
    # The first Simulator loads (in a fresh checkout: compiles) the native
    # core; read via getattr so a later removal of the core does not break this.
    default_native = getattr(Simulator(seed=0), "native", None)
    setup_s = time.time() - args.spawned_at
    passes = passes_for(args.workload, args.seconds, args.size)
    return workload, passes, setup_s, default_native


def _environment(workload, default_native) -> dict:
    """The manifest's per-workload part, read after the ops ran: the dispatch
    mode is the one the workload saw its simulators use (``control-env``:
    always pure) and ``repro``'s default where it cannot see them."""
    native = default_native if workload.native_seen is None else workload.native_seen
    return dict(
        dispatch={True: "native", False: "pure"}.get(native, "unknown"),
        python=platform.python_version(),
        gc_enabled=gc.isenabled(),
        gc_threshold=list(gc.get_threshold()),
    )


def _run_passes(workload, passes: int, how, rerun: bool):
    """Run ``passes`` passes: ``(their logs, the first pass's stored pairs)``.
    An exception fails the pass, not the child."""
    from .workloads import PassLog

    logs = []
    pairs = []
    for index in range(passes):
        log = PassLog()
        try:
            stored = workload.run_pass(log, how)
            if index == 0:
                pairs = stored
                if rerun:
                    workload.rerun_first(log)
        except Exception as exc:  # noqa: BLE001 - reported as a failed op with its reason
            log.check(f"pass {index}", False, f"raised {type(exc).__name__}: {exc}")
        log.seal(with_digest=index == 0)
        logs.append(log)
    return logs, pairs


def _warm_probe(workload, pairs, cpu_s: float):
    """The warm probe over ``pairs``: ``(its log, (served, CPU-seconds) per
    slice)``; an exception fails it, not the child."""
    from .workloads import PassLog, warm_probe

    try:
        return warm_probe(workload.workdir / "warm.sqlite", pairs, cpu_s)
    except Exception as exc:  # noqa: BLE001 - reported as a failed op with its reason
        log = PassLog()
        log.check("warm probe", False, f"raised {type(exc).__name__}: {exc}")
        return log, []


def _checks(logs) -> dict:
    failures = [f for log in logs for f in log.failures]
    return dict(
        attempted=sum(log.attempted for log in logs),
        failed=len(failures),
        failures=failures[:20],
    )


def run_unit(args) -> dict:
    from .workloads import PLAIN

    workload, passes, setup_s, default_native = _setup(args)
    logs, pairs = _run_passes(workload, passes, PLAIN, rerun=True)
    if args.inject_failure == args.workload:
        logs[-1].check("injected", False, "failure injected with --inject-failure")
    # warm_points_per_s is read from the passes' own store phases, or else
    # from the slices of one warm probe.
    if workload.has_store_phase:
        checked, warm = logs, [(log.served, log.store.cpu) for log in logs]
    else:
        probe, warm = _warm_probe(workload, pairs, args.seconds * WARM_PROBE_SHARE)
        checked = logs + [probe]
    first = logs[0]
    return dict(
        setup_s=setup_s,
        environment=_environment(workload, default_native),
        passes=[
            dict(
                compute_cpu_s=log.compute.cpu, compute_wall_s=log.compute.wall,
                store_wall_s=log.store.wall,
                events=log.events, points=log.points, steps=log.steps,
            )
            for log in logs
        ],
        warm=[dict(served=served, store_cpu_s=cpu_s) for served, cpu_s in warm],
        events=first.events,
        sim_digest=first.digest,
        **_checks(checked),
    )


def run_setup(args) -> dict:
    _workload, _passes, setup_s, _default_native = _setup(args)
    return dict(setup_s=setup_s)


def run_probe(args) -> dict:
    """cProfile call count of the probe slice: exact, so it compares two
    commits without a clock.  Reported as a count, never as a speed-up."""
    from .workloads import PLAIN

    workload, _passes, _setup_s, _default_native = _setup(args, _probe_size(args))
    profile = cProfile.Profile()
    profile.enable()
    logs, _pairs = _run_passes(workload, 1, PLAIN, rerun=False)
    profile.disable()
    calls = pstats.Stats(profile).total_calls
    return dict(py_calls=calls, events=logs[0].events, **_checks(logs))


# -- the traced run ------------------------------------------------------------------
def _tail(values: List[float]):
    """Highest percentile with at least ten samples beyond it: (label, value)."""
    ranked = sorted(values)
    n = len(ranked)
    if n < 20:
        return f"max n={n}", ranked[-1]
    return f"p{100 * (1 - 10 / n):.1f} n={n}", ranked[n - 11]


def _span_metrics(traced) -> dict:
    from .traced import OP, REFERENCE

    spans = traced.spans
    in_points = spans.self_by_name("exec.point")
    point_ops = [op for op in traced.ops if op["kind"] == "point"]
    n = max(1, len(point_ops))
    walls_ms = [op["untraced_s"] * 1e3 for op in point_ops] or [0.0]
    tail_label, tail_ms = _tail(walls_ms)
    traced_s = sum(op["traced_s"] for op in traced.ops)
    untraced_s = sum(op["untraced_s"] for op in traced.ops)
    point_total = spans.total("exec.point")
    metrics = {
        "sim.init_ms": in_points.get("sim.init", 0.0) / n * 1e3,
        "sim.run_share": in_points.get("sim.run", 0.0) / point_total if point_total else 0.0,
        "sim.events": float(sum(op["events"] for op in point_ops)),
        "workloads.close_ms": in_points.get("workloads.close", 0.0) / n * 1e3,
        "exec.collect_ms": in_points.get("exec.collect", 0.0) / n * 1e3,
        "exec.point_ms_p50": statistics.median(walls_ms),
        "exec.point_ms_tail": tail_ms,
        "trace.overhead_pct": (traced_s / untraced_s - 1.0) * 100 if untraced_s else 0.0,
    }
    self_all = spans.self_by_name()
    self_all.pop(REFERENCE, None)
    return dict(
        metrics=metrics,
        tail=tail_label,
        span_self_s=dict(sorted(self_all.items(), key=lambda kv: -kv[1])),
        # Self time of the spans recorded inside traced ops, against the ops'
        # walls as Traced timed them itself: the spans must cover the ops.
        span_check=dict(
            self_sum_s=sum(own for row, own in zip(spans.rows, spans.self_times()) if row[OP]),
            traced_s=traced_s),
        traced_s=traced_s,
        untraced_s=untraced_s,
        ops=[dict(op, traced_s=round(op["traced_s"], 6), untraced_s=round(op["untraced_s"], 6))
             for op in traced.ops[:64]],
    )


#: EngineProfiler callback kinds -> the layer share they are reported under.
PROFILE_SHARES = {
    "tcp.share.host_receive": ("Host.receive",),
    "net.share.switch": ("Switch.receive", "SharedBufferSwitch.receive"),
    "net.share.port": ("OutputPort._finish_tx", "OutputPort._finish_tx_indirect"),
    "net.share.host_send": ("Host.send",),
    "workloads.share.round_begin": ("IncastWorkload._begin_round",),
}


def _profile_pass(args):
    """Share of dispatch time by callback kind, over the probe slice:
    ``(metrics, heaviest profiler rows, pass logs)``."""
    from repro import EngineProfiler, run_scenario

    from .traced import Via
    from .workloads import make_workload

    profiler = EngineProfiler()

    def compute(spec, validate=None, profiler=profiler):
        return run_scenario(spec, validate=validate, profiler=profiler)

    workload = make_workload(args.workload, args.seed, _probe_size(args))
    workload.prepare(Path(args.workdir))
    logs, _pairs = _run_passes(workload, 1, Via(compute), rerun=False)
    total = sum(profiler.times_s.values()) or 1.0
    metrics = {
        name: sum(profiler.times_s.get(kind, 0.0) for kind in kinds) / total
        for name, kinds in PROFILE_SHARES.items()
    }
    rows = [dict(zip(profiler.schema(), row)) for row in profiler.rows()[:12]]
    return metrics, rows, logs


class _MemorySpans:
    """Net bytes each span of the traced recipe leaves allocated (its own,
    children excluded), read from tracemalloc at the span's boundaries."""

    def __init__(self, spans) -> None:
        self._spans = spans
        self._children: List[int] = []
        self.retained: Dict[str, int] = {}

    @contextmanager
    def span(self, name: str):
        before = tracemalloc.get_traced_memory()[0]
        self._children.append(0)
        try:
            with self._spans.span(name):
                yield
        finally:
            grown = tracemalloc.get_traced_memory()[0] - before
            own = grown - self._children.pop()
            self.retained[name] = self.retained.get(name, 0) + own
            if self._children:
                self._children[-1] += grown


def _memory_pass(args):
    """tracemalloc peak, where it is retained (by span) and GC activity over
    the probe slice: ``(metrics, KiB retained by span, pass logs)``."""
    from .traced import Spans, Via, traced_point
    from .workloads import make_workload

    workload = make_workload(args.workload, args.seed, _probe_size(args))
    workload.prepare(Path(args.workdir))
    spans = _MemorySpans(Spans())

    def compute(spec, validate=None, profiler=None):
        return traced_point(spans, spec, validate=validate, profiler=profiler)

    pauses: List[float] = []
    started = [0.0]

    def on_gc(phase, _info):
        if phase == "start":
            started[0] = perf_counter()
        else:
            pauses.append(perf_counter() - started[0])

    gc.collect()
    gc.callbacks.append(on_gc)
    tracemalloc.start()
    try:
        logs, _pairs = _run_passes(workload, 1, Via(compute), rerun=False)
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
        gc.callbacks.remove(on_gc)
    metrics = {
        "mem.alloc_peak_kb": peak / 1024.0,
        "mem.gc_collections": float(len(pauses)),
        "mem.gc_pause_ms": sum(pauses) * 1e3,
    }
    by_span = {name: round(size / 1024.0, 1)
               for name, size in sorted(spans.retained.items(), key=lambda kv: -kv[1])}
    return metrics, by_span, logs


def run_trace(args) -> dict:
    """The workload's own traced pass, profile pass and memory pass."""
    from .traced import Traced

    workload, _passes, _setup_s, default_native = _setup(args)
    traced = Traced()
    logs, _pairs = _run_passes(workload, 1, traced, rerun=False)
    for op in traced.ops:
        logs[0].check(f"traced {op['op']}", op["equal"],
                      "traced recipe's result differs from the untraced original")
    out = _span_metrics(traced)
    covered = out["span_check"]["self_sum_s"]
    logs[0].check("span coverage", abs(covered - out["traced_s"]) <= 0.02 * out["traced_s"],
                  f"span self times sum to {covered:.4f} s of {out['traced_s']:.4f} s traced")
    profile_metrics, out["profile"], profile_logs = _profile_pass(args)
    memory_metrics, out["mem_retained_kb"], memory_logs = _memory_pass(args)
    out["metrics"].update(profile_metrics)
    out["metrics"].update(memory_metrics)
    out.update(environment=_environment(workload, default_native),
               **_checks(logs + profile_logs + memory_logs))
    if args.trace_out:
        Path(args.trace_out).write_text(json.dumps(traced.spans.to_rows()))
    return out


def run_layers(args) -> dict:
    """Microbenches and fixed probes: the same for every workload."""
    from . import micro

    values, skipped = micro.run_all(
        args.seed, Path(args.workdir), batch_s=args.seconds / 500.0,
        big_store_rows=2_000 if args.size == "smoke" else 20_000,
    )
    return dict(metrics=values, skipped=skipped)


MODES = {
    "unit": run_unit,
    "setup": run_setup,
    "probe": run_probe,
    "trace": run_trace,
    "layers": run_layers,
}


def main(args) -> int:
    signal.alarm(DEADLINE_S)
    result: Dict[str, object] = MODES[args.child](args)
    Path(args.workdir, RESULT_FILE).write_text(json.dumps(result))
    return 0
