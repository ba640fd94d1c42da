"""Metric registry: every name the suite prints, with unit, direction and —
for per-layer metrics — the end-to-end metric and workload it should move.

``BENCHMARK.json`` is the same list in the driver's schema;
``bench/tests`` asserts the two agree.  Metric names use only letters,
digits, ``_``, ``.`` and ``-``, so ``dctcp+`` is spelled ``dctcp-plus``.
"""

from __future__ import annotations

from typing import Dict, NamedTuple, Tuple


class EndToEnd(NamedTuple):
    name: str
    unit: str
    better: str
    #: share of the parent's median by which the metric may worsen.
    bound: float
    doc: str


class Layer(NamedTuple):
    name: str
    unit: str
    better: str
    #: where the number comes from: "spans" / "profile" / "mem" (the
    #: workload's own traced pass and probe slice) or "probe" / "micro"
    #: (fixed inputs, identical for every workload).
    source: str
    #: "<end-to-end metric>@<workload>" this layer number should move.
    moves: str


#: Rates are per CPU-second of the single-threaded child (user+sys): under a
#: competing load on the shared 2-core box wall-clock rates spread 12-15 %
#: (IQR) and CPU-time rates 4-5 %.  The bounds are set from the spread ten
#: fresh-process runs of one commit showed here (bench/README.md, "Noise"):
#: timings 2-12 % whatever the estimator, so every timing gets the driver's
#: cap of 25 %; the counts (RSS, calls per event) repeat within 0-2 %.
END_TO_END: Tuple[EndToEnd, ...] = (
    EndToEnd("setup_s", "s", "lower", 0.25,
             "child start -> first op: import repro, native core load, specs, temp store"),
    EndToEnd("wall_s", "s", "lower", 0.25,
             "wall clock of the unit's passes (sweep-ci512: cold + store lifecycle)"),
    EndToEnd("events_per_s", "1/s", "higher", 0.25,
             "simulator events per CPU-second, median over passes"),
    EndToEnd("points_per_s", "1/s", "higher", 0.25,
             "scenario points (control-env: episodes) computed per CPU-second"),
    EndToEnd("warm_points_per_s", "1/s", "higher", 0.25,
             "stored points served per CPU-second: sweep-ci512's store lifecycle; "
             "elsewhere a warm probe outside wall_s"),
    EndToEnd("peak_rss_mb", "MiB", "lower", 0.10,
             "unit child's ru_maxrss"),
    EndToEnd("py_calls_per_event", "calls/event", "lower", 0.05,
             "cProfile calls per simulator event on the probe slice (exact for a seed)"),
)

#: cc_names() at this commit, spelled metric-safe.  Static on purpose: the
#: contract is a committed list, not whatever the registry holds at run time.
_CCS = ("tcp", "dctcp", "dctcp-plus", "dctcp-plusnorand", "tcp-plus",
        "d2tcp", "d2tcp-plus", "pulser", "tbtcp")


def metric_suffix(name: str) -> str:
    """Registry/topology name -> metric-name-safe suffix."""
    return name.replace("+", "-plus")


def _layers() -> Tuple[Layer, ...]:
    rows = [
        # -- the workload's own traced pass -------------------------------------
        Layer("sim.init_ms", "ms", "lower", "spans", "points_per_s@sweep-ci512"),
        Layer("sim.run_share", "ratio", "higher", "spans", "wall_s@fig7-paper"),
        Layer("sim.events", "count", "lower", "spans", "events_per_s@fig7-paper"),
        Layer("workloads.close_ms", "ms", "lower", "spans", "points_per_s@incast-massive"),
        Layer("exec.collect_ms", "ms", "lower", "spans", "points_per_s@incast-massive"),
        Layer("exec.point_ms_p50", "ms", "lower", "spans", "points_per_s@incast-massive"),
        Layer("exec.point_ms_tail", "ms", "lower", "spans", "wall_s@fig7-paper"),
        Layer("trace.overhead_pct", "%", "lower", "spans", "none (traced vs untraced wall)"),
        # -- EngineProfiler pass over the workload's probe slice ----------------
        Layer("tcp.share.host_receive", "ratio", "lower", "profile", "events_per_s@fig7-paper"),
        Layer("net.share.switch", "ratio", "lower", "profile", "events_per_s@topo-closedloop"),
        Layer("net.share.port", "ratio", "lower", "profile", "events_per_s@topo-closedloop"),
        Layer("net.share.host_send", "ratio", "lower", "profile", "events_per_s@incast-massive"),
        Layer("workloads.share.round_begin", "ratio", "lower", "profile",
              "events_per_s@incast-massive"),
        # -- tracemalloc + gc.callbacks pass over the probe slice ---------------
        Layer("mem.alloc_peak_kb", "KiB", "lower", "mem", "peak_rss_mb@incast-massive"),
        Layer("mem.gc_collections", "count", "lower", "mem", "wall_s@incast-massive"),
        Layer("mem.gc_pause_ms", "ms", "lower", "mem", "wall_s@incast-massive"),
        # -- fixed probes: one small scenario per layer family ------------------
        Layer("experiments.driver_overhead_ms", "ms", "lower", "probe", "wall_s@fig7-paper"),
        Layer("control.reset_ms", "ms", "lower", "probe", "points_per_s@control-env"),
        Layer("control.step_overhead_us", "us", "lower", "probe", "events_per_s@control-env"),
        Layer("control.events_per_step", "count", "higher", "probe", "events_per_s@control-env"),
        Layer("control.steps_per_s", "1/s", "higher", "probe", "events_per_s@control-env"),
        Layer("telemetry.trace_on_ratio", "ratio", "lower", "probe", "wall_s@incast-instrumented"),
        Layer("telemetry.profile_on_ratio", "ratio", "lower", "probe",
              "wall_s@incast-instrumented"),
        Layer("validate.on_ratio", "ratio", "lower", "probe", "wall_s@incast-instrumented"),
        Layer("validate.verify_all_ms", "ms", "lower", "probe", "wall_s@incast-instrumented"),
        Layer("exec.parallel2_speedup", "ratio", "higher", "probe", "none (informational)"),
        # -- microbenches: one layer in isolation -------------------------------
        Layer("sim.dispatch_ns.native", "ns", "lower", "micro", "events_per_s@fig7-paper"),
        Layer("sim.dispatch_ns.pure", "ns", "lower", "micro", "events_per_s@control-env"),
        Layer("sim.light_dispatch_ns.native", "ns", "lower", "micro", "events_per_s@fig7-paper"),
        Layer("sim.light_dispatch_ns.pure", "ns", "lower", "micro", "events_per_s@control-env"),
        Layer("sim.queue_push_pop_ns.d16", "ns", "lower", "micro", "events_per_s@sweep-ci512"),
        Layer("sim.queue_push_pop_ns.d4096", "ns", "lower", "micro",
              "events_per_s@incast-massive"),
        Layer("sim.reschedule_ns", "ns", "lower", "micro", "events_per_s@fig7-paper"),
        Layer("sim.cancel_ns", "ns", "lower", "micro", "events_per_s@fig7-paper"),
        Layer("sim.run_reentry_us", "us", "lower", "micro", "events_per_s@control-env"),
        Layer("sim.native_load_s", "s", "lower", "micro", "setup_s@fig7-paper"),
        Layer("net.port_send_ns", "ns", "lower", "micro", "events_per_s@topo-closedloop"),
        Layer("net.queue_enq_deq_ns", "ns", "lower", "micro", "events_per_s@topo-closedloop"),
        Layer("net.queue_drop_ns", "ns", "lower", "micro", "events_per_s@fig7-paper"),
        Layer("net.pool_alloc_free_ns", "ns", "lower", "micro", "events_per_s@fig7-paper"),
        Layer("net.pool_grow_ms", "ms", "lower", "micro", "points_per_s@incast-massive"),
        Layer("net.switch_forward_ns", "ns", "lower", "micro", "events_per_s@topo-closedloop"),
        Layer("net.switch_ecmp_ns", "ns", "lower", "micro", "events_per_s@topo-closedloop"),
    ]
    for topology, moves in (("two-tier", "points_per_s@sweep-ci512"),
                            ("dumbbell", "points_per_s@topo-closedloop"),
                            ("fat-tree", "points_per_s@topo-closedloop")):
        rows.append(Layer(f"net.build_ms.{topology}", "ms", "lower", "micro", moves))
    for cc in _CCS:
        rows.append(Layer(f"tcp.sender_ack_ns.{cc}", "ns", "lower", "micro",
                          "events_per_s@fig7-paper"))
    rows += [
        Layer("tcp.receiver_data_ns", "ns", "lower", "micro", "events_per_s@fig7-paper"),
        Layer("tcp.sender_build_us", "us", "lower", "micro", "points_per_s@incast-massive"),
        Layer("tcp.receiver_build_us", "us", "lower", "micro", "points_per_s@incast-massive"),
        Layer("workloads.build_us_per_flow.incast", "us", "lower", "micro",
              "points_per_s@incast-massive"),
        Layer("workloads.build_us_per_flow.http", "us", "lower", "micro",
              "points_per_s@topo-closedloop"),
        Layer("workloads.build_us_per_flow.swarm", "us", "lower", "micro",
              "points_per_s@topo-closedloop"),
        Layer("core.machine_event_ns", "ns", "lower", "micro", "events_per_s@incast-massive"),
        Layer("core.pacer_next_ns", "ns", "lower", "micro", "events_per_s@incast-massive"),
        Layer("exec.spec_create_us", "us", "lower", "micro", "setup_s@sweep-ci512"),
        Layer("exec.cache_key_us", "us", "lower", "micro", "warm_points_per_s@sweep-ci512"),
        Layer("exec.result_encode_us", "us", "lower", "micro", "warm_points_per_s@sweep-ci512"),
        Layer("exec.result_decode_us", "us", "lower", "micro", "warm_points_per_s@sweep-ci512"),
        Layer("exec.aggregate_us", "us", "lower", "micro", "wall_s@fig7-paper"),
        Layer("exec.map_overhead_us", "us", "lower", "micro", "warm_points_per_s@sweep-ci512"),
        Layer("sweep.put_us", "us", "lower", "micro", "points_per_s@sweep-ci512"),
        Layer("sweep.get_us", "us", "lower", "micro", "warm_points_per_s@sweep-ci512"),
        Layer("sweep.has_key_us", "us", "lower", "micro", "warm_points_per_s@sweep-ci512"),
        Layer("sweep.plan_us_per_point", "us", "lower", "micro",
              "warm_points_per_s@sweep-ci512"),
        Layer("sweep.merge_us_per_point", "us", "lower", "micro",
              "warm_points_per_s@sweep-ci512"),
        Layer("sweep.export_ms_per_kpoint", "ms", "lower", "micro",
              "warm_points_per_s@sweep-ci512"),
        Layer("sweep.digest_ms_per_kpoint", "ms", "lower", "micro",
              "warm_points_per_s@sweep-ci512"),
        Layer("sweep.get_us.20k", "us", "lower", "micro", "warm_points_per_s@sweep-ci512"),
        Layer("telemetry.hook_fanout_ns.0", "ns", "lower", "micro", "events_per_s@fig7-paper"),
        Layer("telemetry.hook_fanout_ns.1", "ns", "lower", "micro",
              "wall_s@incast-instrumented"),
        Layer("telemetry.hook_fanout_ns.3", "ns", "lower", "micro",
              "wall_s@incast-instrumented"),
        Layer("telemetry.tracer_record_ns", "ns", "lower", "micro",
              "wall_s@incast-instrumented"),
        Layer("telemetry.observe_snapshot_us", "us", "lower", "micro",
              "events_per_s@control-env"),
    ]
    return tuple(rows)


PER_LAYER: Tuple[Layer, ...] = _layers()

E2E_BY_NAME: Dict[str, EndToEnd] = {m.name: m for m in END_TO_END}
LAYER_BY_NAME: Dict[str, Layer] = {m.name: m for m in PER_LAYER}


def worse_by(metric, base: float, value: float) -> float:
    """Signed worsening of ``value`` against ``base`` as a share of ``base``
    (positive = worse), for a metric with a ``better`` direction."""
    if base == 0:
        return 0.0
    delta = (value - base) / abs(base)
    return delta if metric.better == "lower" else -delta
