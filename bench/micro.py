"""Layer microbenches and fixed probes: one layer driven in isolation.

Every entry here has the same inputs whatever workload the traced run is
for (only ``--seed`` reaches them), so a layer's number can be compared
across runs and set beside the end-to-end metric it should move (see
``bench.metrics.PER_LAYER``).  A microbench is a function ``f(n)`` that
sets up outside the clock, runs ``n`` ops inside it and returns the
elapsed seconds; :func:`per_op` sizes ``n`` so one batch takes
``batch_s`` and reports the best of five batches.  A target that cannot
be imported or built raises :class:`Skip` (or anything else) and is
reported as ``skipped: <reason>`` — it never aborts the suite.

Imports of layer modules happen inside each bench, so a later PR that
removes one (the native core, ``ParallelExecutor`` ...) skips that line
and nothing else.
"""

from __future__ import annotations

import json
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter
from typing import Callable, Dict, List, Tuple

from .metrics import metric_suffix

BATCHES = 5
HUGE = 1 << 40


class Skip(Exception):
    """The bench's target is not available in this checkout."""


def per_op(bench: Callable[[int], float], batch_s: float) -> float:
    """Best-of-five seconds per op, batch size fitted to ``batch_s``."""
    pilot = 50
    elapsed = bench(pilot)
    n = int(min(100_000, max(20, pilot * batch_s / max(elapsed, 1e-9))))
    return min(bench(n) for _ in range(BATCHES)) / n


def _noop(*_args) -> None:
    pass


# -- sim ---------------------------------------------------------------------------
def _simulator(**kwargs):
    from repro import Simulator

    return Simulator(seed=0, **kwargs)


def _dispatch(native: bool, light: bool) -> Callable[[int], float]:
    def bench(n: int) -> float:
        sim = _simulator(native=native)
        if native and not getattr(sim, "native", False):
            raise Skip("native event core unavailable")
        if light:
            for i in range(n):
                sim.schedule_light(i, _noop, 0)
        else:
            for i in range(n):
                sim.schedule(i, _noop)
        started = perf_counter()
        sim.run()
        return perf_counter() - started

    return bench


def _queue_push_pop(depth: int) -> Callable[[int], float]:
    def bench(n: int) -> float:
        from repro.sim import EventQueue

        queue = EventQueue()
        for i in range(depth):
            queue.push(i, _noop)
        push, pop = queue.push, queue.pop
        started = perf_counter()
        for t in range(depth, depth + n):
            push(t, _noop)
            pop()
        return perf_counter() - started

    return bench


def _reschedule(n: int) -> float:
    sim = _simulator()
    reschedule = sim.reschedule
    event = sim.schedule(1000, _noop)
    started = perf_counter()
    for i in range(n):
        event = reschedule(event, 1000 + i, _noop)
    return perf_counter() - started


def _cancel(n: int) -> float:
    sim = _simulator()
    events = [sim.schedule(1000 + i, _noop) for i in range(n)]
    cancel = sim.cancel
    started = perf_counter()
    for event in events:
        cancel(event)
    return perf_counter() - started


def _run_reentry(n: int) -> float:
    # What ControlEnv pays per step: one run() entry/exit around one event.
    sim = _simulator(native=False)
    for i in range(n):
        sim.schedule(i, sim.request_stop)
    run = sim.run
    started = perf_counter()
    for _ in range(n):
        run()
    return perf_counter() - started


def _native_load_s() -> float:
    """First ``Simulator()`` in a fresh interpreter minus the second: the
    native core's load (and, in a fresh checkout, compile) cost."""
    code = (
        "import sys, time; sys.path.insert(0, sys.argv[1]); from repro import Simulator\n"
        "a = time.perf_counter(); s = Simulator(seed=0); b = time.perf_counter()\n"
        "Simulator(seed=0); c = time.perf_counter()\n"
        "print((b - a) - (c - b) if getattr(s, 'native', False) else -1)"
    )
    import repro

    src = str(Path(repro.__file__).resolve().parent.parent)
    out = subprocess.run([sys.executable, "-c", code, src], capture_output=True, text=True,
                         timeout=120, check=True)
    value = float(out.stdout.strip())
    if value < 0:
        raise Skip("native event core unavailable")
    return value


# -- net ---------------------------------------------------------------------------
def _net(buffer_bytes: int = HUGE):
    """A simulator with a sink host (frees whatever reaches it) behind one port."""
    from repro.net import DropTailQueue, Host, Link, OutputPort
    from repro.net.pool import PacketPool

    sim = _simulator()
    pool = PacketPool.of(sim)
    sink = Host(sim, "sink")
    queue = DropTailQueue(buffer_bytes, 32 * 1024, pool=pool)
    port = OutputPort(sim, Link(sink), queue, "bench-port")
    return sim, pool, sink, queue, port


def _data(pool, n: int, dst: int, flow_ids: int = 1, src: int = 0, first: int = 0) -> List[int]:
    """``n`` full in-order ECT data segments (numbers ``first``...), as handles."""
    alloc = pool.alloc_data
    return [alloc(1 + i % flow_ids, src, dst, i * 1460, 1460, True, False, i)
            for i in range(first, first + n)]


def _port_send(n: int) -> float:
    sim, pool, sink, _queue, port = _net()
    handles = _data(pool, n, sink.node_id)
    send = port.send
    started = perf_counter()
    for h in handles:
        send(h)
    sim.run()
    return perf_counter() - started


def _queue_enq_deq(n: int) -> float:
    _sim, pool, sink, queue, _port = _net()
    (h,) = _data(pool, 1, sink.node_id)
    enqueue, dequeue = queue.enqueue, queue.dequeue
    started = perf_counter()
    for _ in range(n):
        enqueue(h)
        dequeue()
    return perf_counter() - started


def _queue_drop(n: int) -> float:
    _sim, pool, sink, queue, _port = _net(buffer_bytes=1000)
    handles = _data(pool, n, sink.node_id)
    enqueue = queue.enqueue
    started = perf_counter()
    for h in handles:
        enqueue(h)
    elapsed = perf_counter() - started
    if queue.dropped_packets != n:
        raise RuntimeError(f"full queue dropped {queue.dropped_packets} of {n}")
    return elapsed


def _pool_alloc_free(n: int) -> float:
    from repro.net.pool import PacketPool

    pool = PacketPool()
    alloc, free = pool.alloc_data, pool.free
    started = perf_counter()
    for i in range(n):
        free(alloc(1, 0, 1, i, 1460, True, False, i))
    return perf_counter() - started


def _pool_grow_ms() -> float:
    from repro.net.pool import PacketPool

    best = float("inf")
    for _ in range(3):
        pool = PacketPool()
        alloc = pool.alloc_control
        started = perf_counter()
        for i in range(65536):
            alloc(1, 0, 1, 64, i)
        best = min(best, perf_counter() - started)
    return best * 1e3


def _switch(ecmp: bool) -> Callable[[int], float]:
    def bench(n: int) -> float:
        from repro.net import Host, Link, Switch

        sim = _simulator()
        switch = Switch(sim, "bench-switch", HUGE, 32 * 1024)
        sink = Host(sim, "sink")
        ports = [switch.add_port(Link(sink)) for _ in range(2 if ecmp else 1)]
        if ecmp:
            switch.add_ecmp_group(sink.node_id, ports, salt=12345)
        else:
            switch.add_route(sink.node_id, ports[0])
        handles = _data(switch.pool, n, sink.node_id, flow_ids=64)
        receive = switch.receive
        started = perf_counter()
        for h in handles:
            receive(h)
        elapsed = perf_counter() - started
        sim.run()  # drain to the sink outside the clock
        return elapsed

    return bench


def _build_topology(name: str) -> float:
    from repro import TopologyParams, topology_builder
    from .workloads import TopoClosedLoop

    overrides = TopoClosedLoop.TOPOLOGIES.get(name)
    builder = topology_builder(name)
    best = float("inf")
    for _ in range(BATCHES):
        params = TopologyParams(**overrides) if overrides else None
        sim = _simulator()
        started = perf_counter()
        builder(sim, params)
        best = min(best, perf_counter() - started)
    return best * 1e3


# -- tcp / core --------------------------------------------------------------------
def _endpoint_hosts():
    """Two hosts cabled back to back; nothing is registered on the far one,
    so whatever an endpoint transmits is drained there and freed."""
    from repro.net import Host, Link

    sim = _simulator()
    near, far = Host(sim, "near"), Host(sim, "far")
    near.attach_link(Link(far))
    far.attach_link(Link(near))
    return sim, near, far


def _sender_ack(cc: str) -> Callable[[int], float]:
    def bench(n: int) -> float:
        from repro import spec_for

        sim, near, far = _endpoint_hosts()
        spec = spec_for(cc)
        sender = spec.make_sender(sim, near, far.node_id, flow_id=1)
        mss = sender.config.mss
        sender.send(HUGE)
        alloc_ack = sender._pool.alloc_ack if hasattr(sender, "_pool") else sim.pool.alloc_ack
        on_packet = sender.on_packet
        acked = done = 0
        elapsed = 0.0
        stalls = 0
        while done < n:
            batch = min(32, n - done, (sender.snd_nxt - acked) // mss)
            if batch <= 0:
                # A paced sender has not released its next segment yet.
                stalls += 1
                if stalls > 10_000:
                    raise RuntimeError(f"{cc} sender stalled with nothing in flight")
                sim.run(until=sim.now + 100_000)
                continue
            acks = [
                alloc_ack(1, far.node_id, near.node_id, acked + (i + 1) * mss, False, False, 0)
                for i in range(batch)
            ]
            started = perf_counter()
            for h in acks:
                on_packet(h)
            elapsed += perf_counter() - started
            acked += batch * mss
            done += batch
            sim.run(until=sim.now + batch * 13_000)  # drain the NIC to the far host
        sender.close()
        return elapsed

    return bench


def _receiver_data(n: int) -> float:
    from repro import TcpReceiver

    sim, near, far = _endpoint_hosts()
    receiver = TcpReceiver(sim, near, far.node_id, flow_id=1)
    pool = sim.pool
    on_packet = receiver.on_packet
    elapsed = 0.0
    for base in range(0, n, 256):
        segments = _data(pool, min(256, n - base), near.node_id, src=far.node_id, first=base)
        started = perf_counter()
        for h in segments:
            on_packet(h)
        elapsed += perf_counter() - started
        sim.run(until=sim.now + 256 * 1_000)  # drain the ACKs
    return elapsed


def _sender_build(n: int) -> float:
    from repro import spec_for

    sim, near, far = _endpoint_hosts()
    make = spec_for("dctcp+").make_sender
    started = perf_counter()
    senders = [make(sim, near, far.node_id, flow_id) for flow_id in range(1, n + 1)]
    elapsed = perf_counter() - started
    for sender in senders:
        sender.close()
    return elapsed


def _receiver_build(n: int) -> float:
    from repro import TcpReceiver

    sim, near, far = _endpoint_hosts()
    started = perf_counter()
    receivers = [TcpReceiver(sim, near, far.node_id, flow_id, 0) for flow_id in range(1, n + 1)]
    elapsed = perf_counter() - started
    for receiver in receivers:
        receiver.close()
    return elapsed


def _workload_build(kind: str) -> float:
    """Microseconds per flow to construct (not run) one workload."""
    from repro import (HttpConfig, HttpWorkload, IncastConfig, IncastWorkload, SwarmConfig,
                       SwarmWorkload, TopologyParams, spec_for, topology_builder)
    from .workloads import TopoClosedLoop

    best = float("inf")
    for _ in range(BATCHES):
        sim = _simulator()
        if kind == "incast":
            tree = topology_builder("two-tier")(sim, None)
            flows = 1024
            build = lambda: IncastWorkload(sim, tree, spec_for("dctcp+"), IncastConfig(flows))  # noqa: E731
        else:
            params = TopologyParams(**TopoClosedLoop.TOPOLOGIES["fat-tree"])
            tree = topology_builder("fat-tree")(sim, params)
            flows = 16
            if kind == "http":
                build = lambda: HttpWorkload(sim, tree, spec_for("dctcp+"), HttpConfig(flows))  # noqa: E731
            else:
                build = lambda: SwarmWorkload(sim, tree, spec_for("dctcp+"), SwarmConfig(flows))  # noqa: E731
        started = perf_counter()
        workload = build()
        best = min(best, perf_counter() - started)
        workload.close()
    return best / flows * 1e6


def _machine_event(n: int) -> float:
    from repro import DctcpPlusConfig, SlowTimeStateMachine

    machine = SlowTimeStateMachine(DctcpPlusConfig())
    congestion, clean = machine.on_congestion_event, machine.on_clean_ack
    started = perf_counter()
    for i in range(n):
        congestion()
        clean(i * 1_000_000)  # past the decay interval, so every ACK decays
    return perf_counter() - started


def _pacer_next(n: int) -> float:
    from repro import DctcpPlusConfig, SlowTimePacer, SlowTimeStateMachine

    machine = SlowTimeStateMachine(DctcpPlusConfig())
    machine.on_congestion_event()
    pacer = SlowTimePacer(machine)
    next_send, sent = pacer.next_send_time, pacer.on_sent
    started = perf_counter()
    for now in range(0, n * 1000, 1000):
        next_send(now)
        sent(now)
    return perf_counter() - started


# -- exec / sweep ------------------------------------------------------------------
def _small_result(seed: int, n_flows: int, rounds: int):
    from repro import ScenarioSpec, run_scenario

    spec = ScenarioSpec.create("dctcp+", n_flows, rounds=rounds, seed=seed)
    return spec, run_scenario(spec)


def _spec_create(n: int) -> float:
    from repro import ScenarioSpec

    create = ScenarioSpec.create
    topo = {"ecn_threshold_bytes": 16384, "buffer_bytes": 65536}
    started = perf_counter()
    for seed in range(n):
        create("dctcp+", 4, rounds=1, seed=seed, rto_min_ms=10.0, topo=topo)
    return perf_counter() - started


def _exec_benches(seed: int) -> Dict[str, Callable[[int], float]]:
    from repro import PointResult, SerialExecutor

    spec, result = _small_result(seed, n_flows=64, rounds=2)
    text = json.dumps(result.to_dict())

    def cache_key(n: int) -> float:
        started = perf_counter()
        for _ in range(n):
            spec.cache_key()
        return perf_counter() - started

    def encode(n: int) -> float:
        started = perf_counter()
        for _ in range(n):
            json.dumps(result.to_dict())
        return perf_counter() - started

    def decode(n: int) -> float:
        started = perf_counter()
        for _ in range(n):
            PointResult.from_dict(json.loads(text))
        return perf_counter() - started

    def aggregate(n: int) -> float:
        triple = [result, result, result]
        started = perf_counter()
        for _ in range(n):
            PointResult.aggregate(triple)
        return perf_counter() - started

    class AllHits:
        hits = misses = write_errors = 0

        def get(self, _spec):
            return result

        def put(self, _spec, _result):
            pass

    def map_overhead(n: int) -> float:
        specs = [spec] * n
        executor = SerialExecutor(cache=AllHits())
        started = perf_counter()
        executor.map(specs)
        return perf_counter() - started

    return {
        "exec.cache_key_us": cache_key,
        "exec.result_encode_us": encode,
        "exec.result_decode_us": decode,
        "exec.aggregate_us": aggregate,
        "exec.map_overhead_us": map_overhead,
    }


def _sweep_benches(seed: int, tmp: Path, batch_s: float, big_rows: int,
                   out: Dict[str, float]) -> None:
    """Everything on a filled SweepStore: one ci-512-sized result stored under
    the grid's specs (and, for ``.20k``, under 20 000 varied seeds)."""
    import dataclasses

    from repro import SweepSpec, SweepStore
    from repro.sweep import plan_sweep
    from repro.sweep.spec import PRESETS

    spec, result = _small_result(seed, n_flows=2, rounds=1)
    sweep = SweepSpec.from_dict(PRESETS["ci-512"])
    points = sweep.points()
    keys = [p.cache_key() for p in points]

    def timed(fn) -> float:
        started = perf_counter()
        fn()
        return perf_counter() - started

    with SweepStore(tmp / "micro.sqlite") as store:
        out["sweep.put_us"] = min(
            timed(lambda: [store.put(p, result) for p in points]) for _ in range(3)
        ) / len(points) * 1e6

        def get(n: int) -> float:
            started = perf_counter()
            for i in range(n):
                store.get(points[i % 512])
            return perf_counter() - started

        def has_key(n: int) -> float:
            started = perf_counter()
            for i in range(n):
                store.has_key(keys[i % 512])
            return perf_counter() - started

        out["sweep.get_us"] = per_op(get, batch_s) * 1e6
        out["sweep.has_key_us"] = per_op(has_key, batch_s) * 1e6
        out["sweep.plan_us_per_point"] = min(
            timed(lambda: plan_sweep(sweep, store)) for _ in range(3)
        ) / len(points) * 1e6
        with SweepStore(tmp / "micro-merged.sqlite") as merged:
            out["sweep.merge_us_per_point"] = timed(lambda: merged.merge_from(store)) / len(
                points) * 1e6
        per_k = 1000.0 / len(points)
        out["sweep.export_ms_per_kpoint"] = min(
            timed(lambda: store.export_canonical(tmp / "micro.export")) for _ in range(3)
        ) * 1e3 * per_k
        out["sweep.digest_ms_per_kpoint"] = min(
            timed(store.content_digest) for _ in range(3)
        ) * 1e3 * per_k

    with SweepStore(tmp / "micro-20k.sqlite") as big:
        varied = [dataclasses.replace(spec, seed=s) for s in range(big_rows)]
        for p in varied:
            big.put(p, result)

        def get_20k(n: int) -> float:
            started = perf_counter()
            for i in range(n):
                big.get(varied[(i * 7919) % big_rows])
            return perf_counter() - started

        out["sweep.get_us.20k"] = per_op(get_20k, batch_s) * 1e6


# -- telemetry ---------------------------------------------------------------------
class _Subscriber:
    wants_enqueue = True

    def queue_dropped(self, queue, name, h):
        pass

    def queue_marked(self, queue, name, h):
        pass

    def queue_enqueued(self, queue, name, h):
        pass


def _hook_fanout(subscribers: int) -> Callable[[int], float]:
    def bench(n: int) -> float:
        from repro.net import DropTailQueue, Host, Link, OutputPort
        from repro.net.pool import PacketPool
        from repro.telemetry import HookRegistry

        sim = _simulator()
        hooks = HookRegistry()
        for _ in range(subscribers):
            hooks.subscribe(_Subscriber())
        sim.hooks = hooks  # before the port exists: the registry wires queues at construction
        pool = PacketPool.of(sim)
        sink = Host(sim, "sink")
        queue = DropTailQueue(HUGE, 32 * 1024, pool=pool)
        OutputPort(sim, Link(sink), queue, "bench-port")
        (h,) = _data(pool, 1, sink.node_id)
        enqueue, dequeue = queue.enqueue, queue.dequeue
        started = perf_counter()
        for _ in range(n):
            enqueue(h)
            dequeue()
        return perf_counter() - started

    return bench


def _tracer_record(n: int) -> float:
    from repro import Simulator, Tracer

    tracer = Tracer(max_records=n + 1)
    sim = Simulator(seed=0, tracer=tracer)
    from repro.net import DropTailQueue
    from repro.net.pool import PacketPool

    pool = PacketPool.of(sim)
    queue = DropTailQueue(HUGE, None, pool=pool)
    (h,) = _data(pool, 1, 0)
    record = tracer.queue_dropped
    started = perf_counter()
    for _ in range(n):
        record(queue, "bench-queue", h)
    return perf_counter() - started


def _observe_snapshot(n: int) -> float:
    from repro import spec_for
    from repro.control import ObservationAssembler

    sim, near, far = _endpoint_hosts()
    sender = spec_for("dctcp").make_sender(sim, near, far.node_id, flow_id=1)
    snapshot = ObservationAssembler().snapshot
    started = perf_counter()
    for _ in range(n):
        snapshot(sender, 0, 14600, 1460)
    elapsed = perf_counter() - started
    sender.close()
    return elapsed


# -- fixed probes: one small scenario per layer family -----------------------------
def _probe_driver_overhead(seed: int, out: Dict[str, float]) -> None:
    from repro import SerialExecutor
    from repro.exec import using_executor
    from repro.experiments.registry import get_runner

    walls: List[float] = []
    executor = SerialExecutor(progress=lambda ev: walls.append(ev.result.wall_time_s))
    started = perf_counter()
    with using_executor(executor):
        get_runner("fig7")(n_values=(20,), rounds=2, seeds=(seed,))
    out["experiments.driver_overhead_ms"] = (perf_counter() - started - sum(walls)) * 1e3


def _probe_control(seed: int, out: Dict[str, float]) -> None:
    from repro import ControlEnv, ScenarioSpec
    from .traced import Spans, traced_point

    n_flows, rounds = 16, 10
    env = ControlEnv(protocol="dctcp+", n_flows=n_flows, rounds=rounds, seed=seed,
                     controlled=tuple(range(n_flows)))
    started = perf_counter()
    obs = env.reset()
    reset_s = perf_counter() - started
    steps = 0
    while not obs.done:
        obs = env.step(None)
        steps += 1
    episode_s = perf_counter() - started
    events = env.sim.events_processed
    env.close()
    # The same scenario on the same (pure-Python) dispatch loop, uncontrolled.
    spec = ScenarioSpec.create("dctcp+", n_flows, rounds=rounds, seed=seed)
    started = perf_counter()
    traced_point(Spans(), spec, native=False)
    pure_s = perf_counter() - started
    out["control.reset_ms"] = reset_s * 1e3
    out["control.step_overhead_us"] = (episode_s - pure_s) / steps * 1e6
    out["control.events_per_step"] = events / steps
    out["control.steps_per_s"] = steps / episode_s


def _probe_instrumentation(seed: int, out: Dict[str, float]) -> None:
    from repro import EngineProfiler, ScenarioSpec, run_scenario
    from .traced import Spans, traced_point

    spec = ScenarioSpec.create("dctcp+", 256, rounds=5, seed=seed)
    spec_traced = ScenarioSpec.create("dctcp+", 256, rounds=5, seed=seed, trace=True)

    def wall(run) -> float:
        started = perf_counter()
        run()
        return perf_counter() - started

    plain = min(wall(lambda: run_scenario(spec)) for _ in range(2))
    out["telemetry.trace_on_ratio"] = wall(lambda: run_scenario(spec_traced)) / plain
    out["telemetry.profile_on_ratio"] = wall(
        lambda: run_scenario(spec, profiler=EngineProfiler())) / plain
    spans = Spans()
    out["validate.on_ratio"] = wall(lambda: traced_point(spans, spec, validate=True)) / plain
    out["validate.verify_all_ms"] = spans.self_by_name()["validate.verify_all"] * 1e3


def _probe_parallel(seed: int, out: Dict[str, float]) -> None:
    from repro import ParallelExecutor, ScenarioSpec, SerialExecutor

    specs = [ScenarioSpec.create(p, 20, rounds=8, seed=seed, min_cwnd_mss=1.0)
             for p in ("dctcp+", "dctcp", "tcp", "dctcp")]
    started = perf_counter()
    SerialExecutor().map(specs)
    serial = perf_counter() - started
    started = perf_counter()
    ParallelExecutor(2).map(specs)
    out["exec.parallel2_speedup"] = serial / (perf_counter() - started)


def run_all(
    seed: int, workdir: Path, batch_s: float = 0.02, big_store_rows: int = 20_000
) -> Tuple[Dict[str, float], Dict[str, str]]:
    """Every microbench and probe: ``(values by metric name, skip reasons)``."""
    from repro import cc_names

    values: Dict[str, float] = {}
    skipped: Dict[str, str] = {}

    def attempt(names, fn) -> None:
        try:
            fn()
        except Exception as exc:  # noqa: BLE001 - a broken layer skips its line, not the suite
            reason = f"{type(exc).__name__}: {exc}"
            for name in names:
                values.pop(name, None)
                skipped[name] = reason

    def timed(name: str, bench: Callable[[int], float], scale: float) -> None:
        attempt([name], lambda: values.__setitem__(name, per_op(bench, batch_s) * scale))

    def direct(name: str, fn: Callable[[], float]) -> None:
        attempt([name], lambda: values.__setitem__(name, fn()))

    ns, us = 1e9, 1e6
    timed("sim.dispatch_ns.native", _dispatch(native=True, light=False), ns)
    timed("sim.dispatch_ns.pure", _dispatch(native=False, light=False), ns)
    timed("sim.light_dispatch_ns.native", _dispatch(native=True, light=True), ns)
    timed("sim.light_dispatch_ns.pure", _dispatch(native=False, light=True), ns)
    timed("sim.queue_push_pop_ns.d16", _queue_push_pop(16), ns)
    timed("sim.queue_push_pop_ns.d4096", _queue_push_pop(4096), ns)
    timed("sim.reschedule_ns", _reschedule, ns)
    timed("sim.cancel_ns", _cancel, ns)
    timed("sim.run_reentry_us", _run_reentry, us)
    direct("sim.native_load_s", _native_load_s)
    timed("net.port_send_ns", _port_send, ns)
    timed("net.queue_enq_deq_ns", _queue_enq_deq, ns)
    timed("net.queue_drop_ns", _queue_drop, ns)
    timed("net.pool_alloc_free_ns", _pool_alloc_free, ns)
    direct("net.pool_grow_ms", _pool_grow_ms)
    timed("net.switch_forward_ns", _switch(ecmp=False), ns)
    timed("net.switch_ecmp_ns", _switch(ecmp=True), ns)
    for topology in ("two-tier", "dumbbell", "fat-tree"):
        direct(f"net.build_ms.{topology}", lambda t=topology: _build_topology(t))
    for cc in cc_names():
        timed(f"tcp.sender_ack_ns.{metric_suffix(cc)}", _sender_ack(cc), ns)
    timed("tcp.receiver_data_ns", _receiver_data, ns)
    timed("tcp.sender_build_us", _sender_build, us)
    timed("tcp.receiver_build_us", _receiver_build, us)
    for kind in ("incast", "http", "swarm"):
        direct(f"workloads.build_us_per_flow.{kind}", lambda k=kind: _workload_build(k))
    timed("core.machine_event_ns", _machine_event, ns)
    timed("core.pacer_next_ns", _pacer_next, ns)
    timed("exec.spec_create_us", _spec_create, us)
    exec_names = ["exec.cache_key_us", "exec.result_encode_us", "exec.result_decode_us",
                  "exec.aggregate_us", "exec.map_overhead_us"]

    def exec_all() -> None:
        for name, bench in _exec_benches(seed).items():
            timed(name, bench, us)

    attempt(exec_names, exec_all)
    sweep_names = ["sweep.put_us", "sweep.get_us", "sweep.has_key_us", "sweep.plan_us_per_point",
                   "sweep.merge_us_per_point", "sweep.export_ms_per_kpoint",
                   "sweep.digest_ms_per_kpoint", "sweep.get_us.20k"]

    def sweep_all() -> None:
        with tempfile.TemporaryDirectory(dir=workdir) as tmp:
            _sweep_benches(seed, Path(tmp), batch_s, big_store_rows, values)

    attempt(sweep_names, sweep_all)
    for k in (0, 1, 3):
        timed(f"telemetry.hook_fanout_ns.{k}", _hook_fanout(k), ns)
    timed("telemetry.tracer_record_ns", _tracer_record, ns)
    timed("telemetry.observe_snapshot_us", _observe_snapshot, us)
    attempt(["experiments.driver_overhead_ms"], lambda: _probe_driver_overhead(seed, values))
    attempt(["control.reset_ms", "control.step_overhead_us", "control.events_per_step",
             "control.steps_per_s"], lambda: _probe_control(seed, values))
    attempt(["telemetry.trace_on_ratio", "telemetry.profile_on_ratio", "validate.on_ratio",
             "validate.verify_all_ms"], lambda: _probe_instrumentation(seed, values))
    attempt(["exec.parallel2_speedup"], lambda: _probe_parallel(seed, values))
    return values, skipped
