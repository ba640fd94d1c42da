"""The six end-to-end workloads, driven through ``repro``'s public API.

Import discipline: only names in ``repro.__all__`` plus
``repro.exec.using_executor``, ``repro.experiments.registry.get_runner``
and ``repro.sweep.spec.PRESETS`` — never ``ResultCache``, the
``repro.metrics`` collectors, ``repro.sim._native`` or ``benchmarks/``
(ROADMAP items 2-3 remove those), so the suite survives the refactors it
is meant to referee.

A workload is a fixed op list built from ``--seed`` (a *pass*); a unit
repeats the pass and the parent reports medians over passes.  A pass is
simulations only (its *compute* phase), except ``sweep-ci512``, whose
second half is the *store* phase: the lifecycle of the
:class:`~repro.SweepStore` it has just filled.  The two are timed
separately, so a sweep or codec change moves ``warm_points_per_s`` (and
that workload's ``wall_s``) and nothing else anywhere.  ``how`` is the
execution strategy: :data:`PLAIN` calls straight into ``repro``;
``bench.traced.Traced`` swaps in the span-recording recipe for the
``--trace`` pass.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import tempfile
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter, process_time
from typing import Dict, List, Optional, Sequence, Tuple

from repro import (
    ControlEnv,
    EngineProfiler,
    PointResult,
    ScenarioSpec,
    SerialExecutor,
    SweepSpec,
    SweepStore,
    run_scenario,
    run_sweep,
)
from repro.exec import using_executor
from repro.experiments.registry import get_runner
from repro.sweep.spec import PRESETS

Pair = Tuple[ScenarioSpec, PointResult]


class Timed:
    """CPU (user+sys) and wall seconds accumulated over the regions it wraps."""

    __slots__ = ("cpu", "wall", "_c", "_w")

    def __init__(self) -> None:
        self.cpu = 0.0
        self.wall = 0.0

    def __enter__(self) -> "Timed":
        self._w = perf_counter()
        self._c = process_time()
        return self

    def __exit__(self, *exc) -> None:
        self.cpu += process_time() - self._c
        self.wall += perf_counter() - self._w


def result_digest(result: PointResult) -> str:
    """sha256 of the canonical result JSON with host wall time zeroed."""
    payload = result.to_dict()
    payload["wall_time_s"] = 0.0
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


class PassLog:
    """What one pass did: timings, counts, and the ops that failed.

    An op is one computed point, one control episode, one stored point
    served, or one store-lifecycle step; it fails if it raises, completes
    fewer rounds than asked, reports no goodput or no events, or breaks a
    self-consistency check.
    """

    def __init__(self) -> None:
        self.compute = Timed()
        self.store = Timed()
        self.events = 0
        self.points = 0
        self.served = 0
        self.steps = 0
        self.attempted = 0
        self.failures: List[str] = []
        #: (label, spec or None, digest-able result) per computed op, in op order.
        self.results: List[Tuple[str, Optional[ScenarioSpec], object]] = []
        #: digest of the computed ops, set by :meth:`seal`.
        self.digest = ""

    def check(self, label: str, ok: bool, why: str = "") -> bool:
        """Count one attempted op; record it as failed unless ``ok``."""
        self.attempted += 1
        if not ok:
            self.failures.append(f"{label}: {why}")
        return ok

    def point(self, spec: ScenarioSpec, result: PointResult, label: str = "") -> None:
        """Record one computed scenario point and judge it."""
        label = label or spec.label()
        self.points += 1
        self.events += result.events_processed
        self.results.append((label, spec, result))
        why = ""
        if result.rounds < spec.rounds:
            why = f"completed {result.rounds} rounds of {spec.rounds}"
        elif not result.goodput_mbps > 0:
            why = f"goodput {result.goodput_mbps}"
        elif result.events_processed <= 0:
            why = "zero events"
        self.check(label, not why, why)

    def count_served(self, n: int, hits: int) -> None:
        """``n`` stored points were read back; each is an op, a miss a failure."""
        self.served += n
        self.attempted += n
        if hits != n:
            self.failures.extend(["store read-back: miss"] * max(1, n - hits))

    def compare_served(self, pairs: Sequence[Pair], served: Sequence[PointResult]) -> None:
        """Every served result must equal the one computed for its spec."""
        for (spec, expected), got in zip(pairs, served):
            if got != expected:
                self.failures.append(f"store get {spec.label()}: differs from computed")

    def seal(self, with_digest: bool) -> None:
        """Drop the results (so later passes do not inflate the child's RSS),
        keeping one digest over every computed op, in op order, if asked."""
        if with_digest:
            digest = hashlib.sha256()
            for _label, _spec, result in self.results:
                if isinstance(result, PointResult):
                    digest.update(result_digest(result).encode())
                else:
                    digest.update(json.dumps(result, sort_keys=True).encode())
            self.digest = digest.hexdigest()
        self.results.clear()


class Plain:
    """Untraced strategy: every call goes straight to ``repro``."""

    compute = staticmethod(run_scenario)

    def point_cache(self):
        """Executor cache slot for point workloads (none when untraced)."""
        return None

    def store(self, store: SweepStore):
        return store

    def span(self, name: str):
        return nullcontext()

    def episode(self, env: ControlEnv) -> int:
        """One autopilot episode; returns the number of steps taken."""
        obs = env.reset()
        steps = 0
        while not obs.done:
            obs = env.step(None)
            steps += 1
        return steps


PLAIN = Plain()


def serve_all(log: PassLog, raw: SweepStore, store, pairs: Sequence[Pair],
              compare: bool) -> None:
    """Read every stored point back through ``SerialExecutor(cache=store)``:
    each must be a hit, and (when asked) equal the computed result."""
    specs = [spec for spec, _ in pairs]
    hits = raw.hits
    with log.store:
        served = SerialExecutor(cache=store).map(specs)
    log.count_served(len(specs), raw.hits - hits)
    if compare:
        log.compare_served(pairs, served)


#: The warm probe's serving time is cut into this many slices and the rate is
#: the median over them: in-process trials repeated within 5 % (IQR) that way,
#: within 7 % as one total (bench/README.md, "Noise").
WARM_SLICES = 10


def warm_probe(path: Path, pairs: Sequence[Pair],
               cpu_s: float) -> Tuple[PassLog, List[Tuple[int, float]]]:
    """``warm_points_per_s`` for a workload with no store phase of its own
    (the driver wants every metric on every workload): its first pass's
    results, put into a fresh store and served back for ``cpu_s`` CPU-seconds.
    Runs once per unit, after the passes and outside ``wall_s``; only the
    serving is timed.  Returns the probe's log and ``(points served,
    CPU-seconds)`` per slice."""
    log = PassLog()
    slices: List[Tuple[int, float]] = []
    with SweepStore(path) as raw:
        for spec, result in pairs:
            raw.put(spec, result)
        log.check("store.put", len(raw) > 0 and raw.write_errors == 0,
                  f"{len(raw)} points stored, {raw.write_errors} write errors")
        for _slice in range(WARM_SLICES if pairs else 0):
            served, cpu = log.served, log.store.cpu
            while log.store.cpu - cpu < cpu_s / WARM_SLICES:
                serve_all(log, raw, raw, pairs, compare=log.served == 0)
            slices.append((log.served - served, log.store.cpu - cpu))
    return log, slices


class Workload:
    """Base: a seeded, sized op list."""

    name = ""
    #: seconds one full-size pass takes on the reference box; the unit
    #: repeats the pass round(seconds / nominal_s) times.
    nominal_s = 1.0
    #: whether a pass has a store phase of its own, which then is where
    #: ``warm_points_per_s`` comes from (otherwise: :func:`warm_probe`).
    has_store_phase = False
    SIZES: Dict[str, dict] = {}

    def __init__(self, seed: int, size: str):
        self.seed = seed
        self.params = self.SIZES[size]
        self.workdir: Optional[Path] = None
        #: dispatch mode of the simulators the ops ran on, where the workload
        #: gets to see them (None: ``repro``'s default, whatever that is).
        self.native_seen: Optional[bool] = None

    def prepare(self, workdir: Path) -> None:
        """Spec creation and the temp-store directory; part of ``setup_s``."""
        self.workdir = workdir

    def run_pass(self, log: PassLog, how) -> List[Pair]:
        """One pass over the op list, its stores in a directory of its own;
        returns the (spec, result) pairs a store would hold for it."""
        with tempfile.TemporaryDirectory(dir=self.workdir) as tmp:
            return self._pass(log, how, Path(tmp))

    def _pass(self, log: PassLog, how, tmp: Path) -> List[Pair]:
        raise NotImplementedError

    def rerun_first(self, log: PassLog) -> None:
        """First op of the unit run twice -> equal result (plain run_scenario)."""
        label, spec, first = log.results[0]
        again = run_scenario(spec)
        log.check(f"rerun {label}", again == first, "second run differs from the first")


def _create(protocol: str, n_flows: int, rounds: int, seed: int, **kwargs) -> ScenarioSpec:
    return ScenarioSpec.create(protocol, n_flows, rounds=rounds, seed=seed, **kwargs)


class Fig7Paper(Workload):
    """The fig7 figure driver, as a paper reader runs it."""

    name = "fig7-paper"
    nominal_s = 9.0
    SIZES = {
        "full": dict(n_values=(20, 40, 60, 80, 120, 160, 200), rounds=20),
        "trace": dict(n_values=(20, 120, 200), rounds=20),
        "probe": dict(n_values=(20,), rounds=8),
        "smoke": dict(n_values=(20, 40), rounds=2),
    }

    def _pass(self, log, how, tmp):
        p = self.params
        collected: List[Pair] = []
        executor = SerialExecutor(
            cache=how.point_cache(),
            progress=lambda ev: collected.append((ev.spec, ev.result)),
        )
        with log.compute, using_executor(executor), how.span("experiments.fig7"):
            table = get_runner("fig7")(
                n_values=p["n_values"], rounds=p["rounds"], seeds=(self.seed,)
            )
        for spec, result in collected:
            log.point(spec, result)
        # dctcp+, dctcp and tcp at every N, one table row per N.
        expected = 3 * len(p["n_values"])
        log.check(
            "fig7 table",
            len(collected) == expected and len(table.rows) == len(p["n_values"]),
            f"{len(collected)} points / {len(table.rows)} rows, expected {expected}",
        )
        return collected


class IncastMassive(Workload):
    """The paper's title regime: thousands of flows at the cwnd floor."""

    name = "incast-massive"
    nominal_s = 1.7
    SIZES = {
        "full": dict(points=(("dctcp+", 1024, 10), ("dctcp", 1024, 10),
                             ("dctcp+", 2048, 4), ("dctcp+", 4096, 2))),
        "probe": dict(points=(("dctcp+", 4096, 2),)),
        "smoke": dict(points=(("dctcp+", 256, 2), ("dctcp", 256, 2), ("dctcp+", 512, 1))),
    }
    SIZES["trace"] = SIZES["full"]

    def prepare(self, workdir):
        super().prepare(workdir)
        self.specs = [_create(p, n, r, self.seed) for p, n, r in self.params["points"]]

    def _pass(self, log, how, tmp):
        pairs: List[Pair] = []
        for spec in self.specs:
            with log.compute:
                result = how.compute(spec)
            log.point(spec, result)
            pairs.append((spec, result))
        return pairs


class SweepCi512(Workload):
    """The ci-512 grid cold into a fresh store, then the store's lifecycle."""

    name = "sweep-ci512"
    nominal_s = 9.5
    has_store_phase = True
    SIZES = {
        "full": dict(shard=None, reps=20),
        "trace": dict(shard=(0, 4), reps=5),
        "probe": dict(shard=(0, 16), reps=2),
        "smoke": dict(shard=(0, 16), reps=2),
    }

    def prepare(self, workdir):
        super().prepare(workdir)
        preset = json.loads(json.dumps(PRESETS["ci-512"]))
        # --seed 1 reproduces CI's preset; other seeds shift its seed axis.
        preset["axes"]["seed"] = [s + self.seed - 1 for s in preset["axes"]["seed"]]
        self.sweep = SweepSpec.from_dict(preset)

    def _pass(self, log, how, tmp):
        shard = self.params["shard"]
        collected: List[Pair] = []
        with log.compute:
            raw = SweepStore(tmp / "cold.sqlite")
        with raw:
            store = how.store(raw)
            executor = SerialExecutor(progress=lambda ev: collected.append((ev.spec, ev.result)))
            with log.compute, how.span("sweep.cold"):
                report = run_sweep(self.sweep, store, executor, shard=shard)
            for spec, result in collected:
                log.point(spec, result)
            n = len(collected)
            log.check(
                "sweep cold",
                n > 0 and report.computed == n == report.shard_points
                and report.write_errors == 0 and len(raw) == n,
                f"computed {report.computed} of {report.shard_points}, stored {len(raw)}, "
                f"{report.write_errors} write errors",
            )
            for rep in range(self.params["reps"]):
                with log.store, how.span("sweep.resume"):
                    resumed = run_sweep(self.sweep, store, SerialExecutor(), shard=shard)
                log.check(
                    "sweep resume",
                    resumed.computed == 0 and resumed.already_stored == n,
                    f"recomputed {resumed.computed}, found {resumed.already_stored} of {n}",
                )
                serve_all(log, raw, store, collected, compare=rep == 0)
            with log.store:
                merged = SweepStore(tmp / "merged.sqlite")
            with merged:
                with log.store, how.span("sweep.merge"):
                    added, present = merged.merge_from(raw)
                log.check("sweep merge", (added, present) == (n, 0),
                          f"merged {added} new / {present} present of {n}")
                with log.store, how.span("sweep.digest"):
                    same_digest = merged.content_digest() == raw.content_digest()
                log.check("sweep digest", same_digest, "merged store's content_digest differs")
                with log.store, how.span("sweep.export"):
                    raw.export_canonical(tmp / "cold.export")
                    merged.export_canonical(tmp / "merged.export")
                log.check(
                    "sweep export",
                    (tmp / "cold.export").read_bytes() == (tmp / "merged.export").read_bytes(),
                    "merged store's canonical export differs",
                )
        return collected


class TopoClosedLoop(Workload):
    """Multi-hop ECMP topologies under closed-loop http and swarm traffic."""

    name = "topo-closedloop"
    nominal_s = 4.6
    #: leg_delays_ns is a list, not the tuple TopologyParams documents:
    #: ScenarioSpec.to_dict() leaves a nested tuple a tuple, which never equals
    #: its stored JSON, so SweepStore.get misses such a spec forever (found by
    #: this suite; see bench/README.md).  The cache key is the same either way.
    TOPOLOGIES = {
        "fat-tree": dict(fat_tree_k=4, hosts_per_edge=2),
        "dumbbell": dict(n_pairs=4, leg_delays_ns=[6_000, 12_000, 24_000, 48_000]),
    }
    SIZES = {
        "full": dict(cells=None, n_flows=16, rounds=8),
        "probe": dict(cells=(("fat-tree", "http", "dctcp"),), n_flows=16, rounds=4),
        "smoke": dict(cells=None, n_flows=4, rounds=2),
    }
    SIZES["trace"] = SIZES["full"]

    def prepare(self, workdir):
        super().prepare(workdir)
        p = self.params
        cells = p["cells"] or [
            (topology, workload, protocol)
            for topology in self.TOPOLOGIES
            for workload in ("http", "swarm")
            for protocol in ("dctcp", "dctcp+")
        ]
        self.specs = [
            _create(protocol, p["n_flows"], p["rounds"], self.seed, topology=topology,
                    workload=workload, topo=self.TOPOLOGIES[topology])
            for topology, workload, protocol in cells
        ]

    def _pass(self, log, how, tmp):
        executor = SerialExecutor(cache=how.point_cache())
        with log.compute:
            results = executor.map(self.specs)
        pairs = list(zip(self.specs, results))
        for spec, result in pairs:
            log.point(spec, result)
        return pairs


class ControlEnvEpisodes(Workload):
    """Autopilot ControlEnv episodes: the RL user's steps/sec."""

    name = "control-env"
    nominal_s = 1.4
    SIZES = {
        "full": dict(n_flows=16, rounds=40),
        "probe": dict(n_flows=16, rounds=15),
        "smoke": dict(n_flows=4, rounds=4),
    }
    SIZES["trace"] = SIZES["full"]

    def prepare(self, workdir):
        super().prepare(workdir)
        p = self.params
        #: the same scenario without control; the autopilot episode must match it.
        self.spec = _create("dctcp+", p["n_flows"], p["rounds"], self.seed)
        self._reference: Optional[PointResult] = None

    def episode(self, how, timed=None) -> dict:
        p = self.params
        env = ControlEnv(
            protocol="dctcp+", n_flows=p["n_flows"], rounds=p["rounds"], seed=self.seed,
            controlled=tuple(range(p["n_flows"])),
        )
        try:
            with timed or nullcontext():
                steps = how.episode(env)
                summary = env.summary()
                events = env.sim.events_processed
            # getattr: a later removal of the native core must not break this.
            self.native_seen = getattr(env.sim, "native", None)
        finally:
            env.close()
        return dict(summary=summary, steps=steps, events=events)

    def _pass(self, log, how, tmp):
        episode = self.episode(how, log.compute)
        log.points += 1
        log.steps += episode["steps"]
        log.events += episode["events"]
        log.results.append(("episode", None, episode))
        if self._reference is None:
            self._reference = how.compute(self.spec)
        ref = self._reference
        summary = episode["summary"]
        why = ""
        if summary["rounds"] < self.params["rounds"]:
            why = f"completed {summary['rounds']} rounds of {self.params['rounds']}"
        elif not summary["goodput_mbps"] > 0 or episode["events"] <= 0:
            why = "no goodput or no events"
        elif (summary["goodput_mbps"], summary["fct_ms"], summary["timeouts"]) != (
            ref.goodput_mbps, ref.fct_ms, float(ref.timeouts)
        ):
            why = "autopilot summary differs from run_scenario on the same spec"
        log.check("episode", not why, why)
        return [(self.spec, ref)]

    def rerun_first(self, log):
        again = self.episode(PLAIN)
        log.check("rerun episode", again == log.results[0][2],
                  "second episode differs from the first")


class IncastInstrumented(Workload):
    """Each point plain, traced, validated and profiled: the loops ROADMAP
    item 2 wants to collapse and the hook/tracer fan-out."""

    name = "incast-instrumented"
    nominal_s = 6.9
    SIZES = {
        "full": dict(n_values=(64, 256, 1024), rounds=10),
        "trace": dict(n_values=(64, 256), rounds=10),
        "probe": dict(n_values=(64,), rounds=4),
        "smoke": dict(n_values=(16,), rounds=2),
    }

    def prepare(self, workdir):
        super().prepare(workdir)
        p = self.params
        self.specs = [
            (_create("dctcp+", n, p["rounds"], self.seed),
             _create("dctcp+", n, p["rounds"], self.seed, trace=True))
            for n in p["n_values"]
        ]

    def _pass(self, log, how, tmp):
        pairs: List[Pair] = []
        for spec, spec_traced in self.specs:
            variants = (
                ("plain", spec, {}),
                ("trace", spec_traced, {}),
                ("validate", spec, {"validate": True}),
                ("profile", spec, {"profiler": EngineProfiler()}),
            )
            results = {}
            for variant, variant_spec, kwargs in variants:
                with log.compute:
                    result = how.compute(variant_spec, **kwargs)
                log.point(variant_spec, result, label=f"{spec.label()} {variant}")
                results[variant] = result
            plain = results["plain"]
            for variant in ("trace", "validate", "profile"):
                bare = dataclasses.replace(results[variant], trace_events=[])
                log.check(f"{spec.label()} {variant}==plain", bare == plain,
                          "instrumented result differs from the plain run")
            pairs += [(spec, plain), (spec_traced, results["trace"])]
        return pairs


WORKLOADS = (
    Fig7Paper,
    IncastMassive,
    SweepCi512,
    TopoClosedLoop,
    ControlEnvEpisodes,
    IncastInstrumented,
)
BY_NAME = {cls.name: cls for cls in WORKLOADS}

#: One line each, as BENCHMARK.json records them.
WHY = {
    "fig7-paper": "fig7 figure driver, 21 points with RTO-collapse and paced DCTCP+ rows; "
    ">=95% of wall inside sim.run (tcp, then net.switch, net.port)",
    "incast-massive": "DCTCP/DCTCP+ at N=1024-4096, the paper's title regime: per-flow "
    "construction, pool growth, GC and result collection are 10-40% of wall, ~0% elsewhere",
    "sweep-ci512": "512 tiny points via run_sweep into a fresh SweepStore (per-Simulator fixed "
    "costs), then resume/read-back/merge/export/digest on the filled store (exec+sweep only)",
    "topo-closedloop": "fat-tree and dumbbell x http and swarm x dctcp/dctcp+: 4-6 hop ECMP "
    "paths make net the largest share; closed-loop timers use regular (non-light) events",
    "control-env": "autopilot ControlEnv episodes, forced pure-Python dispatch with one sim.run "
    "re-entry per step: native-core changes must not move it, pure-loop/control changes do",
    "incast-instrumented": "each point plain, traced, validated and profiled: the only workload "
    "on _run_validated/_run_profiled and the hook/tracer fan-out",
}


def make_workload(name: str, seed: int, size: str) -> Workload:
    try:
        cls = BY_NAME[name]
    except KeyError:
        raise SystemExit(f"unknown workload {name!r}; choose from {list(BY_NAME)}") from None
    return cls(seed, size)


def passes_for(name: str, seconds: float, size: str) -> int:
    """How many passes a unit of ``seconds`` repeats (fixed by the arguments,
    never by how fast the machine happens to be)."""
    if size != "full":
        return 1
    return max(1, round(seconds / BY_NAME[name].nominal_s))
