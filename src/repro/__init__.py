"""repro — a packet-level reproduction of DCTCP+ ("Slowing Little Quickens
More: Improving DCTCP for Massive Concurrent Flows", ICPP 2015).

The package layers:

- :mod:`repro.sim`   — discrete-event engine (integer-ns clock, RNG streams)
- :mod:`repro.net`   — the packet pool, links, ECN switches, hosts, the 2-tier tree
- :mod:`repro.tcp`   — TCP New Reno and DCTCP senders, timeout taxonomy
- :mod:`repro.core`  — DCTCP+ (slow_time state machine + pacer, wired onto
  a transport by one ``SlowTimeMixin``) — the paper
- :mod:`repro.workloads` — incast / HTTP / swarm rounds on one closed-loop
  lifecycle, long flows, benchmark traffic
- :mod:`repro.exec`  — declarative scenario specs, serial/parallel executors
- :mod:`repro.sweep` — million-point sweep service: declarative grid
  sweeps, the content-addressed SQLite result store (also the executors'
  ``--cache-dir`` cache), resumable sharded orchestration
  (``python -m repro sweep``)
- :mod:`repro.telemetry` — typed event tracing, the queue probe,
  summaries and tables, exporters, engine profiling
  (``python -m repro trace``)
- :mod:`repro.control` — gym-style :class:`ControlEnv` (step/observe/act
  over a live scenario) and external scripted CC policies riding the
  typed :class:`CCEvent` protocol (``cc="external:<policy>"``)
- :mod:`repro.experiments` — one driver per paper table/figure

Protocol configuration is :class:`TcpConfig` (transport knobs, including
the cwnd floor), :class:`DctcpPlusConfig` (the slow_time law) and the
:class:`ProtocolSpec` that :func:`spec_for` builds from a strategy name.

Quickstart::

    from repro import Simulator, build_two_tier, IncastConfig, IncastWorkload, spec_for

    sim = Simulator(seed=1)
    tree = build_two_tier(sim)
    workload = IncastWorkload(sim, tree, spec_for("dctcp+"), IncastConfig(n_flows=80))
    workload.run_to_completion()
    print(workload.mean_goodput_bps / 1e6, "Mbps")

Tracing a declarative scenario::

    from repro import ScenarioSpec, run_scenario

    spec = ScenarioSpec.create("dctcp", n_flows=128, rounds=2, seed=1, trace=True)
    result = run_scenario(spec)
    print(len(result.trace_events), "trace records")
"""

from .exec import (
    ParallelExecutor,
    PointResult,
    ScenarioSpec,
    SerialExecutor,
    run_scenario,
)
from .core import (
    DctcpPlusConfig,
    DctcpPlusSender,
    DctcpPlusState,
    SlowTimePacer,
    SlowTimeStateMachine,
)
from .net import (
    DumbbellNetwork,
    FatTreeNetwork,
    Host,
    Link,
    Switch,
    TopologyParams,
    TwoTierTree,
    WiringError,
    build_dumbbell,
    build_fat_tree,
    build_star,
    build_two_tier,
    check_wiring,
    topology_builder,
    topology_names,
)
from .control import ControlEnv, ExternalPolicy
from .sim import Simulator
from .sweep import SweepProgress, SweepSpec, SweepStore, run_sweep
from .tcp import DctcpSender, TcpConfig, TcpReceiver, TcpSender, TimeoutKind
from .tcp.cc import CongestionControl, cc_labels, cc_names, get_cc, register
from .tcp.events import CCEvent
from .tcp.flowstats import FlowStats
from .telemetry import (
    Collector,
    EngineProfiler,
    QueueSampler,
    Tracer,
    TraceRecord,
)
from .workloads import (
    BackgroundConfig,
    BackgroundTraffic,
    BenchmarkConfig,
    BenchmarkWorkload,
    ClosedLoopWorkload,
    HttpConfig,
    HttpWorkload,
    IncastConfig,
    IncastWorkload,
    ProtocolSpec,
    SwarmConfig,
    SwarmWorkload,
    spec_for,
)
from .experiments.common import run_incast_batch

__version__ = "1.7.0"

__all__ = [
    "Simulator",
    "Host",
    "Link",
    "Switch",
    "TopologyParams",
    "TwoTierTree",
    "DumbbellNetwork",
    "FatTreeNetwork",
    "build_two_tier",
    "build_dumbbell",
    "build_star",
    "build_fat_tree",
    "check_wiring",
    "WiringError",
    "topology_builder",
    "topology_names",
    "TcpConfig",
    "TcpSender",
    "TcpReceiver",
    "DctcpSender",
    "TimeoutKind",
    "CongestionControl",
    "register",
    "get_cc",
    "cc_names",
    "cc_labels",
    "CCEvent",
    "ControlEnv",
    "ExternalPolicy",
    "DctcpPlusConfig",
    "DctcpPlusSender",
    "DctcpPlusState",
    "SlowTimePacer",
    "SlowTimeStateMachine",
    "IncastConfig",
    "IncastWorkload",
    "ClosedLoopWorkload",
    "HttpConfig",
    "HttpWorkload",
    "SwarmConfig",
    "SwarmWorkload",
    "BackgroundConfig",
    "BackgroundTraffic",
    "BenchmarkConfig",
    "BenchmarkWorkload",
    "ProtocolSpec",
    "spec_for",
    "FlowStats",
    "QueueSampler",
    "ScenarioSpec",
    "PointResult",
    "run_scenario",
    "run_incast_batch",
    "SerialExecutor",
    "ParallelExecutor",
    "SweepSpec",
    "SweepStore",
    "SweepProgress",
    "run_sweep",
    "Tracer",
    "TraceRecord",
    "Collector",
    "EngineProfiler",
    "__version__",
]
