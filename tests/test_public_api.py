"""The consolidated public API surface of the ``repro`` package.

Pins two things: every name in ``repro.__all__`` actually imports, and
the surface itself doesn't shrink or drift accidentally (additions are
fine; removals must be deliberate and update the snapshot here).
"""

from __future__ import annotations

import repro

#: The v1.7 public surface.  Extend when the API grows; removing a name
#: is a breaking change and should be a conscious decision.
EXPECTED_SURFACE = {
    # simulator + topology
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
    # transports
    "TcpConfig",
    "TcpSender",
    "TcpReceiver",
    "DctcpSender",
    "TimeoutKind",
    # congestion-control strategy registry + event protocol + control plane
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
    # workloads
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
    # flow stats + telemetry
    "FlowStats",
    "QueueSampler",
    "Tracer",
    "TraceRecord",
    "Collector",
    "EngineProfiler",
    # exec
    "ScenarioSpec",
    "PointResult",
    "run_scenario",
    "run_incast_batch",
    "SerialExecutor",
    "ParallelExecutor",
    # sweep service
    "SweepSpec",
    "SweepStore",
    "SweepProgress",
    "run_sweep",
    # meta
    "__version__",
}


def test_all_names_import():
    for name in repro.__all__:
        assert getattr(repro, name, None) is not None, f"repro.{name} missing"


def test_surface_snapshot():
    assert set(repro.__all__) == EXPECTED_SURFACE


def test_no_duplicate_all_entries():
    assert len(repro.__all__) == len(set(repro.__all__))


def test_cc_registry_exported():
    from repro import CongestionControl, cc_labels, cc_names, get_cc

    assert "dctcp+" in cc_names()
    assert isinstance(get_cc("dctcp+"), CongestionControl)
    assert cc_labels()["dctcp+"] == "DCTCP+"


def test_telemetry_collectors_share_the_protocol():
    from repro import Collector, EngineProfiler, QueueSampler, Tracer

    for cls in (QueueSampler, Tracer, EngineProfiler):
        assert issubclass(cls, Collector)


def test_version_matches_package_metadata():
    import os
    import re

    here = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(here, "pyproject.toml"), encoding="utf-8") as fh:
        match = re.search(r'^version = "([^"]+)"$', fh.read(), re.M)
    assert match and match.group(1) == repro.__version__
