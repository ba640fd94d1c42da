"""The consolidated public API surface of the ``repro`` package.

Pins two things: every name in ``repro.__all__`` actually imports, and
the surface itself doesn't shrink or drift accidentally (additions are
fine; removals must be deliberate and update the snapshot here).
"""

from __future__ import annotations

import pytest

import repro

#: The v1.4 public surface.  Extend when the API grows; removing a name
#: is a breaking change and should be a conscious decision.
EXPECTED_SURFACE = {
    # simulator + topology
    "Simulator",
    "Host",
    "Link",
    "Packet",
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
    # metrics + telemetry
    "FlowStats",
    "FlowTracer",
    "CwndTracker",
    "QueueSampler",
    "Tracer",
    "TraceRecord",
    "Collector",
    "PeriodicCollector",
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
    # namespaces / meta
    "config",
    "__version__",
}


def test_all_names_import():
    for name in repro.__all__:
        assert getattr(repro, name, None) is not None, f"repro.{name} missing"


def test_surface_snapshot():
    assert set(repro.__all__) == EXPECTED_SURFACE


def test_no_duplicate_all_entries():
    assert len(repro.__all__) == len(set(repro.__all__))


def test_config_namespace_aliases_the_originals():
    import repro.config
    import repro.core.config
    import repro.tcp.config
    import repro.workloads.protocols

    assert repro.config.TcpConfig is repro.tcp.config.TcpConfig
    assert repro.config.DctcpPlusConfig is repro.core.config.DctcpPlusConfig
    assert repro.config.ProtocolSpec is repro.workloads.protocols.ProtocolSpec
    assert repro.config.spec_for is repro.workloads.protocols.spec_for


def test_effective_tcp_config_applies_plus_floor():
    from repro.config import DctcpPlusConfig, TcpConfig, effective_tcp_config

    resolved = effective_tcp_config(TcpConfig(), DctcpPlusConfig(min_cwnd_mss=1.0))
    assert resolved.min_cwnd_mss == 1.0
    assert effective_tcp_config().min_cwnd_mss == TcpConfig().min_cwnd_mss
    assert effective_tcp_config(ecn_enabled=True).ecn_enabled is True


def test_effective_tcp_config_resolves_cc_dimension():
    from repro.config import DctcpPlusConfig, TcpConfig, effective_tcp_config

    plus = DctcpPlusConfig(min_cwnd_mss=1.0)
    # The plus floor applies only to strategies carrying the slow_time law.
    assert effective_tcp_config(plus=plus, cc="dctcp+").min_cwnd_mss == 1.0
    assert effective_tcp_config(plus=plus, cc="dctcp").min_cwnd_mss == TcpConfig().min_cwnd_mss
    # ECN stance comes from the registry metadata...
    assert effective_tcp_config(cc="tcp").ecn_enabled is False
    assert effective_tcp_config(cc="pulser").ecn_enabled is True
    # ...unless explicitly overridden.
    assert effective_tcp_config(cc="tcp", ecn_enabled=True).ecn_enabled is True
    with pytest.raises(ValueError):
        effective_tcp_config(cc="unknown-cc")


def test_cc_registry_exported():
    from repro import CongestionControl, cc_labels, cc_names, get_cc

    assert "dctcp+" in cc_names()
    assert isinstance(get_cc("dctcp+"), CongestionControl)
    assert cc_labels()["dctcp+"] == "DCTCP+"


def test_telemetry_collectors_share_the_protocol():
    from repro import Collector, CwndTracker, FlowTracer, QueueSampler, Tracer
    from repro.telemetry import EngineProfiler

    for cls in (FlowTracer, QueueSampler, CwndTracker, Tracer, EngineProfiler):
        assert issubclass(cls, Collector)


def test_version_matches_package_metadata():
    import os
    import re

    here = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(here, "pyproject.toml"), encoding="utf-8") as fh:
        match = re.search(r'^version = "([^"]+)"$', fh.read(), re.M)
    assert match and match.group(1) == repro.__version__
