"""Traffic generators: incast rounds, long flows, benchmark mix, protocols."""

from .background import BackgroundConfig, BackgroundTraffic, ThroughputSample
from .benchmark import BenchmarkConfig, BenchmarkWorkload, FlowRecord
from .distributions import (
    BACKGROUND_FLOW_SIZE_CDF,
    BACKGROUND_INTERARRIVAL_CDF,
    SHORT_MESSAGE_SIZE_CDF,
    EmpiricalCDF,
    exponential_interarrival_ns,
    sample_flow_size_bytes,
)
from .base import ClosedLoopWorkload, RoundResult
from .http import RESPONSE_SIZE_CDFS, HttpConfig, HttpWorkload
from .ids import next_flow_id
from .incast import IncastConfig, IncastWorkload
from .protocols import PROTOCOLS, ProtocolSpec, spec_for
from .swarm import SwarmConfig, SwarmWorkload

__all__ = [
    "IncastConfig",
    "IncastWorkload",
    "RoundResult",
    "ClosedLoopWorkload",
    "HttpConfig",
    "HttpWorkload",
    "RESPONSE_SIZE_CDFS",
    "SwarmConfig",
    "SwarmWorkload",
    "BackgroundConfig",
    "BackgroundTraffic",
    "ThroughputSample",
    "BenchmarkConfig",
    "BenchmarkWorkload",
    "FlowRecord",
    "EmpiricalCDF",
    "BACKGROUND_FLOW_SIZE_CDF",
    "BACKGROUND_INTERARRIVAL_CDF",
    "SHORT_MESSAGE_SIZE_CDF",
    "exponential_interarrival_ns",
    "sample_flow_size_bytes",
    "next_flow_id",
    "PROTOCOLS",
    "ProtocolSpec",
    "spec_for",
]
