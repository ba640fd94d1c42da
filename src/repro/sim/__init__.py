"""Discrete-event simulation engine (clock, events, RNG streams)."""

from .engine import SimulationError, Simulator
from .events import Event, EventQueue
from .rng import RngRegistry, uniform_time
from . import units

__all__ = [
    "Simulator",
    "SimulationError",
    "Event",
    "EventQueue",
    "RngRegistry",
    "uniform_time",
    "units",
]
