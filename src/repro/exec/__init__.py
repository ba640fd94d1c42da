"""Scenario/execution layer: declarative points, parallel fan-out, caching.

- :mod:`repro.exec.scenario`  — :class:`ScenarioSpec` (a frozen, hashable
  description of one simulation point), :class:`PointResult`, and
  :func:`run_scenario` (spec -> result, pure and picklable);
- :mod:`repro.exec.executors` — :class:`SerialExecutor` and the
  process-pool :class:`ParallelExecutor`, with progress callbacks;
- :mod:`repro.exec.context`   — the ambient executor the experiment
  drivers submit batches through (``REPRO_WORKERS`` / ``REPRO_CACHE_DIR``;
  a cache directory holds one :class:`repro.sweep.SweepStore`).
"""

from .context import (
    CACHE_DIR_ENV,
    WORKERS_ENV,
    get_executor,
    make_executor,
    set_executor,
    using_executor,
)
from .executors import (
    Executor,
    ParallelExecutor,
    ProgressEvent,
    SerialExecutor,
)
from .scenario import PointResult, ScenarioSpec, run_scenario

__all__ = [
    "ScenarioSpec",
    "PointResult",
    "run_scenario",
    "Executor",
    "SerialExecutor",
    "ParallelExecutor",
    "ProgressEvent",
    "get_executor",
    "set_executor",
    "using_executor",
    "make_executor",
    "WORKERS_ENV",
    "CACHE_DIR_ENV",
]
