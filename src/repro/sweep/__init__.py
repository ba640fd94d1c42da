"""repro.sweep — the million-point sweep service.

The substrate for parameter studies far beyond what per-figure drivers
carry (ROADMAP item 3: the DCTCP+ phase-boundary study over
N × RTOmin × K × buffer):

- :class:`SweepSpec` — declarative grid sweeps over the scenario axes,
  expanded to deterministic :class:`~repro.exec.ScenarioSpec` lists;
  :func:`shard_points` partitions them disjointly and exhaustively by
  content-key hash (``--shard i/n``).
- :class:`SweepStore` — content-addressed columnar result store (SQLite,
  WAL), also the executors' result cache, with conflict-safe
  :meth:`~SweepStore.merge_from`, bulk columnar reads
  (:meth:`~SweepStore.to_rows` / :meth:`~SweepStore.to_csv`) and
  byte-deterministic canonical snapshots.
- :func:`run_sweep` — resumable, incremental orchestration: only missing
  keys run, in bounded chunks, with progress/ETA flowing through the
  telemetry :class:`~repro.telemetry.Collector` protocol
  (:class:`SweepProgress`).
- ``python -m repro sweep {run,status,merge,export}`` — the CLI.
"""

from .orchestrator import SweepProgress, SweepReport, plan_sweep, run_sweep, sweep_status
from .spec import (
    AXES,
    PRESETS,
    SweepSpec,
    SweepSpecError,
    parse_shard,
    preset,
    shard_index,
    shard_points,
)
from .store import COLUMNS, StoreError, SweepStore

__all__ = [
    "SweepSpec",
    "SweepSpecError",
    "AXES",
    "PRESETS",
    "preset",
    "shard_index",
    "shard_points",
    "parse_shard",
    "SweepStore",
    "StoreError",
    "COLUMNS",
    "SweepProgress",
    "SweepReport",
    "run_sweep",
    "plan_sweep",
    "sweep_status",
]
