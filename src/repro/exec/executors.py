"""Execution layer: run batches of :class:`ScenarioSpec` serially or in
parallel worker processes.

Both executors share the same contract:

- :meth:`Executor.map` preserves input order — ``results[i]`` corresponds
  to ``specs[i]`` no matter which worker finished first;
- results are **identical** between :class:`SerialExecutor` and
  :class:`ParallelExecutor` because every simulation is fully described by
  its spec and seeded via :class:`~repro.sim.rng.RngRegistry` (see
  ``tests/test_exec.py::TestSerialParallelEquivalence``);
- an optional :class:`~repro.sweep.SweepStore` in the cache slot
  short-circuits points that were already computed by any earlier run of
  the same code version;
- an optional progress callback receives a :class:`ProgressEvent` as each
  point completes (the CLI renders these).
"""

from __future__ import annotations

import concurrent.futures
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, List, Optional, Sequence

from .scenario import PointResult, ScenarioSpec, run_scenario

if TYPE_CHECKING:  # repro.sweep.store imports this package
    from ..sweep.store import SweepStore

ProgressCallback = Callable[["ProgressEvent"], None]


@dataclass(frozen=True)
class ProgressEvent:
    """One completed point inside a batch."""

    done: int
    total: int
    spec: ScenarioSpec
    result: PointResult
    cached: bool
    #: Cumulative failed cache writes on the executor's cache so far (0
    #: with no cache attached).  Progress renderers print it when nonzero
    #: so a full disk is visible instead of silently degrading to cold
    #: reruns.
    cache_write_errors: int = 0


class Executor:
    """Base class: cache bookkeeping + progress fan-out.

    Subclasses implement :meth:`_run_pending` to compute the cache-missed
    indices and must call :meth:`_finish` for each one.
    """

    def __init__(
        self,
        cache: Optional["SweepStore"] = None,
        progress: Optional[ProgressCallback] = None,
    ):
        self.cache = cache
        self.progress = progress

    def close(self) -> None:
        """Close the attached store, if any (folds its WAL into the file)."""
        if self.cache is not None:
            self.cache.close()

    def map(self, specs: Sequence[ScenarioSpec]) -> List[PointResult]:
        """Run every spec (or fetch it from cache); results in input order."""
        specs = list(specs)
        total = len(specs)
        results: List[Optional[PointResult]] = [None] * total
        pending: List[int] = []
        self._done = 0
        for i, spec in enumerate(specs):
            hit = self.cache.get(spec) if self.cache is not None else None
            if hit is not None:
                results[i] = hit
                self._emit(spec, hit, cached=True, total=total)
            else:
                pending.append(i)
        if pending:
            self._run_pending(specs, pending, results, total)
        return results  # type: ignore[return-value]  # every slot is filled

    # -- subclass protocol -----------------------------------------------------
    def _run_pending(
        self,
        specs: List[ScenarioSpec],
        pending: List[int],
        results: List[Optional[PointResult]],
        total: int,
    ) -> None:
        raise NotImplementedError

    def _finish(
        self,
        index: int,
        spec: ScenarioSpec,
        result: PointResult,
        results: List[Optional[PointResult]],
        total: int,
    ) -> None:
        results[index] = result
        if self.cache is not None:
            self.cache.put(spec, result)
        self._emit(spec, result, cached=False, total=total)

    def _emit(self, spec: ScenarioSpec, result: PointResult, cached: bool, total: int) -> None:
        self._done += 1
        if self.progress is not None:
            self.progress(
                ProgressEvent(
                    done=self._done,
                    total=total,
                    spec=spec,
                    result=result,
                    cached=cached,
                    cache_write_errors=getattr(self.cache, "write_errors", 0),
                )
            )


class SerialExecutor(Executor):
    """Runs every point in-process, one after another (the default —
    deterministic, debuggable, CI-friendly)."""

    def _run_pending(self, specs, pending, results, total):
        for i in pending:
            self._finish(i, specs[i], run_scenario(specs[i]), results, total)


class ParallelExecutor(Executor):
    """Fans points out to a :class:`concurrent.futures.ProcessPoolExecutor`.

    Workers receive picklable specs, build their own simulator, and return
    picklable results; aggregation happens back in the parent.  With
    ``workers=1`` this degrades to serial execution without spawning a pool.
    """

    def __init__(
        self,
        workers: int,
        cache: Optional["SweepStore"] = None,
        progress: Optional[ProgressCallback] = None,
    ):
        super().__init__(cache=cache, progress=progress)
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.workers = workers

    def _run_pending(self, specs, pending, results, total):
        if self.workers == 1 or len(pending) == 1:
            for i in pending:
                self._finish(i, specs[i], run_scenario(specs[i]), results, total)
            return
        max_workers = min(self.workers, len(pending))
        with concurrent.futures.ProcessPoolExecutor(max_workers=max_workers) as pool:
            futures = {pool.submit(run_scenario, specs[i]): i for i in pending}
            for future in concurrent.futures.as_completed(futures):
                i = futures[future]
                self._finish(i, specs[i], future.result(), results, total)
