"""Ambient executor for the experiment drivers.

Figure drivers submit scenario batches through :func:`get_executor` so
that the *caller* — the CLI, the benchmark, a test — decides how points run
(serial, N worker processes, cached) without threading an executor handle
through every driver signature.

Resolution order:

1. an executor installed with :func:`set_executor` / :func:`using_executor`;
2. the environment: ``REPRO_WORKERS`` (int, default 1) and
   ``REPRO_CACHE_DIR`` (path, default unset);
3. a plain :class:`SerialExecutor` — the deterministic default.

A cache directory holds one :class:`~repro.sweep.SweepStore`,
``results.sqlite``; whoever calls :func:`make_executor` with one calls
:meth:`Executor.close` when done, so no ``-wal``/``-shm`` files outlive
the command.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator, Optional, Union

from .executors import Executor, ParallelExecutor, ProgressCallback, SerialExecutor

_current: Optional[Executor] = None

#: Environment knobs honoured when no executor was installed explicitly.
WORKERS_ENV = "REPRO_WORKERS"
CACHE_DIR_ENV = "REPRO_CACHE_DIR"


def make_executor(
    workers: Optional[int] = None,
    cache_dir: Optional[Union[str, os.PathLike]] = None,
    progress: Optional[ProgressCallback] = None,
) -> Executor:
    """Build an executor; ``None`` arguments fall back to the environment."""
    if workers is None:
        raw = os.environ.get(WORKERS_ENV, "").strip()
        workers = int(raw) if raw else 1
    if cache_dir is None:
        cache_dir = os.environ.get(CACHE_DIR_ENV) or None
    cache = None
    if cache_dir:
        # Imported here because repro.sweep.store imports this package.
        from ..sweep.store import SweepStore

        cache = SweepStore(Path(cache_dir) / "results.sqlite")
    if workers > 1:
        return ParallelExecutor(workers, cache=cache, progress=progress)
    return SerialExecutor(cache=cache, progress=progress)


def get_executor() -> Executor:
    """The executor experiment drivers should submit batches to."""
    if _current is not None:
        return _current
    return make_executor()


def set_executor(executor: Optional[Executor]) -> None:
    """Install (or with ``None``, clear) the ambient executor."""
    global _current
    _current = executor


@contextmanager
def using_executor(executor: Executor) -> Iterator[Executor]:
    """Scoped :func:`set_executor`; restores the previous one on exit."""
    global _current
    previous = _current
    _current = executor
    try:
        yield executor
    finally:
        _current = previous
