"""The Collector protocol and the periodic queue probe built on it.

A collector is anything that accumulates measurements over a run and can
dump them as tabular rows: ``start()`` begins collection, ``stop()`` ends
it, ``schema()`` names the columns and ``rows()`` yields the data.
:class:`QueueSampler`, the :class:`~repro.telemetry.tracer.Tracer` and the
:class:`~repro.telemetry.profiler.EngineProfiler` all implement it, so the
exporters in :mod:`repro.telemetry.export` (and anything else that walks
collectors) need exactly one code path.

:class:`QueueSampler` owns a repeating simulator event, with one subtle
rule: the event that invoked ``_tick`` has fired and its handle is dead,
so the handle is dropped *before* any early return; otherwise a later
``stop()`` could cancel whatever unrelated event the engine's freelist
recycled the carcass into.

numpy is imported inside the array views only, so importing the package
does not load it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Sequence, Tuple

from ..sim.units import US

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids import cycles
    import numpy as np

    from ..net.port import OutputPort
    from ..sim.engine import Simulator

#: the paper's probe cadence: "the instant queue length every 100us"
DEFAULT_SAMPLE_INTERVAL_NS = 100 * US


class Collector:
    """Base protocol: lifecycle no-ops plus schema-driven CSV rendering."""

    def start(self) -> None:
        """Begin collecting (no-op for pure aggregation collectors)."""

    def stop(self) -> None:
        """Stop collecting (no-op for pure aggregation collectors)."""

    def schema(self) -> Tuple[str, ...]:
        raise NotImplementedError

    def rows(self) -> List[Sequence]:
        raise NotImplementedError

    def to_csv(self) -> str:
        """Render ``schema`` + ``rows`` as CSV text."""
        lines = [",".join(self.schema())]
        for row in self.rows():
            lines.append(",".join(_csv_cell(cell) for cell in row))
        return "\n".join(lines)


def _csv_cell(cell) -> str:
    if isinstance(cell, float):
        return f"{cell:.3f}"
    return str(cell)


class QueueSampler(Collector):
    """Samples one port's queue occupancy at a fixed interval.

    The paper "collect[s] the instant queue length every 100us on Switch 1"
    (Fig. 9's CDFs, Fig. 14's time series); this re-creates that probe.
    The first sample lands at the simulation time of ``start()``, then one
    every ``interval_ns`` after it.
    """

    def __init__(
        self,
        sim: "Simulator",
        port: "OutputPort",
        interval_ns: int = DEFAULT_SAMPLE_INTERVAL_NS,
    ):
        if interval_ns <= 0:
            raise ValueError(f"sample interval must be positive, got {interval_ns}")
        self.sim = sim
        self.port = port
        self.interval_ns = interval_ns
        self._event = None
        self.running = False
        self.times_ns: List[int] = []
        self.occupancy_bytes: List[int] = []

    # -- lifecycle ---------------------------------------------------------------
    def start(self) -> None:
        if self.running:
            return
        self.running = True
        self._event = self.sim.schedule(0, self._tick)

    def stop(self) -> None:
        self.running = False
        self.sim.cancel(self._event)
        self._event = None

    # -- sampling ----------------------------------------------------------------
    def _tick(self) -> None:
        # The event that invoked us has fired: its handle is dead, and the
        # engine will recycle the object.  Clear it *before* any early
        # return so a later stop() can never cancel whatever unrelated
        # event ends up reusing the carcass.
        self._event = None
        if not self.running:
            return
        self.times_ns.append(self.sim.now)
        self.occupancy_bytes.append(self.port.backlog_bytes)
        self._event = self.sim.schedule(self.interval_ns, self._tick)

    # -- views ---------------------------------------------------------------
    @property
    def samples(self) -> "np.ndarray":
        import numpy as np

        return np.asarray(self.occupancy_bytes, dtype=np.float64)

    def time_series_kb(self) -> Tuple["np.ndarray", "np.ndarray"]:
        """(time in ms, queue in KB) — the axes of the paper's Fig. 14."""
        import numpy as np

        t = np.asarray(self.times_ns, dtype=np.float64) / 1e6
        q = self.samples / 1024.0
        return t, q

    # -- Collector surface ----------------------------------------------------
    def schema(self) -> Tuple[str, ...]:
        return ("time_ns", "occupancy_bytes")

    def rows(self) -> List[Sequence]:
        return [[t, occ] for t, occ in zip(self.times_ns, self.occupancy_bytes)]
