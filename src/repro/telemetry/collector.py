"""The Collector protocol and the two periodic probes built on it.

A collector is anything that accumulates measurements over a run and can
dump them as tabular rows: ``start()`` begins collection, ``stop()`` ends
it, ``schema()`` names the columns and ``rows()`` yields the data.
:class:`FlowTracer`, :class:`QueueSampler`, the
:class:`~repro.telemetry.tracer.Tracer` and the
:class:`~repro.telemetry.profiler.EngineProfiler` all implement it, so the
exporters in :mod:`repro.telemetry.export` (and anything else that walks
collectors) need exactly one code path.

:class:`PeriodicCollector` additionally owns the repeating-simulator-event
machinery both probes share — including the subtle clear-handle-on-entry
rule: the event that invoked ``_tick`` has fired and its handle is dead,
so the handle is dropped *before* any early return; otherwise a later
``stop()`` could cancel whatever unrelated event the engine's freelist
recycled the carcass into.

numpy is imported inside the array views only, so importing the package
does not load it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Sequence, Tuple

from ..sim.units import US

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids import cycles
    import numpy as np

    from ..net.port import OutputPort
    from ..sim.engine import Simulator
    from ..tcp.sender import TcpSender

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


class PeriodicCollector(Collector):
    """A collector driven by a repeating simulator event.

    Subclasses implement :meth:`_sample` (record one observation at
    ``sim.now``) and may override :meth:`_exhausted` to stop early (e.g. a
    sample-count bound).  The first sample lands at the current simulation
    time, then every ``interval_ns`` after it.
    """

    def __init__(self, sim: "Simulator", interval_ns: int):
        if interval_ns <= 0:
            raise ValueError(f"sample interval must be positive, got {interval_ns}")
        self.sim = sim
        self.interval_ns = interval_ns
        self._event = None
        self.running = False

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
        self._sample()
        if self._exhausted():
            self.running = False
            return
        self._event = self.sim.schedule(self.interval_ns, self._tick)

    def _sample(self) -> None:
        raise NotImplementedError

    def _exhausted(self) -> bool:
        """Override to stop sampling after a bound (checked post-sample)."""
        return False


class QueueSampler(PeriodicCollector):
    """Samples one port's queue occupancy at a fixed interval.

    The paper "collect[s] the instant queue length every 100us on Switch 1"
    (Fig. 9's CDFs, Fig. 14's time series); this re-creates that probe.
    """

    def __init__(
        self,
        sim: "Simulator",
        port: "OutputPort",
        interval_ns: int = DEFAULT_SAMPLE_INTERVAL_NS,
    ):
        super().__init__(sim, interval_ns)
        self.port = port
        self.times_ns: List[int] = []
        self.occupancy_bytes: List[int] = []

    def _sample(self) -> None:
        self.times_ns.append(self.sim.now)
        self.occupancy_bytes.append(self.port.backlog_bytes)

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


#: fields :class:`FlowTracer` captures at every sample tick
SAMPLED_FIELDS = ("cwnd_mss", "ssthresh_mss", "flight_mss", "slow_time_us", "state")

_STATE_CODES = {"DCTCP_NORMAL": 0, "DCTCP_Time_Inc": 1, "DCTCP_Time_Des": 2}


class FlowTracer(PeriodicCollector):
    """Samples one sender's stack variables on a fixed clock.

    The ``tcp_probe`` analogue: cwnd, ssthresh, flight, slow_time and the
    DCTCP+ state as time series ("show me this flow's cwnd over the
    round").  Discrete events (RTOs with their FLoss/LAck kind,
    retransmissions) are the :class:`~repro.telemetry.tracer.Tracer`'s
    records, not this probe's.

    Usage::

        tracer = FlowTracer(sim, sender, interval_ns=100_000)
        tracer.start()
        ...
        t, cwnd = tracer.series("cwnd_mss")
        tracer.stop()
    """

    def __init__(
        self,
        sim: "Simulator",
        sender: "TcpSender",
        interval_ns: int = DEFAULT_SAMPLE_INTERVAL_NS,
        max_samples: int = 1_000_000,
    ):
        if max_samples <= 0:
            raise ValueError("max_samples must be positive")
        super().__init__(sim, interval_ns)
        self.sender = sender
        self.max_samples = max_samples
        self.times_ns: List[int] = []
        self.samples: Dict[str, List[float]] = {f: [] for f in SAMPLED_FIELDS}

    # -- sampling ----------------------------------------------------------
    def _sample(self) -> None:
        sender = self.sender
        mss = sender.config.mss
        self.times_ns.append(self.sim.now)
        self.samples["cwnd_mss"].append(sender.cwnd / mss)
        self.samples["ssthresh_mss"].append(sender.ssthresh / mss)
        self.samples["flight_mss"].append(sender.bytes_in_flight / mss)
        machine = getattr(sender, "machine", None)
        if machine is not None:
            self.samples["slow_time_us"].append(machine.slow_time_ns / 1000.0)
            self.samples["state"].append(_STATE_CODES.get(machine.state.value, -1))
        else:
            self.samples["slow_time_us"].append(0.0)
            self.samples["state"].append(0)

    def _exhausted(self) -> bool:
        return len(self.times_ns) >= self.max_samples

    # -- views ---------------------------------------------------------------
    def series(self, field_name: str) -> Tuple["np.ndarray", "np.ndarray"]:
        """(time_ns, values) arrays for one sampled field."""
        if field_name not in self.samples:
            raise KeyError(f"unknown field {field_name!r}; choose from {SAMPLED_FIELDS}")
        import numpy as np

        return (
            np.asarray(self.times_ns, dtype=np.int64),
            np.asarray(self.samples[field_name], dtype=np.float64),
        )

    # -- Collector surface ----------------------------------------------------
    def schema(self) -> Tuple[str, ...]:
        return ("time_us",) + SAMPLED_FIELDS

    def rows(self) -> List[Sequence]:
        return [
            [t / 1000.0] + [self.samples[f][i] for f in SAMPLED_FIELDS]
            for i, t in enumerate(self.times_ns)
        ]
