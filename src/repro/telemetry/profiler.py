"""Opt-in engine profiling: dispatch-loop time broken down by event kind.

An :class:`EngineProfiler` handed to the :class:`~repro.sim.engine.Simulator`
makes its dispatch loop time every event, attributing the wall time to
the callback's kind (keyed by ``__qualname__``, e.g.
``OutputPort._finish_tx``, also when the native core runs that hop
itself).  It is the same loop with two clock reads per event — same
ordering, same event counts — so profiled runs are for finding where the
engine spends its time, never for gating results.  It composes with the
invariant checker.  The native core keeps its totals in C and hands them
over when ``run()`` returns or raises; the Python loop
(``REPRO_NATIVE=0``) records as it goes.  Counts and batches are the same
either way.

The loop also reports its same-timestamp *batches* to the profiler: for
every dispatched event, the size of the batch it ran in is credited to
its kind, so ``mean_batch`` shows which event types actually tie (fan-in
arrivals and ACK bursts batch heavily; lone timers don't) and therefore
which benefit from the batched dispatch loop.

``python -m repro trace --profile`` reports through this; the numbers
export via the shared Collector surface (:meth:`schema` / :meth:`rows` /
:meth:`to_csv`).
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from .collector import Collector


class EngineProfiler(Collector):
    """Accumulates per-callback-kind dispatch counts, seconds and batch sizes."""

    __slots__ = ("counts", "times_s", "batch_events", "batches", "events", "wall_s")

    def __init__(self):
        self.counts: Dict[str, int] = {}
        self.times_s: Dict[str, float] = {}
        #: per kind: sum over its events of the size of the batch each ran in
        self.batch_events: Dict[str, int] = {}
        #: number of same-timestamp batches dispatched
        self.batches = 0
        self.events = 0
        self.wall_s = 0.0

    # -- engine feed -------------------------------------------------------------
    def record_run(self, events: int, wall_s: float) -> None:
        """Called by :meth:`Simulator.run` as each call returns or raises."""
        self.events += events
        self.wall_s += wall_s

    def record_batch(self, kinds: List[str]) -> None:
        """Called by the Python loop once per same-timestamp batch with the
        kinds dispatched in it (the native loop keeps the same tallies in C).

        Credits the batch size to every member event's kind, so a kind's
        ``mean_batch`` answers "when this event fires, how many events
        share its timestamp?" — the quantity the batched loop amortizes.
        """
        size = len(kinds)
        if size == 0:
            return
        self.batches += 1
        batch_events = self.batch_events
        for kind in kinds:
            batch_events[kind] = batch_events.get(kind, 0) + size

    @property
    def events_per_sec(self) -> float:
        return self.events / self.wall_s if self.wall_s > 0 else 0.0

    @property
    def mean_batch_size(self) -> float:
        """Events per same-timestamp batch, across the whole run."""
        return self.events / self.batches if self.batches else 0.0

    # -- Collector surface -------------------------------------------------------
    def schema(self) -> Tuple[str, ...]:
        return ("kind", "events", "total_s", "mean_us", "share", "mean_batch")

    def rows(self) -> List[Tuple[str, int, float, float, float, float]]:
        """One row per callback kind, heaviest total time first."""
        total = sum(self.times_s.values()) or 1.0
        batch_events = self.batch_events
        out = []
        for kind, seconds in sorted(self.times_s.items(), key=lambda kv: -kv[1]):
            count = self.counts[kind]
            out.append(
                (
                    kind,
                    count,
                    seconds,
                    seconds / count * 1e6 if count else 0.0,
                    seconds / total,
                    batch_events.get(kind, 0) / count if count else 0.0,
                )
            )
        return out

    def report(self) -> str:
        """Human-readable table (the --profile output)."""
        lines = [
            f"{self.events} events in {self.wall_s:.3f}s "
            f"({self.events_per_sec:,.0f} events/s), "
            f"{self.batches} batches (mean {self.mean_batch_size:.2f} events)",
            f"{'kind':<40} {'events':>10} {'total_s':>9} {'mean_us':>8} {'share':>6} {'mean_batch':>10}",
        ]
        for kind, count, seconds, mean_us, share, mean_batch in self.rows():
            lines.append(
                f"{kind:<40} {count:>10} {seconds:>9.3f} {mean_us:>8.2f} "
                f"{share:>6.1%} {mean_batch:>10.2f}"
            )
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"EngineProfiler({self.events} events, {self.wall_s:.3f}s)"
