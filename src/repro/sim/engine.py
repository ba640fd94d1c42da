"""The discrete-event simulator core.

A :class:`Simulator` owns the clock (integer nanoseconds), the event queue
and the RNG registry.  Components schedule callbacks with
:meth:`Simulator.schedule` / :meth:`Simulator.at` and the experiment driver
pumps events with :meth:`Simulator.run`.

The engine is deliberately tiny — all protocol behaviour lives in the
components — so the hot loop is a ``pop -> callback`` cycle with no
dispatch indirection.  :meth:`Simulator.run` fuses the peek/pop scan of
:class:`~repro.sim.events.EventQueue` into one loop over the raw heap with
``heapq`` bound to locals, and **batches same-timestamp dispatch**: once
the head event's time is established, every consecutive event at that
time is drained in one inner loop, so the clock store, the ``until``
bound and the head-of-heap rescan are paid once per distinct timestamp
instead of once per event (packet-level simulations tie heavily — fan-in
arrivals, ACK bursts, zero-delay control packets).  That loop is the only
Python dispatch loop: an attached invariant checker or profiler is read
into a local once per ``run()`` call and branched on inside it.  When the
optional C event core (``_evcore.c``) is available, ``run()`` hands the
same frame to it instead: it is bit-compatible with the loop and serves an
attached checker and profiler at the same points, so an instrumented run
executes the code the figures run on, natively.

The simulator also owns the struct-of-arrays stores the components share:
``sim.pool`` (the :class:`~repro.net.pool.PacketPool` packet flyweights)
and ``sim.flows`` (the :class:`~repro.tcp.flowstate.FlowLedger` per-flow
counter columns).  Both are created lazily by their layer — the engine
never imports net or tcp.

Automatic garbage collection is paused while :meth:`run` pumps events
(and restored on exit, exception-safe).  The hot path allocates almost
nothing cyclic — events and packets are recycled through freelists, and
acyclic temporaries die by refcount — so the collector's periodic
traversals were pure overhead (~10% of runtime at the default thresholds).
:func:`repro.exec.scenario.run_scenario` widens the same pause to the whole
point (construction included) and ends it with one young collection; this
one then finds the collector already off and leaves it alone.
"""

from __future__ import annotations

import gc
import os
from heapq import heappop, heappush, heapreplace
from sys import maxsize
from time import perf_counter
from typing import Callable, Optional

from ._native import core_factory
from .events import FREELIST_MAX, Event, EventQueue, _noop
from .rng import RngRegistry

#: Environment opt-in for runtime invariant checking (see ``repro.validate``).
VALIDATE_ENV = "REPRO_VALIDATE"


def _env_validate() -> bool:
    return os.environ.get(VALIDATE_ENV, "").strip().lower() in ("1", "true", "on", "yes")


class SimulationError(RuntimeError):
    """Raised on engine misuse (scheduling in the past, etc.)."""


class Simulator:
    """Event loop + simulated clock.

    Parameters
    ----------
    seed:
        Master seed for the per-component RNG registry.
    validate:
        Attach a :class:`repro.validate.InvariantChecker` that components
        register with at construction and that :meth:`run` sweeps while
        dispatching.  ``None`` (default) consults the ``REPRO_VALIDATE``
        environment variable; ``False`` leaves ``checker`` as ``None``.
    tracer:
        Attach a :class:`repro.telemetry.Tracer` recording typed event
        records from the component hook points.  The tracer schedules no
        events, so event counts and digests match untraced runs exactly.
    profiler:
        Attach a :class:`repro.telemetry.EngineProfiler`; :meth:`run` then
        times every callback and attributes the wall time to its kind.
        Composes with ``validate``.
    native:
        Dispatch through the C event core.  ``None`` (default) or ``True``
        means "when it is available", whatever observers are attached;
        ``False`` forces the Python loop (as ``REPRO_NATIVE=0`` does for
        every simulator in the process).

    ``checker`` and ``tracer`` both observe the simulation through one
    :class:`repro.telemetry.HookRegistry` (``self.hooks``); components
    announce themselves to it at construction.  ``hooks`` is ``None`` when
    neither observer is active, so the plain path pays exactly one
    attribute test per component construction and nothing per event.
    """

    __slots__ = (
        "now",
        "queue",
        "rng",
        "checker",
        "tracer",
        "profiler",
        "hooks",
        "pool",
        "flows",
        "_running",
        "events_processed",
        "_sequence",
        "_core",
        "push_light",
        "_stop",
    )

    def __init__(
        self,
        seed: int = 0,
        validate: Optional[bool] = None,
        tracer=None,
        profiler=None,
        native: Optional[bool] = None,
    ):
        self.now: int = 0
        self.queue = EventQueue()
        self.rng = RngRegistry(seed)
        self._running = False
        self.events_processed: int = 0
        self._sequence = 0
        # Struct-of-arrays stores, attached lazily by their owning layers
        # (PacketPool.of / FlowLedger.of) so the engine stays import-free.
        self.pool = None
        self.flows = None
        self._stop = False
        if validate is None:
            validate = _env_validate()
        if validate:
            # Imported lazily: the validate layer is optional and the
            # common (disabled) path must not pay for it.
            from ..validate.checker import InvariantChecker

            self.checker = InvariantChecker(self)
        else:
            self.checker = None
        self.tracer = tracer
        self.profiler = profiler
        if tracer is not None or self.checker is not None:
            # One fan-out point for every observer; lazy import keeps the
            # unobserved path free of the telemetry layer entirely.
            from ..telemetry.hooks import HookRegistry

            hooks = HookRegistry()
            if self.checker is not None:
                hooks.subscribe(self.checker)
            if tracer is not None:
                tracer.bind(self)
                hooks.subscribe(tracer)
            self.hooks = hooks
        else:
            self.hooks = None
        # Native event core (see repro/sim/_evcore.c): owns the light-event
        # heap, the global sequence counter, and the dispatch loop.  The
        # mode is fixed here, once; both loops serve the checker and the
        # profiler alike.
        core = None
        if native is None or native:
            factory = core_factory()
            if factory is not None:
                core = factory()
        self._core = core
        self.queue._core = core
        # `push_light(abs_time, callback, arg)` is the unchecked light-event
        # scheduling primitive, bound once so per-hop call sites pay a
        # single call (a C call in native mode).
        self.push_light = core.push if core is not None else self._push_light_py

    @property
    def native(self) -> bool:
        """True when this simulator dispatches through the C event core."""
        return self._core is not None

    def next_sequence(self) -> int:
        """Per-simulation monotonically increasing id.

        Components use this (not any process-global counter) to derive RNG
        stream names, so that two simulations built identically from the
        same seed draw identical randomness regardless of what ran before
        them in the process.
        """
        self._sequence += 1
        return self._sequence

    # -- scheduling -----------------------------------------------------------
    def schedule(self, delay: int, callback: Callable[..., None], *args) -> Event:
        """Run ``callback(*args)`` after ``delay`` ns of simulated time."""
        if delay < 0:
            raise SimulationError(f"cannot schedule {delay} ns in the past")
        return self.queue.push(self.now + delay, callback, args)

    def _push_light_py(self, time: int, callback: Callable[[int], None], arg: int) -> None:
        # Pure-Python implementation behind `push_light` (native mode binds
        # the core's C push instead): a bare (time, seq, callback, arg)
        # tuple on the regular heap.
        queue = self.queue
        seq = queue._seq
        queue._seq = seq + 1
        queue._live += 1
        heappush(queue._heap, (time, seq, callback, arg))

    def schedule_light(self, delay: int, callback: Callable[[int], None], arg: int) -> None:
        """Schedule a one-shot ``callback(arg)`` after ``delay`` ns — no handle.

        The fast path for the two scheduling sites every packet hop pays
        (serialization-finish and propagation-arrival, ~94% of all events):
        no :class:`Event` is allocated — the entry is a bare
        ``(time, seq, callback, arg)`` record (a tuple on the regular heap,
        or a C struct in the native core's heap) consuming the same sequence
        stream as :meth:`schedule`, so event ordering (including FIFO ties
        at one timestamp) is bit-for-bit identical to the heavyweight path.
        Light events cannot be cancelled or rescheduled — callers that need
        a handle use :meth:`schedule`.  Per-hop call sites bind
        ``sim.push_light`` (same primitive, absolute time, no validation)
        to skip this method's frame.
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule {delay} ns in the past")
        self.push_light(self.now + delay, callback, arg)

    def at(self, time: int, callback: Callable[..., None], *args) -> Event:
        """Run ``callback(*args)`` at absolute simulated ``time``."""
        if time < self.now:
            raise SimulationError(f"cannot schedule at t={time} before current time t={self.now}")
        return self.queue.push(time, callback, args)

    def reschedule(
        self, event: Optional[Event], delay: int, callback: Callable[..., None], *args
    ) -> Event:
        """Re-arm a timer ``delay`` ns from now without heap churn.

        Drop-in replacement for the ``cancel(); schedule()`` idiom (and
        bit-for-bit equivalent to it, including event ordering): the
        returned handle supersedes ``event``, which must not be used
        afterwards.  ``None`` is accepted and behaves like ``schedule``.
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule {delay} ns in the past")
        return self.queue.reschedule(event, self.now + delay, callback, args)

    def cancel(self, event: Optional[Event]) -> None:
        """Cancel an event handle (``None`` is accepted and ignored)."""
        if event is not None:
            self.queue.cancel(event)

    def request_stop(self) -> None:
        """Stop :meth:`run` after the currently executing event completes.

        Called from inside event callbacks by workload drivers when their
        completion condition is reached; cheaper than a per-event
        ``stop_when`` predicate because the loop only tests a flag.
        """
        self._stop = True

    # -- execution -------------------------------------------------------------
    def run(
        self,
        until: Optional[int] = None,
        max_events: Optional[int] = None,
        stop_when: Optional[Callable[[], bool]] = None,
    ) -> int:
        """Process events in timestamp order.

        Parameters
        ----------
        until:
            Absolute simulated time bound.  Events strictly after ``until``
            are left in the queue and the clock is advanced to ``until``.
        max_events:
            Safety valve for runaway simulations (mainly used by tests).
        stop_when:
            Predicate checked after each event; the loop stops when it
            returns True (used by experiment drivers to stop at workload
            completion without draining idle timers).

        Returns the number of events processed in this call.

        In either loop, an attached checker holds every dispatched
        timestamp to the monotone law and sweeps inline every
        ``checker.sweep_every`` events and once more when the call returns;
        an attached profiler times every callback and counts every
        same-timestamp batch.  Neither schedules anything, so
        observed runs dispatch the exact event sequence of plain ones.  On
        return, an attached tracer records each queue peak that rose.
        """
        queue = self.queue
        core = self._core
        checker = self.checker
        profiler = self.profiler
        limit = maxsize if max_events is None else max_events
        processed = 0
        processed_before = self.events_processed
        self._running = True
        self._stop = False
        gc_was_enabled = gc.isenabled()
        if gc_was_enabled:
            gc.disable()
        if profiler is not None:
            counts = profiler.counts
            times = profiler.times_s
            batch_kinds: list = []
            wall_started = perf_counter()
        try:
            if core is not None:
                # Same (time, seq) order, stop-condition order, freelist
                # recycling and observer service as the loop below (see
                # _evcore.c).
                processed = core.run(
                    self,
                    queue,
                    until,
                    limit,
                    stop_when,
                    _noop,
                    FREELIST_MAX,
                    Event,
                    checker,
                    profiler,
                )
            else:
                # The loop works on the queue's raw heap (same entry layout
                # as EventQueue.pop, the reference it is tested against) so
                # each event costs one tuple unpack instead of two method
                # calls; heapq functions and the freelist are bound to
                # locals for the same reason.
                heap = queue._heap
                free = queue._free
                free_append = free.append
                since_sweep = 0
                running = True
                while running and processed < limit:
                    # Establish the next live head event (skipping cancelled
                    # carcasses, re-filing deferred reschedules).  Light
                    # entries — bare (time, seq, callback, arg) tuples, see
                    # Simulator.schedule_light — are always live, so they
                    # skip every check.
                    ev = None
                    while heap:
                        entry = heap[0]
                        ev = entry[2]
                        ev_time = entry[0]
                        if ev.__class__ is Event:
                            if ev.cancelled:
                                heappop(heap)
                                if len(free) < FREELIST_MAX:
                                    free_append(ev)
                                ev = None
                                continue
                            deadline = ev.deadline
                            if deadline > ev_time:
                                # Stale slot from a reschedule: re-file at
                                # the true deadline.
                                ev.time = deadline
                                ev.seq = ev._dseq
                                heapreplace(heap, (deadline, ev._dseq, ev))
                                ev = None
                                continue
                        break
                    if ev is None:
                        break
                    if until is not None and ev_time > until:
                        self.now = until
                        break
                    if checker is not None:
                        checker.check_dispatch_time(ev_time)
                    self.now = ev_time
                    # Same-timestamp batch: every consecutive live event at
                    # ev_time dispatches here without re-checking `until` or
                    # re-storing the clock.  Events scheduled *during* the
                    # batch with zero delay land at ev_time with higher seq
                    # and are picked up by the same loop, preserving exact
                    # (time, seq) order.
                    while True:
                        heappop(heap)
                        queue._live -= 1
                        if profiler is not None:
                            started = perf_counter()
                        if ev.__class__ is Event:
                            ev.deadline = -1  # fired: no longer pending
                            callback = ev.callback
                            callback(*ev.args)
                            # Recycle the fired event.  Safe because handles
                            # are single-use: every component that stores
                            # one clears or overwrites its reference inside
                            # the callback (and cancel/reschedule on a fired
                            # handle are no-ops), so nothing can reach `ev`
                            # once its callback has run.
                            if len(free) < FREELIST_MAX:
                                ev.callback = _noop
                                ev.args = ()
                                free_append(ev)
                        else:
                            callback = ev
                            callback(entry[3])
                        processed += 1
                        if profiler is not None:
                            elapsed = perf_counter() - started
                            kind = (
                                getattr(callback, "__qualname__", None) or type(callback).__name__
                            )
                            counts[kind] = counts.get(kind, 0) + 1
                            times[kind] = times.get(kind, 0.0) + elapsed
                            batch_kinds.append(kind)
                        if checker is not None:
                            since_sweep += 1
                            if since_sweep >= checker.sweep_every:
                                since_sweep = 0
                                checker.sweep()
                        if (
                            self._stop
                            or (stop_when is not None and stop_when())
                            or processed >= limit
                        ):
                            running = False
                            break
                        if not heap:
                            break
                        entry = heap[0]
                        if entry[0] != ev_time:
                            break
                        ev = entry[2]
                        if ev.__class__ is Event and (ev.cancelled or ev.deadline > ev_time):
                            # Rare in-batch carcass/deferral: fall back to
                            # the outer scan, which re-enters the batch if
                            # more live events remain at this timestamp.
                            break
                    if profiler is not None:
                        profiler.record_batch(batch_kinds)
                        del batch_kinds[:]
        finally:
            if gc_was_enabled:
                gc.enable()
            self._running = False
            if core is None:
                self.events_processed += processed
            else:
                # The C loop credits its own progress: it has to when a
                # callback raises, because core.run then returns no count.
                processed = self.events_processed - processed_before
            if profiler is not None:
                profiler.record_run(processed, perf_counter() - wall_started)
        if checker is not None:
            checker.sweep()
        if self.tracer is not None:
            self.tracer.run_ended()
        if (
            until is not None
            and self.now < until
            and (core is None or len(core) == 0)
            and queue.peek_time() is None
        ):
            self.now = until
        return processed

    def run_until_idle(self, max_events: Optional[int] = None) -> int:
        """Drain the event queue completely."""
        return self.run(until=None, max_events=max_events)

    # -- helpers ---------------------------------------------------------------
    def stream(self, name: str):
        """Named RNG stream (see :class:`repro.sim.rng.RngRegistry`)."""
        return self.rng.stream(name)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        pending = len(self.queue) + (len(self._core) if self._core is not None else 0)
        return f"Simulator(now={self.now}, pending={pending})"
