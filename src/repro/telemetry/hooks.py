"""The shared hook registry: one fan-out point for every observer.

Before this module existed, the invariant checker chained its own
closures over every queue's ``on_drop``/``on_mark`` slots, and any other
observer would have had to install a parallel chain.  The registry owns
those slots instead: components announce themselves once at construction
(``sim.hooks.port_created(self)`` …) and the registry installs a *single*
dispatcher per queue that fans out to every subscriber — the invariant
checker, the tracer, or both.

Cost model (the part PR 3 cares about):

- ``sim.hooks`` is ``None`` unless validation or tracing is active, so the
  unobserved path pays exactly one attribute test per *component
  construction* and nothing per packet.
- Admission has no hook at all: a queue's occupancy peak is a field the
  port writes inline (``DropTailQueue.peak_bytes``), which a subscriber
  reads off the queue handed to ``register_queue``.  Observing a run
  never takes a port off its idle cut-through.
- Subscribers must be registered before components are built; the
  :class:`~repro.sim.engine.Simulator` constructor guarantees this.

Subscriber protocol (all methods optional — implement what you observe)::

    register_port(port)                 component lifecycle
    register_switch(switch)
    register_sender(sender)
    register_receiver(receiver)
    register_queue(queue, name)         a port's queue, under its trace name
    attach_machine(machine, sender)     slow_time machine created
    queue_dropped(queue, name, packet)  per-event queue instrumentation
    queue_marked(queue, name, packet)
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids import cycles
    from ..core.state_machine import SlowTimeStateMachine
    from ..net.port import OutputPort
    from ..net.queues import DropTailQueue
    from ..net.shared_buffer import SharedBufferSwitch
    from ..tcp.receiver import TcpReceiver
    from ..tcp.sender import TcpSender


class HookRegistry:
    """Dispatches component lifecycle + queue events to subscribers."""

    __slots__ = ("subscribers", "_queues_watched")

    def __init__(self):
        self.subscribers: List[object] = []
        self._queues_watched = 0

    def subscribe(self, subscriber: object) -> None:
        self.subscribers.append(subscriber)

    def _dispatch(self, method: str, *args) -> None:
        for subscriber in self.subscribers:
            hook = getattr(subscriber, method, None)
            if hook is not None:
                hook(*args)

    # -- component lifecycle (called from component constructors) ---------------
    def port_created(self, port: "OutputPort") -> None:
        self._dispatch("register_port", port)
        self._queues_watched += 1
        name = port.name or f"queue#{self._queues_watched}"
        self._dispatch("register_queue", port.queue, name)
        self._watch_queue(port.queue, name)

    def switch_created(self, switch: "SharedBufferSwitch") -> None:
        self._dispatch("register_switch", switch)

    def sender_created(self, sender: "TcpSender") -> None:
        self._dispatch("register_sender", sender)

    def receiver_created(self, receiver: "TcpReceiver") -> None:
        self._dispatch("register_receiver", receiver)

    def machine_created(self, machine: "SlowTimeStateMachine", sender: "TcpSender") -> None:
        self._dispatch("attach_machine", machine, sender)

    # -- queue instrumentation ---------------------------------------------------
    def _watch_queue(self, queue: "DropTailQueue", name: str) -> None:
        """Install one multiplexing closure per instrumented slot.

        Pre-existing user callbacks keep firing (chained after the
        subscribers), and slots with no interested subscriber are left
        untouched so unobserved events stay free.
        """
        drop_subs = tuple(s for s in self.subscribers if hasattr(s, "queue_dropped"))
        if drop_subs:
            prev_drop = queue.on_drop

            def _on_drop(packet, _subs=drop_subs, _q=queue, _n=name, _prev=prev_drop):
                for s in _subs:
                    s.queue_dropped(_q, _n, packet)
                if _prev is not None:
                    _prev(packet)

            queue.on_drop = _on_drop

        mark_subs = tuple(s for s in self.subscribers if hasattr(s, "queue_marked"))
        if mark_subs:
            prev_mark = queue.on_mark

            def _on_mark(packet, _subs=mark_subs, _q=queue, _n=name, _prev=prev_mark):
                for s in _subs:
                    s.queue_marked(_q, _n, packet)
                if _prev is not None:
                    _prev(packet)

            queue.on_mark = _on_mark

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        names = ", ".join(type(s).__name__ for s in self.subscribers)
        return f"HookRegistry([{names}], queues={self._queues_watched})"
