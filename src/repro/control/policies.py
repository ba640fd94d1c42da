"""Scripted congestion-control policies behind the ``external:`` prefix.

An :class:`ExternalPolicy` is the out-of-tree counterpart of a builtin
sender subclass: it receives the same four :class:`~repro.tcp.events.CCEvent`
dispatches (``on_ack`` / ``on_ecn_echo`` / ``on_rto`` /
``on_send_opportunity``) that the builtin strategies implement as
methods, but as a separate object bound to an
:class:`~repro.control.external.ExternalPolicySender` host.  The default
implementations delegate to the DCTCP laws, so a policy only overrides
the decisions it wants to change — exactly the subclassing surface the
builtins enjoy, without touching the registry.

Policies are registered by name and resolved through
``repro.tcp.cc.get_cc("external:<name>")``, which means a policy name
works anywhere a strategy name flows: ``spec_for``, ``ScenarioSpec``
cache keys, the sweep grid, the fuzzer and the arena.

Two policies ship as proof of the adapter:

- ``dctcp-plus-scripted`` re-implements the paper's DCTCP⁺ purely
  through the event protocol.  It is **byte-for-byte identical** to the
  builtin ``dctcp+`` strategy (the golden-equivalence test diffs full
  result payloads), which proves the external surface loses nothing.
- ``deadline-greedy`` is a deliberately simple deadline heuristic: a
  flow that is behind its deadline skips the DCTCP backoff entirely,
  one that is ahead backs off in full — a bang-bang version of D²TCP's
  gamma correction, scored against it in the arena.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, Optional, Tuple, Type

from ..core.pacer import SlowTimePacer
from ..core.state_machine import SlowTimeStateMachine
from ..core.states import DctcpPlusState
from ..tcp.cc import EXTERNAL_PREFIX, CongestionControl
from ..tcp.dctcp import DctcpSender
from ..tcp.events import CC_ACK_ECHO, CCEvent
from ..tcp.sender import TcpSender

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .external import ExternalPolicySender


class ExternalPolicy:
    """Base class for scripted policies; defaults are plain DCTCP.

    One instance is created per flow (per sender), so instance attributes
    are per-flow state.  ``bind`` runs after the host sender's
    ``__init__`` — the same program point where builtin subclasses set up
    their per-flow machinery — so stream draws made there land at the
    same :meth:`~repro.sim.engine.Simulator.next_sequence` offsets as the
    builtin they mirror.
    """

    #: Registry key (without the ``external:`` prefix).
    name = "external"
    #: Display label for tables and the arena.
    label = "External"
    #: External policies ride the DCTCP transport, so ECN stays on.
    ecn = True
    #: Whether the policy runs the slow_time law; becomes the registry
    #: flag, from which ``spec_for`` resolves the 1 MSS cwnd floor.
    slow_time = False
    #: Whether the policy consumes per-flow deadlines.
    deadline_aware = False
    description = ""

    def bind(self, sender: "ExternalPolicySender") -> None:
        """Attach per-flow state to the freshly constructed sender."""

    # -- the four CC event dispatches ------------------------------------------
    def on_ack(self, sender: "ExternalPolicySender", ev: CCEvent) -> None:
        DctcpSender.on_ack(sender, ev)

    def on_ecn_echo(self, sender: "ExternalPolicySender", ev: CCEvent) -> None:
        pass

    def on_rto(self, sender: "ExternalPolicySender", ev: CCEvent) -> None:
        DctcpSender.on_rto(sender, ev)

    def on_send_opportunity(self, sender: "ExternalPolicySender", ev: CCEvent) -> int:
        return TcpSender.on_send_opportunity(sender, ev)

    def reduction_penalty(self, sender: "ExternalPolicySender") -> float:
        """Backoff factor ``p`` in ``W <- W(1 - p/2)``; DCTCP uses alpha."""
        return sender.alpha


class DctcpPlusScripted(ExternalPolicy):
    """The paper's DCTCP⁺, rebuilt on the external policy surface.

    Mirrors :class:`~repro.core.dctcp_plus.DctcpPlusSender` exactly: the
    state machine draws from the same ``dctcp+/<seq>`` stream at the same
    sequence offset, the pacer is the same :class:`SlowTimePacer`, and the
    machine is fed by the same ``CC_ACK_ECHO``/``CC_RTO`` conditions.
    Every divergence from the builtin is a bug (the equivalence test
    enforces byte identity).
    """

    name = "dctcp-plus-scripted"
    label = "DCTCP+ (scripted)"
    slow_time = True
    description = "builtin DCTCP+ re-expressed as an external policy (byte-identical)"

    def bind(self, sender: "ExternalPolicySender") -> None:
        sim = sender.sim
        rng = sim.stream(f"dctcp+/{sim.next_sequence()}")
        # On the sender too, where the builtin keeps it.
        self.machine = sender.machine = SlowTimeStateMachine(sender.plus_config, rng)
        if sender.plus_config.backoff_unit_mode == "srtt":

            def _srtt_unit() -> Optional[int]:
                srtt = sender.rtt.srtt_ns
                return int(srtt) if srtt is not None else None

            self.machine.unit_source = _srtt_unit
        sender.pacer = SlowTimePacer(self.machine)
        self._retrans_pending = False
        hooks = sim.hooks
        if hooks is not None:
            hooks.machine_created(self.machine, sender)

    def on_ecn_echo(self, sender: "ExternalPolicySender", ev: CCEvent) -> None:
        if ev.kind is not CC_ACK_ECHO:
            return
        machine = self.machine
        congested = ev.ece or self._retrans_pending or sender.in_rto_recovery
        if congested:
            if machine.state is not DctcpPlusState.NORMAL or sender._cwnd_at_floor:
                machine.on_congestion_event()
        else:
            machine.on_clean_ack(ev.time_ns)
        self._retrans_pending = False

    def on_rto(self, sender: "ExternalPolicySender", ev: CCEvent) -> None:
        DctcpSender.on_rto(sender, ev)
        self._retrans_pending = True
        if sender._cwnd_at_floor:
            self.machine.on_congestion_event()


class DeadlineGreedy(ExternalPolicy):
    """Bang-bang deadline heuristic over the DCTCP window law.

    Where D²TCP modulates the backoff continuously (``alpha ** d``), this
    policy makes a binary call per window: a flow projected to miss its
    deadline (or already past it) skips the ECN backoff entirely; a flow
    on schedule backs off with full DCTCP alpha.  Deadline-less flows are
    exact DCTCP.  The projection is D²TCP's own ``d = Tc / Delta`` (the
    host's :class:`~repro.tcp.d2tcp.DeadlineMixin`), thresholded at 1.
    """

    name = "deadline-greedy"
    label = "DeadlineGreedy"
    deadline_aware = True
    description = "all-or-nothing deadline heuristic (greedy bang-bang D2TCP)"

    def reduction_penalty(self, sender: "ExternalPolicySender") -> float:
        if sender.deadline_ns is None:
            return sender.alpha
        # d >= 1: already late or projected to miss — hold the window and
        # finish ASAP; d < 1 (on schedule, or nothing left): full backoff.
        return 0.0 if sender._current_d() >= 1.0 else sender.alpha


# -- registry ---------------------------------------------------------------------
_POLICIES: Dict[str, Type[ExternalPolicy]] = {}


def register_policy(cls: Type[ExternalPolicy], *, replace: bool = False) -> Type[ExternalPolicy]:
    """Register a policy class under its ``name``; returns it for chaining."""
    if not replace and cls.name in _POLICIES:
        raise ValueError(f"external policy {cls.name!r} is already registered")
    _POLICIES[cls.name] = cls
    return cls


def policy_names() -> Tuple[str, ...]:
    """All registered policy names (without the ``external:`` prefix)."""
    return tuple(_POLICIES)


def get_policy(name: str) -> Type[ExternalPolicy]:
    """Look up a policy class by bare name."""
    try:
        return _POLICIES[name]
    except KeyError:
        raise ValueError(
            f"unknown external policy {name!r}; choose from {policy_names()}"
        ) from None


register_policy(DctcpPlusScripted)
register_policy(DeadlineGreedy)


def external_cc(
    policy_name: str,
    policy_factory: Optional[Callable[[], ExternalPolicy]] = None,
) -> CongestionControl:
    """Build the :class:`CongestionControl` descriptor for a policy name.

    ``repro.tcp.cc.get_cc`` calls this for ``external:<name>`` lookups;
    the descriptor's factory creates a fresh policy instance per flow, so
    policy instance attributes are per-flow state.  ``policy_factory``
    overrides the registry lookup (the control env injects its bridge
    this way).
    """
    factory = policy_factory if policy_factory is not None else get_policy(policy_name)

    def _build(sim, host, dst, fid, tcp_config, plus_config, on_complete, deadline_ns):
        from .external import make_external_sender

        return make_external_sender(
            factory(), sim, host, dst, fid,
            config=tcp_config,
            plus_config=plus_config,
            on_complete=on_complete,
            deadline_ns=deadline_ns,
        )

    template = factory() if policy_factory is not None else _POLICIES[policy_name]
    return CongestionControl(
        name=EXTERNAL_PREFIX + policy_name,
        label=template.label,
        factory=_build,
        ecn=template.ecn,
        slow_time=template.slow_time,
        deadline_aware=template.deadline_aware,
        description=template.description,
    )
