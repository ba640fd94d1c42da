"""A gym-style step/observe/act environment over the simulator.

:class:`ControlEnv` runs the incast workload exactly as
:func:`~repro.exec.scenario.run_scenario` would, but pauses the event
loop at every window boundary of one or more *controlled* flows and
hands the caller an :class:`~repro.telemetry.observe.Observation`.  The
caller answers with an :class:`Action` (adjust cwnd, set a pacing
interval) or ``None`` (autopilot: let the flow's own congestion law
act), and ``step`` resumes the simulation to the next boundary.

The loop is the classic agent interface::

    env = ControlEnv(protocol="dctcp", n_flows=16, rounds=2, seed=1)
    obs = env.reset()
    while not obs.done:
        obs = env.step(Action(cwnd_scale=0.5) if obs.marked_fraction > 0.5 else None)
    print(env.summary())

Mechanics
---------
- Controlled flows are :class:`~repro.control.external.ExternalPolicySender`
  endpoints bound to an :class:`EnvBridgePolicy` — an
  :class:`~repro.control.policies.ExternalPolicy` that accumulates the
  per-window ACK/mark bytes, snapshots an observation at each window
  boundary (``snd_una`` crossing the window-end sequence, DCTCP's own
  per-RTT cadence) and stops the event loop via
  :meth:`~repro.sim.engine.Simulator.request_stop`.  Uncontrolled flows
  run the spec's builtin strategy untouched.
- The bridge can wrap an inner scripted policy (by default the one
  mirroring the spec's protocol), so ``step(None)`` on every boundary
  reproduces the uncontrolled run **byte-for-byte** — the determinism
  tier asserts this.
- Step boundaries are plain ``request_stop`` calls, which every dispatch
  mode honours, so ``validate=True`` composes with control.  The
  environment builds its simulator with ``native=False``: the repo
  benchmark's ``control-env`` workload is its Python-loop canary.
- Determinism: the env draws no randomness of its own; all stream draws
  happen at the same ``next_sequence`` offsets as the uncontrolled run.
  Two envs driven with the same action sequence produce identical
  simulations (serial vs worker, across process restarts).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional, Sequence, Union

from ..net.topology import TopologyParams, topology_builder
from ..sim.engine import Simulator
from ..telemetry.observe import Observation, ObservationAssembler
from ..tcp.events import CCEvent
from ..workloads.incast import IncastConfig, IncastWorkload
from ..workloads.protocols import ProtocolSpec, spec_for
from .external import ExternalPolicySender, make_external_sender
from .policies import ExternalPolicy, get_policy


@dataclass
class Action:
    """One control decision for the flow that produced the observation.

    All fields default to "leave alone"; ``step(None)`` is equivalent to
    ``step(Action())``.
    """

    #: Set cwnd to this many bytes (quantized down to whole MSS, floored
    #: at the transport's minimum window).  Takes precedence over scale.
    cwnd_bytes: Optional[float] = None
    #: Multiply the current cwnd (1.0 = unchanged).
    cwnd_scale: float = 1.0
    #: Minimum spacing between data departures (ns); 0 disables pacing.
    #: ``None`` leaves the current interval unchanged.
    pacing_interval_ns: Optional[int] = None


class _EnvPacer:
    """Pacer wrapper: max of the inner gate and the env's pacing clock.

    Identity-preserving when the interval is 0 — it returns exactly what
    the wrapped pacer (or ``now``, if none) would, so an all-autopilot
    episode is byte-identical to the uncontrolled run.
    """

    __slots__ = ("inner", "interval_ns", "_next")

    def __init__(self, inner) -> None:
        self.inner = inner
        self.interval_ns = 0
        self._next = 0

    def next_send_time(self, now: int) -> int:
        inner = self.inner
        gate = now if inner is None else inner.next_send_time(now)
        return gate if gate >= self._next else self._next

    def on_sent(self, now: int) -> None:
        if self.inner is not None:
            self.inner.on_sent(now)
        if self.interval_ns > 0:
            self._next = now + self.interval_ns


class EnvBridgePolicy(ExternalPolicy):
    """The policy bound to each controlled flow: observes, then delegates.

    Wraps an optional inner :class:`ExternalPolicy` (the flow's scripted
    congestion law); with no inner policy the defaults — plain DCTCP —
    apply.  The bridge's only additions are per-window ACK/mark
    accounting, the window-boundary callback into the env, and the
    :class:`_EnvPacer` wrapped around whatever pacer the inner policy
    installed.
    """

    name = "env-bridge"
    label = "ControlEnv"
    description = "observation/action bridge for repro.control.ControlEnv"

    def __init__(self, env: "ControlEnv", flow: int, inner: Optional[ExternalPolicy] = None):
        self._env = env
        self.flow = flow
        self.inner = inner
        # Shadow the class attr so make_external_sender builds the host
        # the inner policy would get alone.
        self.deadline_aware = inner is not None and inner.deadline_aware
        self.assembler = ObservationAssembler()
        self.sender: Optional[ExternalPolicySender] = None
        self.pacer: Optional[_EnvPacer] = None
        self._acked = 0
        self._marked = 0
        self._obs_end_seq = 0

    def bind(self, sender: ExternalPolicySender) -> None:
        if self.inner is not None:
            self.inner.bind(sender)
        pacer = _EnvPacer(sender.pacer)
        sender.pacer = pacer
        self.pacer = pacer
        self.sender = sender

    def take_window(self):
        """Return and reset the window's (acked, marked) byte counters."""
        window = (self._acked, self._marked)
        self._acked = 0
        self._marked = 0
        return window

    # -- CC event surface --------------------------------------------------------
    def on_ack(self, sender: ExternalPolicySender, ev: CCEvent) -> None:
        self._acked += ev.newly_acked
        if ev.ece:
            self._marked += ev.newly_acked
        if self.inner is not None:
            self.inner.on_ack(sender, ev)
        else:
            ExternalPolicy.on_ack(self, sender, ev)
        if sender.snd_una >= self._obs_end_seq:
            self._obs_end_seq = sender.snd_nxt
            self._env._on_window_boundary(self)

    def on_ecn_echo(self, sender: ExternalPolicySender, ev: CCEvent) -> None:
        if self.inner is not None:
            self.inner.on_ecn_echo(sender, ev)

    def on_rto(self, sender: ExternalPolicySender, ev: CCEvent) -> None:
        if self.inner is not None:
            self.inner.on_rto(sender, ev)
        else:
            ExternalPolicy.on_rto(self, sender, ev)

    def on_send_opportunity(self, sender: ExternalPolicySender, ev: CCEvent) -> int:
        # The _EnvPacer is sender.pacer, so the default dispatch already
        # composes the inner gate with the env's pacing clock.
        return ExternalPolicy.on_send_opportunity(self, sender, ev)

    def reduction_penalty(self, sender: ExternalPolicySender) -> float:
        if self.inner is not None:
            return self.inner.reduction_penalty(sender)
        return ExternalPolicy.reduction_penalty(self, sender)


class _ControlledSpec:
    """ProtocolSpec proxy that swaps controlled ordinals' senders.

    Forwards every attribute read to the wrapped spec and intercepts only
    ``make_sender`` — flows whose construction ordinal is controlled get an
    :class:`ExternalPolicySender` bound to an env bridge, the rest get the
    spec's builtin strategy — and ``seeded_for``, so the workload's
    RTT-seeded copy is still this proxy.
    """

    def __init__(self, inner: ProtocolSpec, env: "ControlEnv", controlled) -> None:
        self._inner = inner
        self._env = env
        self._controlled = frozenset(controlled)
        self._ordinal = 0

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def seeded_for(self, tree) -> "_ControlledSpec":
        self._inner = self._inner.seeded_for(tree)
        return self

    def make_sender(self, sim, host, dst_node_id, flow_id, on_complete=None, deadline_ns=None):
        ordinal = self._ordinal
        self._ordinal = ordinal + 1
        if ordinal in self._controlled:
            return self._env._make_controlled_sender(
                self._inner, ordinal, sim, host, dst_node_id, flow_id,
                on_complete, deadline_ns,
            )
        return self._inner.make_sender(
            sim, host, dst_node_id, flow_id, on_complete, deadline_ns
        )


class ControlEnv:
    """Step/observe/act environment over one incast scenario."""

    def __init__(
        self,
        protocol: str = "dctcp",
        n_flows: int = 8,
        rounds: int = 2,
        seed: int = 1,
        controlled: Sequence[int] = (0,),
        policy: Union[str, type, None] = None,
        tcp_overrides: Optional[dict] = None,
        plus_overrides: Optional[dict] = None,
        incast_overrides: Optional[dict] = None,
        topology: str = "two-tier",
        topo: Optional[TopologyParams] = None,
        validate: Optional[bool] = None,
        max_events: int = 400_000_000,
    ):
        """``protocol`` names the strategy uncontrolled flows run; it also
        picks the controlled flows' default inner policy (the scripted
        DCTCP⁺ for slow_time strategies, plain DCTCP laws otherwise), so
        an all-``step(None)`` episode reproduces the uncontrolled run.
        ``policy`` overrides that inner policy by registry name or
        :class:`ExternalPolicy` subclass.  Controlled flows always ride
        the DCTCP-family transport (ECN on).
        """
        if not controlled:
            raise ValueError("need at least one controlled flow ordinal")
        bad = [i for i in controlled if not (0 <= i < n_flows)]
        if bad:
            raise ValueError(f"controlled ordinals out of range: {bad}")
        self.protocol = protocol
        self.n_flows = n_flows
        self.rounds = rounds
        self.seed = seed
        self.controlled = tuple(controlled)
        self.policy = policy
        self.tcp_overrides = dict(tcp_overrides or {})
        self.plus_overrides = dict(plus_overrides or {})
        self.incast_overrides = dict(incast_overrides or {})
        self.topology = topology
        self.topo = topo
        self.validate = validate
        self.max_events = max_events

        self.sim: Optional[Simulator] = None
        self.workload: Optional[IncastWorkload] = None
        self._bridges: List[EnvBridgePolicy] = []
        self._bridge_by_flow: Dict[int, EnvBridgePolicy] = {}
        self._pending: Deque[Observation] = deque()
        self._last_obs: Optional[Observation] = None
        self._started = False

    # -- episode lifecycle -------------------------------------------------------
    def reset(self) -> Observation:
        """Build a fresh simulation and run it to the first step boundary."""
        self.close()
        sim = Simulator(seed=self.seed, validate=self.validate, native=False)
        self.sim = sim
        self._bridges = []
        self._bridge_by_flow = {}
        self._pending = deque()
        self._last_obs = None

        tree = topology_builder(self.topology)(sim, self.topo)
        spec = spec_for(self.protocol, self.tcp_overrides, self.plus_overrides)
        spec.install_network(tree)
        wrapped = _ControlledSpec(spec, self, self.controlled)
        config = IncastConfig(
            n_flows=self.n_flows, n_rounds=self.rounds, **self.incast_overrides
        )
        self.workload = IncastWorkload(sim, tree, wrapped, config)
        peers: list = []
        for bridge in self._bridges:
            bridge.assembler.watch_queue(tree.bottleneck_port.queue, peers)
        self.workload.start()
        self._started = True
        self._last_obs = self._advance()
        return self._last_obs

    def step(self, action: Optional[Action] = None) -> Observation:
        """Apply ``action`` to the observed flow, resume to the next boundary."""
        if not self._started:
            raise RuntimeError("call reset() before step()")
        last = self._last_obs
        if last is None or last.done:
            raise RuntimeError("episode finished; call reset() for a new one")
        if action is not None:
            self._apply(action, last.flow)
        self._last_obs = self._advance()
        return self._last_obs

    def observe(self) -> Observation:
        """The most recent observation (same object ``reset``/``step`` returned)."""
        if self._last_obs is None:
            raise RuntimeError("no observation yet; call reset() first")
        return self._last_obs

    def close(self) -> None:
        """Tear down the current episode's endpoints (idempotent)."""
        if self.workload is not None:
            self.workload.close()
            self.workload = None
        self.sim = None
        self._started = False

    # -- results -----------------------------------------------------------------
    def summary(self) -> Dict[str, float]:
        """Headline aggregates of the finished (or in-progress) episode."""
        wl = self.workload
        if wl is None:
            raise RuntimeError("no episode; call reset() first")
        return {
            "goodput_mbps": wl.mean_goodput_bps / 1e6,
            "fct_ms": wl.mean_fct_ns / 1e6,
            "timeouts": float(wl.total_timeouts),
            "rounds": float(len(wl.rounds)),
            "bad_rounds": float(sum(1 for r in wl.rounds if r.timeouts > 0)),
        }

    # -- internals ---------------------------------------------------------------
    def _make_controlled_sender(
        self, spec: ProtocolSpec, ordinal, sim, host, dst_node_id, flow_id,
        on_complete, deadline_ns,
    ) -> ExternalPolicySender:
        inner = self._make_inner_policy(spec)
        bridge = EnvBridgePolicy(self, flow=ordinal, inner=inner)
        self._bridges.append(bridge)
        self._bridge_by_flow[ordinal] = bridge
        return make_external_sender(
            bridge, sim, host, dst_node_id, flow_id,
            config=spec.tcp_config,
            plus_config=spec.plus_config,
            on_complete=on_complete,
            deadline_ns=deadline_ns,
        )

    def _make_inner_policy(self, spec: ProtocolSpec) -> Optional[ExternalPolicy]:
        if self.policy is not None:
            cls = get_policy(self.policy) if isinstance(self.policy, str) else self.policy
            return cls()
        if spec.is_plus:
            # Mirror the spec's slow_time law so autopilot matches builtin.
            return get_policy("dctcp-plus-scripted")()
        return None  # ExternalPolicy defaults: plain DCTCP

    def _on_window_boundary(self, bridge: EnvBridgePolicy) -> None:
        acked, marked = bridge.take_window()
        self._pending.append(
            bridge.assembler.snapshot(bridge.sender, bridge.flow, acked, marked)
        )
        self.sim.request_stop()

    def _advance(self) -> Observation:
        sim = self.sim
        wl = self.workload
        while not self._pending:
            if wl.finished:
                for bridge in self._bridges:
                    acked, marked = bridge.take_window()
                    self._pending.append(
                        bridge.assembler.snapshot(
                            bridge.sender, bridge.flow, acked, marked, done=True
                        )
                    )
                break
            before = sim.events_processed
            wl.run_to_completion(max_events=self.max_events)
            if not self._pending and not wl.finished and sim.events_processed == before:
                raise RuntimeError(
                    "simulation stalled before reaching a step boundary "
                    "(event queue drained or max_events exhausted)"
                )
        return self._pending.popleft()

    def _apply(self, action: Action, flow: int) -> None:
        bridge = self._bridge_by_flow[flow]
        sender = bridge.sender
        target = None
        if action.cwnd_bytes is not None:
            target = float(action.cwnd_bytes)
        elif action.cwnd_scale != 1.0:
            target = sender.cwnd * action.cwnd_scale
        if target is not None:
            sender.cwnd = sender._quantize_down(target, sender.config.min_cwnd_bytes)
        if action.pacing_interval_ns is not None:
            bridge.pacer.interval_ns = int(action.pacing_interval_ns)
