"""Pluggable congestion-control strategies.

Historically each protocol variant was a hardcoded branch of
``ProtocolSpec.make_sender`` plus an inheritance lattice (DCTCP+ on
DCTCP, D2TCP mixed into both).  This module replaces the dispatch with a
registry of :class:`CongestionControl` descriptors: a strategy is a named
sender factory plus the metadata the rest of the stack needs (ECN stance,
whether the slow_time law applies, deadline awareness, an optional
network-side installation hook).  The sender classes themselves are
unchanged — a strategy *wraps* one, it does not reimplement it — so
registering a new competitor is a dozen lines and no subclassing of the
protocol plumbing.

Builtins are bound here, in the paper's presentation order, so the
registry contents never depend on which module a caller imported first.
Their factories import the sender class lazily, which keeps this module
import-cycle free (the sender modules import ``repro.core`` and
``repro.tcp`` in both directions), and are derived from the registered
flags themselves (:func:`_builtin`).

Example — registering an external strategy::

    from repro.tcp.cc import CongestionControl, register

    register(CongestionControl(
        name="my-cc", label="MyCC", ecn=True,
        factory=lambda sim, host, dst, fid, tcp, plus, done, deadline:
            MySender(sim, host, dst, fid, config=tcp, on_complete=done),
    ))

After registration the name works everywhere a protocol string does:
``spec_for("my-cc")``, ``ScenarioSpec.create(cc="my-cc", ...)``, the
fuzzer, and the arena experiment.
"""

from __future__ import annotations

from dataclasses import dataclass
from importlib import import_module
from typing import TYPE_CHECKING, Callable, Dict, Optional, Tuple

# The config modules import nothing but units, and no sender module imports
# this one, so these two sit at module scope (build() runs once per flow).
from ..core.config import DctcpPlusConfig
from .config import TcpConfig

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..net.host import Host
    from ..net.topology import TwoTierTree
    from ..sim.engine import Simulator
    from .sender import TcpSender

#: factory(sim, host, dst_node_id, flow_id, tcp_config, plus_config,
#:         on_complete, deadline_ns) -> TcpSender
SenderFactory = Callable[..., "TcpSender"]


@dataclass(frozen=True)
class CongestionControl:
    """One registered congestion-control strategy.

    Attributes
    ----------
    name:
        Registry key; the protocol string used by specs, CLI and cache keys.
    label:
        Display name matching the paper's figures.
    factory:
        Builds the sender endpoint; receives the resolved
        (tcp_config, plus_config) pair and may ignore either.
    ecn:
        Whether the strategy runs with ECN-capable transport.  Strategies
        with ``ecn=False`` (plain New Reno) have it forced off.
    slow_time:
        Whether the paper's slow_time enhancement law is active — i.e. the
        plus config is consumed, and ``spec_for`` lowers the cwnd floor to
        1 MSS unless the caller set one.
    deadline_aware:
        Whether the factory honours ``deadline_ns`` (D2TCP family).
    install_network:
        Optional hook run once per scenario against the built topology
        (Pulser arms the bottleneck's incast-notification threshold here).
        Must be deterministic; it runs in worker processes too.
    description:
        One line for ``--list``-style surfaces and the arena notes.
    """

    name: str
    label: str
    factory: SenderFactory
    ecn: bool = True
    slow_time: bool = False
    deadline_aware: bool = False
    install_network: Optional[Callable[["TwoTierTree"], None]] = None
    description: str = ""

    def build(
        self,
        sim: "Simulator",
        host: "Host",
        dst_node_id: int,
        flow_id: int,
        tcp_config: Optional["TcpConfig"] = None,
        plus_config: Optional["DctcpPlusConfig"] = None,
        on_complete: Optional[Callable[["TcpSender"], None]] = None,
        deadline_ns: Optional[int] = None,
    ) -> "TcpSender":
        """Instantiate the sender endpoint for this strategy."""
        return self.factory(
            sim,
            host,
            dst_node_id,
            flow_id,
            tcp_config if tcp_config is not None else TcpConfig(),
            plus_config if plus_config is not None else DctcpPlusConfig(),
            on_complete,
            deadline_ns,
        )


_REGISTRY: Dict[str, CongestionControl] = {}

#: Names with this prefix resolve to :mod:`repro.control` scripted
#: policies (``external:<policy>``).  They are *not* entries in the
#: registry — ``cc_names()`` stays exactly the builtins, so default
#: strategy fields (e.g. the arena's) never grow implicitly — but
#: :func:`get_cc` resolves them on demand, so the full spec/cache/sweep/
#: fuzzer pipeline accepts them anywhere a strategy name flows.
EXTERNAL_PREFIX = "external:"

#: Resolved external descriptors, cached by full name (kept separate from
#: ``_REGISTRY`` so enumeration never sees them).
_EXTERNAL: Dict[str, CongestionControl] = {}


def register(cc: CongestionControl, *, replace: bool = False) -> CongestionControl:
    """Add a strategy to the registry; returns it for chaining.

    Re-registering an existing name is an error unless ``replace=True``
    (explicit substitution, e.g. an instrumented variant in a test).
    """
    if not replace and cc.name in _REGISTRY:
        raise ValueError(f"congestion control {cc.name!r} is already registered")
    _REGISTRY[cc.name] = cc
    return cc


def get_cc(name: str) -> CongestionControl:
    """Look up a strategy by name.

    ``external:<policy>`` names resolve to :mod:`repro.control` scripted
    policies (imported lazily; the import is upward in the layer graph,
    which is why it happens here and not at module scope).
    """
    try:
        return _REGISTRY[name]
    except KeyError:
        pass
    if name.startswith(EXTERNAL_PREFIX):
        cached = _EXTERNAL.get(name)
        if cached is not None:
            return cached
        from ..control.policies import external_cc

        cc = external_cc(name[len(EXTERNAL_PREFIX):])
        _EXTERNAL[name] = cc
        return cc
    raise ValueError(
        f"unknown congestion control {name!r}; choose from {cc_names()}"
    )


def cc_names() -> Tuple[str, ...]:
    """All registered strategy names, builtins first in paper order."""
    return tuple(_REGISTRY)


def cc_labels() -> Dict[str, str]:
    """name -> display label for every registered strategy."""
    return {name: cc.label for name, cc in _REGISTRY.items()}


# -- builtin strategies -----------------------------------------------------------
def _builtin(name: str, label: str, sender: str, description: str, **flags) -> None:
    """Register a builtin whose factory acts on its own registered flags.

    ``sender`` is ``"<relative module>:<class>"``, imported on first build.
    ``slow_time`` passes the plus config, ``deadline_aware`` the deadline,
    ``ecn=False`` forces ECN off — so the metadata cannot drift from the
    wiring.
    """
    sender_cls = None

    def factory(sim, host, dst, fid, tcp_config, plus_config, on_complete, deadline_ns):
        nonlocal sender_cls
        if sender_cls is None:
            module, _, cls = sender.partition(":")
            sender_cls = getattr(import_module(module, __package__), cls)
        kwargs = {}
        if cc.slow_time:
            kwargs["plus_config"] = plus_config
        if cc.deadline_aware:
            kwargs["deadline_ns"] = deadline_ns
        if tcp_config.ecn_enabled and not cc.ecn:
            tcp_config = tcp_config.with_overrides(ecn_enabled=False)
        return sender_cls(sim, host, dst, fid, config=tcp_config, on_complete=on_complete, **kwargs)

    cc = register(
        CongestionControl(name, label, factory, description=description, **flags)
    )


def _pulser_install(tree: "TwoTierTree") -> None:
    from .pulser import install_incast_notification

    install_incast_notification(tree)


_builtin("tcp", "TCP", ".sender:TcpSender", ecn=False,
         description="TCP New Reno, no ECN (the paper's TCP baseline)")
_builtin("dctcp", "DCTCP", ".dctcp:DctcpSender", description="DCTCP (Alizadeh et al.)")
_builtin("dctcp+", "DCTCP+", "..core.dctcp_plus:DctcpPlusSender", slow_time=True,
         description="full DCTCP+ (randomized slow_time regulation)")
_builtin("dctcp+norand", "DCTCP+ (no desync)", "..core.dctcp_plus:DctcpPlusSender",
         slow_time=True,
         description="partially implemented DCTCP+ (Fig. 6): no randomization")
_builtin("tcp+", "TCP+", "..core.reno_plus:RenoPlusSender", ecn=False, slow_time=True,
         description="New Reno + slow_time regulation (loss-channel driven)")
_builtin("d2tcp", "D2TCP", ".d2tcp:D2tcpSender", deadline_aware=True,
         description="deadline-aware DCTCP (Vamanan et al.)")
_builtin("d2tcp+", "D2TCP+", ".d2tcp:D2tcpPlusSender", slow_time=True, deadline_aware=True,
         description="D2TCP carrying the slow_time enhancement (Section VII)")
_builtin("pulser", "Pulser", ".pulser:PulserSender", install_network=_pulser_install,
         description="DCTCP + explicit incast-onset notification from the switch "
         "(Pulser-style, arXiv:1809.09751)")
_builtin("tbtcp", "TBTCP", ".tbtcp:TbtcpSender",
         description="DCTCP paced at cwnd/srtt with a capped window, holding the "
         "bottleneck queue near zero (TBTCP-style, arXiv:1909.05392)")
