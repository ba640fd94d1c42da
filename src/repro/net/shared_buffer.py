"""Dynamically shared switch buffering.

The paper's testbed switches use *static* per-port buffers (every port
owns 128 KB outright), and the original DCTCP paper points out that
incast severity depends on this choice: a dynamically shared pool lets a
single congested port absorb a larger burst at the expense of isolation.
:class:`SharedBufferSwitch` models the shared-pool variant so that the
choice can be studied (see ``python -m repro experiments extensions``).

Admission rule per incoming packet destined to port *p*:

1. the *pool* occupancy (sum over all ports) must stay within
   ``shared_pool_bytes``;
2. optionally, port *p* itself must stay within ``per_port_cap_bytes``
   (a simple static cap preventing total monopolization).

ECN marking is unchanged: instantaneous per-port queue vs threshold K.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from ..sim.engine import Simulator
from .link import Link
from .node import Node
from .pool import PacketPool
from .port import OutputPort
from .queues import DEFAULT_ECN_THRESHOLD, DropTailQueue
from .switch import make_ecmp_forward


class _EcmpRoute:
    """Route-table entry that fans one destination over an ECMP group.

    ``receive`` only ever calls ``.send(h)`` on whatever the route table
    holds, so an object exposing the selector closure as ``send`` slots
    into ``_routes`` without touching the forwarding path.
    """

    __slots__ = ("send",)

    def __init__(self, send):
        self.send = send


class _PooledQueue(DropTailQueue):
    """A port queue whose admission also checks the switch-wide pool."""

    __slots__ = ("switch_ref",)

    def __init__(self, capacity_bytes, ecn_threshold_bytes, switch_ref, pool):
        super().__init__(capacity_bytes, ecn_threshold_bytes, pool=pool)
        self.switch_ref = switch_ref

    def enqueue(self, h: int) -> bool:
        switch = self.switch_ref
        wire_bytes = self._wire[h]
        if switch._pool_occupancy + wire_bytes > switch.shared_pool_bytes:
            self.dropped_packets += 1
            self.dropped_bytes += wire_bytes
            switch.pool_drops += 1
            if self.on_drop is not None:
                self.on_drop(h)
            self._pool_free(h)
            return False
        if super().enqueue(h):
            switch._pool_occupancy += wire_bytes
            return True
        return False

    def dequeue(self):
        h = super().dequeue()
        if h is not None:
            self.switch_ref._pool_occupancy -= self._wire[h]
        return h


class SharedBufferSwitch(Node):
    """Output-queued switch with a dynamically shared buffer pool."""

    __slots__ = (
        "ports",
        "pool",
        "_dst_col",
        "_pkt_free",
        "_routes",
        "shared_pool_bytes",
        "per_port_cap_bytes",
        "ecn_threshold_bytes",
        "pool_drops",
        "unroutable_drops",
        "_pool_occupancy",
        "_ecmp",
        "_flow_ord",
    )

    def __init__(
        self,
        sim: Simulator,
        name: str = "",
        shared_pool_bytes: int = 512 * 1024,
        per_port_cap_bytes: Optional[int] = None,
        ecn_threshold_bytes: Optional[int] = DEFAULT_ECN_THRESHOLD,
    ):
        super().__init__(sim, name)
        if shared_pool_bytes <= 0:
            raise ValueError("shared pool must be positive")
        self.ports: List[OutputPort] = []
        self.pool = PacketPool.of(sim)
        self._dst_col = self.pool.dst
        self._pkt_free = self.pool.free
        self._routes = {}
        self.shared_pool_bytes = shared_pool_bytes
        self.per_port_cap_bytes = per_port_cap_bytes
        self.ecn_threshold_bytes = ecn_threshold_bytes
        self.pool_drops = 0
        self.unroutable_drops = 0
        # Maintained incrementally by _PooledQueue so per-packet admission
        # is O(1) instead of summing every port; the validate layer
        # cross-checks it against the per-port sum.
        self._pool_occupancy = 0
        self._ecmp: Dict[int, Tuple[OutputPort, ...]] = {}
        self._flow_ord: Dict[int, int] = {}
        hooks = sim.hooks
        if hooks is not None:
            hooks.switch_created(self)

    @property
    def pool_occupancy_bytes(self) -> int:
        """Bytes currently buffered across every port."""
        return self._pool_occupancy

    def add_port(self, link: Link, name: str = "") -> OutputPort:
        per_port_cap = (
            self.per_port_cap_bytes
            if self.per_port_cap_bytes is not None
            else self.shared_pool_bytes
        )
        queue = _PooledQueue(per_port_cap, self.ecn_threshold_bytes, self, self.pool)
        port = OutputPort(self.sim, link, queue, name or f"{self.name}:p{len(self.ports)}")
        self.ports.append(port)
        return port

    def add_route(self, dst_node_id: int, port: OutputPort) -> None:
        if port not in self.ports:
            raise ValueError(f"port {port.name!r} does not belong to switch {self.name!r}")
        self._routes[dst_node_id] = port
        self._ecmp.pop(dst_node_id, None)

    def add_ecmp_group(
        self,
        dst_node_id: int,
        ports: Sequence[OutputPort],
        salt: int,
        per_packet: bool = False,
    ) -> None:
        """Install an equal-cost multipath entry (see :meth:`Switch.add_ecmp_group`)."""
        ports = tuple(ports)
        if not ports:
            raise ValueError("an ECMP group needs at least one port")
        for port in ports:
            if port not in self.ports:
                raise ValueError(
                    f"port {port.name!r} does not belong to switch {self.name!r}"
                )
        if len(ports) == 1:
            self.add_route(dst_node_id, ports[0])
            return
        self._ecmp[dst_node_id] = ports
        self._routes[dst_node_id] = _EcmpRoute(
            make_ecmp_forward(self.pool, self._flow_ord, ports, salt, per_packet)
        )

    def route_for(self, dst_node_id: int):
        port = self._routes.get(dst_node_id)
        return None if isinstance(port, _EcmpRoute) else port

    def ecmp_candidates(self, dst_node_id: int) -> Optional[Tuple[OutputPort, ...]]:
        """The equal-cost candidate set for a destination (None otherwise)."""
        return self._ecmp.get(dst_node_id)

    def receive(self, h: int) -> None:
        try:
            port = self._routes[self._dst_col[h]]
        except KeyError:
            self.unroutable_drops += 1
            self._pkt_free(h)
            return
        port.send(h)
