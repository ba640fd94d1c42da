"""Topology builders.

:func:`build_two_tier` reproduces the paper's testbed (Fig. 5 / Fig. 10): a
canonical tree-based 2-tier topology.  The aggregator hangs off the root
switch (*Switch 1*); worker servers are spread round-robin across leaf
switches that uplink to the root.  The bottleneck in every incast
experiment is the root switch's port toward the aggregator.

All links are 1 Gbps with a 12 µs propagation delay by default, giving an
unloaded worker→aggregator→worker RTT of ~100 µs — the paper's baseline
RTT, and the ``D`` in its pipeline-capacity calculation
``C·D + B ≈ 140.5 KB``.

Beyond the paper's tree, the module builds the other canonical data-center
shapes on the same :class:`TopologyParams` config:

- :func:`build_dumbbell` — N sender/receiver pairs across one shared
  bottleneck trunk, with optionally heterogeneous per-leg propagation
  delays (the classic RTT-unfairness testbed).
- :func:`build_fat_tree` — a k-ary fat-tree (k pods of k/2 edge + k/2
  aggregation switches over (k/2)² cores) with deterministic, seeded
  ECMP across the equal-cost uplinks (see
  :meth:`~repro.net.switch.Switch.add_ecmp_group`).
- :func:`build_star` — the single-switch star the unit tests use.

Every network object exposes the same workload-facing surface —
``servers``, ``aggregator``, ``all_hosts``, ``bottleneck_port``,
``hops_between`` and ``baseline_rtt_ns`` — so the workloads and scenario
layer are topology-agnostic.  :func:`check_wiring` walks any built network
and asserts the structural invariants (bidirectional rate-consistent
cables, all-pairs reachability, truly equal-cost ECMP candidate sets);
:data:`TOPOLOGIES` maps the spec-level topology names onto builders.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple, Union

from ..sim.engine import Simulator
from ..sim.units import GBPS, transmission_time_ns
from .host import Host
from .link import DEFAULT_PROP_DELAY_NS, Link
from .pool import ACK_BYTES, DEFAULT_MSS, HEADER_BYTES
from .port import OutputPort
from .queues import DEFAULT_BUFFER_BYTES, DEFAULT_ECN_THRESHOLD
from .shared_buffer import SharedBufferSwitch
from .switch import Switch


@dataclass
class TopologyParams:
    """Knobs shared by all links/switches of a built topology."""

    link_rate_bps: int = GBPS
    prop_delay_ns: int = DEFAULT_PROP_DELAY_NS
    buffer_bytes: int = DEFAULT_BUFFER_BYTES
    ecn_threshold_bytes: Optional[int] = DEFAULT_ECN_THRESHOLD
    n_servers: int = 9
    n_leaf_switches: int = 2
    #: When set, every switch becomes a :class:`SharedBufferSwitch` with a
    #: dynamically shared pool of this many bytes (``buffer_bytes`` then
    #: caps each individual port's share).
    shared_pool_bytes: Optional[int] = None
    #: Dumbbell: number of sender/receiver pairs across the trunk.
    n_pairs: int = 4
    #: Dumbbell: per-pair access-leg propagation delays, cycled when there
    #: are more pairs than entries; ``()`` keeps every leg at
    #: ``prop_delay_ns`` (homogeneous RTTs).  A tuple, so the params stay
    #: hashable for :class:`~repro.exec.ScenarioSpec` overrides.
    leg_delays_ns: Tuple[int, ...] = ()
    #: Fat-tree: arity (must be even; k pods, (k/2)² cores, k²·h/2 hosts).
    fat_tree_k: int = 4
    #: Fat-tree: hosts per edge switch (``None`` → the canonical k/2).
    hosts_per_edge: Optional[int] = None
    #: Fat-tree ECMP granularity: ``"flow"`` pins each flow to one path
    #: (order-preserving), ``"packet"`` sprays per packet (reordering-prone;
    #: the receiver's reassembly buffer absorbs it).
    ecmp_mode: str = "flow"


def _make_switch(sim: Simulator, name: str, params: "TopologyParams") -> Switch:
    if params.shared_pool_bytes is not None:
        return SharedBufferSwitch(
            sim,
            name,
            shared_pool_bytes=params.shared_pool_bytes,
            per_port_cap_bytes=params.buffer_bytes,
            ecn_threshold_bytes=params.ecn_threshold_bytes,
        )
    return Switch(sim, name, params.buffer_bytes, params.ecn_threshold_bytes)


@dataclass
class TwoTierTree:
    """The built testbed: handles to every node plus convenience queries."""

    sim: Simulator
    params: TopologyParams
    root: Switch
    leaves: List[Switch]
    aggregator: Host
    servers: List[Host]
    #: Root-switch egress port toward the aggregator — the incast bottleneck
    #: (the queue sampled in Fig. 9 / Fig. 14).
    bottleneck_port: OutputPort
    server_leaf: List[int] = field(default_factory=list)

    def hops_between(self, a: Host, b: Host) -> int:
        """Number of links on the path from host ``a`` to host ``b``."""
        if a is b:
            return 0
        hops_a = 1 if a is self.aggregator else 2  # to root
        hops_b = 1 if b is self.aggregator else 2
        if a is not self.aggregator and b is not self.aggregator:
            ia = self.servers.index(a)
            ib = self.servers.index(b)
            if self.server_leaf[ia] == self.server_leaf[ib]:
                return 2  # up to the shared leaf and back down
        return hops_a + hops_b

    def baseline_rtt_ns(self, payload_bytes: int = DEFAULT_MSS) -> int:
        """Unloaded data+ACK round trip between a server and the aggregator.

        Counts propagation and store-and-forward serialization on every hop
        for a full data segment one way and a pure ACK back.  This is the
        quantity the paper recommends for DCTCP+'s ``backoff_time_unit``.
        """
        hops = self.hops_between(self.servers[0], self.aggregator)
        rate = self.params.link_rate_bps
        data_ser = transmission_time_ns(payload_bytes + HEADER_BYTES, rate)
        ack_ser = transmission_time_ns(ACK_BYTES, rate)
        one_way_prop = hops * self.params.prop_delay_ns
        return 2 * one_way_prop + hops * (data_ser + ack_ser)

    @property
    def pipeline_capacity_bytes(self) -> float:
        """The paper's ``C × D + B`` for the bottleneck port."""
        c_times_d = self.params.link_rate_bps / 8 * (self.baseline_rtt_ns() / 1e9)
        return c_times_d + self.params.buffer_bytes

    @property
    def all_hosts(self) -> List[Host]:
        return [self.aggregator, *self.servers]


def _attach_host(
    sim: Simulator,
    switch: Switch,
    host: Host,
    params: TopologyParams,
    prop_delay_ns: Optional[int] = None,
) -> OutputPort:
    """Wire ``host`` to ``switch`` with a full-duplex cable; return the
    switch-side egress port toward the host.  ``prop_delay_ns`` overrides
    the shared delay for this one cable (heterogeneous dumbbell legs)."""
    delay = params.prop_delay_ns if prop_delay_ns is None else prop_delay_ns
    up = Link(switch, params.link_rate_bps, delay)
    host.attach_link(up)
    down = Link(host, params.link_rate_bps, delay)
    port = switch.add_port(down, name=f"{switch.name}->{host.name}")
    switch.add_route(host.node_id, port)
    return port


def _connect_switches(a: Switch, b: Switch, params: TopologyParams) -> tuple:
    """Full-duplex cable between two switches; returns (a->b, b->a) ports."""
    ab = a.add_port(Link(b, params.link_rate_bps, params.prop_delay_ns), name=f"{a.name}->{b.name}")
    ba = b.add_port(Link(a, params.link_rate_bps, params.prop_delay_ns), name=f"{b.name}->{a.name}")
    return ab, ba


def build_two_tier(sim: Simulator, params: Optional[TopologyParams] = None) -> TwoTierTree:
    """Build the paper's 2-tier testbed tree.

    Layout (defaults): 1 aggregator on the root switch; 9 servers spread
    round-robin across 2 leaf switches.
    """
    params = params or TopologyParams()
    if params.n_servers < 1:
        raise ValueError("need at least one server")
    if params.n_leaf_switches < 1:
        raise ValueError("need at least one leaf switch")

    root = _make_switch(sim, "switch1", params)
    leaves = [_make_switch(sim, f"switch{i + 2}", params) for i in range(params.n_leaf_switches)]
    aggregator = Host(sim, "aggregator")
    bottleneck_port = _attach_host(sim, root, aggregator, params)

    root_to_leaf = []
    leaf_to_root = []
    for leaf in leaves:
        down_port, up_port = _connect_switches(root, leaf, params)
        root_to_leaf.append(down_port)
        leaf_to_root.append(up_port)

    servers: List[Host] = []
    server_leaf: List[int] = []
    for i in range(params.n_servers):
        leaf_idx = i % params.n_leaf_switches
        server = Host(sim, f"server{i + 1}")
        _attach_host(sim, leaves[leaf_idx], server, params)
        servers.append(server)
        server_leaf.append(leaf_idx)
        # Root forwards traffic for this server down the right leaf uplink.
        root.add_route(server.node_id, root_to_leaf[leaf_idx])

    # Leaf switches: anything not local goes up to the root.
    for leaf_idx, leaf in enumerate(leaves):
        leaf.add_route(aggregator.node_id, leaf_to_root[leaf_idx])
        for i, server in enumerate(servers):
            if server_leaf[i] != leaf_idx:
                leaf.add_route(server.node_id, leaf_to_root[leaf_idx])

    return TwoTierTree(
        sim=sim,
        params=params,
        root=root,
        leaves=leaves,
        aggregator=aggregator,
        servers=servers,
        bottleneck_port=bottleneck_port,
        server_leaf=server_leaf,
    )


def build_star(
    sim: Simulator,
    n_senders: int = 2,
    params: Optional[TopologyParams] = None,
) -> TwoTierTree:
    """Single-switch star used by unit tests: N senders, one receiver.

    Returned as a :class:`TwoTierTree` with zero leaf switches collapsed
    into direct root attachment, so test code can reuse the same accessors
    (``aggregator``, ``servers``, ``bottleneck_port``).  (This used to be
    called ``build_dumbbell``; that name now builds a real two-switch
    dumbbell.)
    """
    params = params or TopologyParams()
    root = _make_switch(sim, "switch1", params)
    aggregator = Host(sim, "receiver")
    bottleneck_port = _attach_host(sim, root, aggregator, params)
    servers = []
    for i in range(n_senders):
        server = Host(sim, f"sender{i + 1}")
        _attach_host(sim, root, server, params)
        servers.append(server)
    tree = TwoTierTree(
        sim=sim,
        params=params,
        root=root,
        leaves=[],
        aggregator=aggregator,
        servers=servers,
        bottleneck_port=bottleneck_port,
        server_leaf=[0] * n_senders,
    )
    # Direct attachment: one hop each way.
    tree.hops_between = lambda a, b: 0 if a is b else 2  # type: ignore[method-assign]
    return tree


def _uniform_rtt_ns(params: TopologyParams, hops: int, payload_bytes: int) -> int:
    """Unloaded data+ACK RTT over ``hops`` homogeneous store-and-forward
    links (the same accounting :meth:`TwoTierTree.baseline_rtt_ns` does)."""
    rate = params.link_rate_bps
    data_ser = transmission_time_ns(payload_bytes + HEADER_BYTES, rate)
    ack_ser = transmission_time_ns(ACK_BYTES, rate)
    one_way_prop = hops * params.prop_delay_ns
    return 2 * one_way_prop + hops * (data_ser + ack_ser)


# -- dumbbell ----------------------------------------------------------------------
@dataclass
class DumbbellNetwork:
    """N sender/receiver pairs across one shared bottleneck trunk.

    Pair *i*'s sender hangs off the left switch and its receiver off the
    right switch; both access legs of a pair share ``leg_delays_ns[i]``, so
    pairs can be given deliberately unequal RTTs.  The trunk (left→right)
    is the shared bottleneck every forward-direction flow crosses.

    The workload-facing surface matches :class:`TwoTierTree`: ``servers``
    are the senders and the ``aggregator`` is pair 0's receiver, so the
    incast/HTTP/swarm workloads drive a dumbbell unchanged.
    """

    sim: Simulator
    params: TopologyParams
    left: Switch
    right: Switch
    senders: List[Host]
    receivers: List[Host]
    #: Left-switch egress port onto the trunk — the shared bottleneck.
    bottleneck_port: OutputPort
    #: Right-switch egress onto the trunk (ACKs and reverse traffic).
    reverse_port: OutputPort
    #: Effective per-pair access-leg propagation delay.
    leg_delays_ns: List[int] = field(default_factory=list)

    @property
    def servers(self) -> List[Host]:  # type: ignore[no-redef]
        return self.senders

    @property
    def aggregator(self) -> Host:
        return self.receivers[0]

    @property
    def all_hosts(self) -> List[Host]:
        return [*self.receivers, *self.senders]

    def hops_between(self, a: Host, b: Host) -> int:
        if a is b:
            return 0
        a_left = a in self.senders
        b_left = b in self.senders
        return 2 if a_left == b_left else 3

    def baseline_rtt_ns(self, payload_bytes: int = DEFAULT_MSS) -> int:
        """Unloaded data+ACK RTT between pair 0's endpoints (3 hops)."""
        rate = self.params.link_rate_bps
        data_ser = transmission_time_ns(payload_bytes + HEADER_BYTES, rate)
        ack_ser = transmission_time_ns(ACK_BYTES, rate)
        one_way_prop = 2 * self.leg_delays_ns[0] + self.params.prop_delay_ns
        return 2 * one_way_prop + 3 * (data_ser + ack_ser)


def build_dumbbell(
    sim: Simulator, params: Optional[TopologyParams] = None
) -> DumbbellNetwork:
    """Build a parameterized dumbbell: ``params.n_pairs`` sender/receiver
    pairs across one shared trunk.

    ``params.leg_delays_ns`` assigns per-pair access-leg delays (cycled
    when shorter than ``n_pairs``), modelling heterogeneous RTTs competing
    for the same bottleneck; the trunk itself keeps ``prop_delay_ns``.
    """
    params = params or TopologyParams()
    n = params.n_pairs
    if n < 1:
        raise ValueError("need at least one sender/receiver pair")
    legs = params.leg_delays_ns or (params.prop_delay_ns,)
    leg_delays = [int(legs[i % len(legs)]) for i in range(n)]
    if any(d < 0 for d in leg_delays):
        raise ValueError(f"leg delays must be >= 0, got {leg_delays}")

    left = _make_switch(sim, "left", params)
    right = _make_switch(sim, "right", params)
    bottleneck_port, reverse_port = _connect_switches(left, right, params)

    receivers: List[Host] = []
    senders: List[Host] = []
    for i in range(n):
        receiver = Host(sim, f"receiver{i + 1}")
        _attach_host(sim, right, receiver, params, prop_delay_ns=leg_delays[i])
        receivers.append(receiver)
        left.add_route(receiver.node_id, bottleneck_port)
    for i in range(n):
        sender = Host(sim, f"sender{i + 1}")
        _attach_host(sim, left, sender, params, prop_delay_ns=leg_delays[i])
        senders.append(sender)
        right.add_route(sender.node_id, reverse_port)

    return DumbbellNetwork(
        sim=sim,
        params=params,
        left=left,
        right=right,
        senders=senders,
        receivers=receivers,
        bottleneck_port=bottleneck_port,
        reverse_port=reverse_port,
        leg_delays_ns=leg_delays,
    )


# -- fat-tree ----------------------------------------------------------------------
@dataclass
class FatTreeNetwork:
    """A k-ary fat-tree: k pods × (k/2 edge + k/2 agg) over (k/2)² cores.

    Core group *a* (cores ``a·k/2 … a·k/2+k/2-1``) connects to aggregation
    switch *a* of every pod, the canonical wiring that gives every
    inter-pod host pair (k/2)² equal-cost paths and every intra-pod pair
    k/2.  Upward forwarding uses seeded deterministic ECMP; downward
    routes are unique.

    The workload surface matches :class:`TwoTierTree`: host 0 plays the
    ``aggregator`` (its edge-switch egress port is the ``bottleneck_port``
    incast converges on) and every other host is a server.
    """

    sim: Simulator
    params: TopologyParams
    k: int
    cores: List[Switch]
    aggs: List[List[Switch]]  # [pod][index]
    edges: List[List[Switch]]  # [pod][index]
    hosts: List[Host]
    host_pod: List[int]
    host_edge: List[int]
    #: Edge egress port toward host 0 — the incast bottleneck.
    bottleneck_port: OutputPort

    @property
    def aggregator(self) -> Host:
        return self.hosts[0]

    @property
    def servers(self) -> List[Host]:
        return self.hosts[1:]

    @property
    def all_hosts(self) -> List[Host]:
        return list(self.hosts)

    def hops_between(self, a: Host, b: Host) -> int:
        if a is b:
            return 0
        ia = self.hosts.index(a)
        ib = self.hosts.index(b)
        if self.host_pod[ia] != self.host_pod[ib]:
            return 6  # host-edge-agg-core-agg-edge-host
        if self.host_edge[ia] != self.host_edge[ib]:
            return 4  # host-edge-agg-edge-host
        return 2  # same edge switch

    def baseline_rtt_ns(self, payload_bytes: int = DEFAULT_MSS) -> int:
        hops = self.hops_between(self.servers[0], self.aggregator)
        return _uniform_rtt_ns(self.params, hops, payload_bytes)


def build_fat_tree(
    sim: Simulator, params: Optional[TopologyParams] = None
) -> FatTreeNetwork:
    """Build a k-ary fat-tree with deterministic ECMP.

    ``params.fat_tree_k`` must be even; ``params.hosts_per_edge`` defaults
    to the canonical k/2 (a full fat-tree has k³/4 hosts).  Every switch's
    ECMP hash is salted from a named simulator stream, so path assignment
    is a pure function of the scenario seed — identical across processes,
    serial/parallel executors and the native event core.
    """
    params = params or TopologyParams()
    k = params.fat_tree_k
    if k < 2 or k % 2:
        raise ValueError(f"fat-tree arity must be even and >= 2, got {k}")
    if params.ecmp_mode not in ("flow", "packet"):
        raise ValueError(f"ecmp_mode must be 'flow' or 'packet', got {params.ecmp_mode!r}")
    half = k // 2
    hosts_per_edge = params.hosts_per_edge if params.hosts_per_edge is not None else half
    if hosts_per_edge < 1:
        raise ValueError("need at least one host per edge switch")
    per_packet = params.ecmp_mode == "packet"

    cores = [
        _make_switch(sim, f"core{g}-{c}", params) for g in range(half) for c in range(half)
    ]
    aggs: List[List[Switch]] = []
    edges: List[List[Switch]] = []
    for p in range(k):
        aggs.append([_make_switch(sim, f"pod{p}-agg{a}", params) for a in range(half)])
        edges.append([_make_switch(sim, f"pod{p}-edge{e}", params) for e in range(half)])

    hosts: List[Host] = []
    host_pod: List[int] = []
    host_edge: List[int] = []
    host_port: List[OutputPort] = []  # edge egress toward each host
    for p in range(k):
        for e in range(half):
            for _ in range(hosts_per_edge):
                host = Host(sim, f"host{len(hosts) + 1}")
                port = _attach_host(sim, edges[p][e], host, params)
                hosts.append(host)
                host_pod.append(p)
                host_edge.append(e)
                host_port.append(port)

    # Full-duplex fabric cables.  edge_up[p][e][a]: edge (p,e) toward agg a;
    # agg_down[p][a][e]: agg (p,a) toward edge e; agg_up[p][a][c]: agg (p,a)
    # toward its c-th core; core_down[g*half+c][p]: that core toward pod p.
    edge_up = [[[None] * half for _ in range(half)] for _ in range(k)]
    agg_down = [[[None] * half for _ in range(half)] for _ in range(k)]
    agg_up = [[[None] * half for _ in range(half)] for _ in range(k)]
    core_down = [[None] * k for _ in range(half * half)]
    for p in range(k):
        for e in range(half):
            for a in range(half):
                up, down = _connect_switches(edges[p][e], aggs[p][a], params)
                edge_up[p][e][a] = up
                agg_down[p][a][e] = down
    for p in range(k):
        for a in range(half):
            for c in range(half):
                core = a * half + c
                up, down = _connect_switches(aggs[p][a], cores[core], params)
                agg_up[p][a][c] = up
                core_down[core][p] = down

    # Routing.  Downward paths are unique; upward forwarding fans over the
    # equal-cost uplinks with a per-switch salted hash.
    def _salt(switch: Switch) -> int:
        return sim.stream(f"ecmp/{switch.name}").getrandbits(64)

    edge_salts = [[_salt(edges[p][e]) for e in range(half)] for p in range(k)]
    agg_salts = [[_salt(aggs[p][a]) for a in range(half)] for p in range(k)]
    for h, host in enumerate(hosts):
        hp, he = host_pod[h], host_edge[h]
        for p in range(k):
            for e in range(half):
                if (p, e) == (hp, he):
                    continue  # local hosts got their direct route in _attach_host
                edges[p][e].add_ecmp_group(
                    host.node_id, edge_up[p][e], edge_salts[p][e], per_packet
                )
            for a in range(half):
                if p == hp:
                    aggs[p][a].add_route(host.node_id, agg_down[p][a][he])
                else:
                    aggs[p][a].add_ecmp_group(
                        host.node_id, agg_up[p][a], agg_salts[p][a], per_packet
                    )
        for core in range(half * half):
            cores[core].add_route(host.node_id, core_down[core][hp])

    return FatTreeNetwork(
        sim=sim,
        params=params,
        k=k,
        cores=cores,
        aggs=aggs,
        edges=edges,
        hosts=hosts,
        host_pod=host_pod,
        host_edge=host_edge,
        bottleneck_port=host_port[0],
    )


#: Any built network object (they share the workload-facing surface).
Network = Union[TwoTierTree, DumbbellNetwork, FatTreeNetwork]


# -- structural validation ---------------------------------------------------------
class WiringError(AssertionError):
    """A built topology violates a structural invariant."""


def _discover_switches(hosts: List[Host]) -> List:
    """Every switch reachable from the hosts' access links (BFS)."""
    seen: List = []
    frontier = []
    for host in hosts:
        if host.nic is None:
            raise WiringError(f"host {host.name!r} has no access link")
        frontier.append(host.nic.link.dst)
    host_set = {id(h) for h in hosts}
    while frontier:
        node = frontier.pop()
        if id(node) in host_set or any(node is s for s in seen):
            continue
        seen.append(node)
        for port in node.ports:
            nxt = port.link.dst
            if id(nxt) not in host_set:
                frontier.append(nxt)
    return seen


def _check_cables(hosts: List[Host], switches: List) -> None:
    """Every cable must exist in both directions with matching rate/delay."""
    for host in hosts:
        up = host.nic.link
        switch = up.dst
        if not hasattr(switch, "ports"):
            raise WiringError(f"host {host.name!r} uplinks to a non-switch {switch!r}")
        down = [p.link for p in switch.ports if p.link.dst is host]
        if len(down) != 1:
            raise WiringError(
                f"host {host.name!r}: expected exactly one return link from "
                f"{switch.name!r}, found {len(down)}"
            )
        if (down[0].rate_bps, down[0].prop_delay_ns) != (up.rate_bps, up.prop_delay_ns):
            raise WiringError(
                f"host {host.name!r}: asymmetric access cable "
                f"({up.rate_bps}bps/{up.prop_delay_ns}ns up vs "
                f"{down[0].rate_bps}bps/{down[0].prop_delay_ns}ns down)"
            )
    for switch in switches:
        for port in switch.ports:
            link = port.link
            peer = link.dst
            if not hasattr(peer, "ports"):
                continue  # switch->host legs are covered above
            back = [
                p.link
                for p in peer.ports
                if p.link.dst is switch
                and (p.link.rate_bps, p.link.prop_delay_ns)
                == (link.rate_bps, link.prop_delay_ns)
            ]
            if not back:
                raise WiringError(
                    f"no matching return link for cable "
                    f"{switch.name!r}->{peer.name!r}"
                )


def _path_lengths(switch, dst: Host, hop_limit: int, on_path: Tuple[int, ...]) -> List[int]:
    """Lengths of every route-table path from ``switch`` to host ``dst``."""
    if len(on_path) > hop_limit:
        raise WiringError(
            f"path to {dst.name!r} exceeds {hop_limit} switch hops (routing loop?)"
        )
    candidates = None
    ecmp = getattr(switch, "ecmp_candidates", None)
    if ecmp is not None:
        candidates = ecmp(dst.node_id)
    if candidates is None:
        port = switch.route_for(dst.node_id)
        if port is None:
            raise WiringError(f"switch {switch.name!r} has no route toward {dst.name!r}")
        candidates = (port,)
    lengths: List[int] = []
    for port in candidates:
        nxt = port.link.dst
        if nxt is dst:
            lengths.append(1)
        elif hasattr(nxt, "ports"):
            if id(nxt) in on_path:
                raise WiringError(
                    f"routing loop through {nxt.name!r} toward {dst.name!r}"
                )
            lengths.extend(
                1 + n
                for n in _path_lengths(nxt, dst, hop_limit, on_path + (id(nxt),))
            )
        else:
            raise WiringError(
                f"switch {switch.name!r} forwards traffic for {dst.name!r} "
                f"to the wrong host {nxt.name!r}"
            )
    return lengths


def check_wiring(net: Network, hop_limit: int = 16) -> None:
    """Assert the structural invariants of a built network.

    - every cable is bidirectional and rate/delay-consistent;
    - every host's traffic to every other host terminates at that host
      (all-pairs reachability, no misdelivery, no routing loops);
    - along the way, every ECMP candidate set is *truly* equal cost: all
      alternative paths for an (src, dst) pair have the same hop count.

    Raises :class:`WiringError` on the first violation.  Purely passive
    (schedules no events, draws no randomness), so running it never
    perturbs simulation results.
    """
    hosts = list(net.all_hosts)
    if len(hosts) < 2:
        raise WiringError("a network needs at least two hosts")
    switches = _discover_switches(hosts)
    _check_cables(hosts, switches)
    for src in hosts:
        first = src.nic.link.dst
        for dst in hosts:
            if dst is src:
                continue
            lengths = _path_lengths(first, dst, hop_limit, (id(first),))
            if len(set(lengths)) != 1:
                raise WiringError(
                    f"unequal-cost paths from {src.name!r} to {dst.name!r}: "
                    f"hop counts {sorted(set(lengths))}"
                )


#: Spec-level topology names -> builders (all share the ``(sim, params)``
#: signature and the workload-facing network surface).
TOPOLOGIES: Dict[str, Callable[..., Network]] = {
    "two-tier": build_two_tier,
    "dumbbell": build_dumbbell,
    "fat-tree": build_fat_tree,
}


def topology_names() -> List[str]:
    """Registered topology names, in registry order."""
    return list(TOPOLOGIES)


def topology_builder(name: str) -> Callable[..., Network]:
    """Resolve a spec-level topology name to its builder."""
    try:
        return TOPOLOGIES[name]
    except KeyError:
        raise ValueError(
            f"unknown topology {name!r}; choose from {topology_names()}"
        ) from None
