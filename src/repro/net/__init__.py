"""Network substrate: the packet pool, links, queues, switches, hosts, topologies."""

from .faults import FaultyLink, drop_data_once, drop_nth, make_lossy, random_loss
from .host import Host
from .link import Link
from .node import Node
from .pool import ACK_BYTES, DEFAULT_MSS, HEADER_BYTES
from .port import OutputPort
from .queues import DEFAULT_BUFFER_BYTES, DEFAULT_ECN_THRESHOLD, DropTailQueue
from .shared_buffer import SharedBufferSwitch
from .switch import Switch
from .topology import (
    TOPOLOGIES,
    DumbbellNetwork,
    FatTreeNetwork,
    TopologyParams,
    TwoTierTree,
    WiringError,
    build_dumbbell,
    build_fat_tree,
    build_star,
    build_two_tier,
    check_wiring,
    topology_builder,
    topology_names,
)

__all__ = [
    "Host",
    "Link",
    "Node",
    "ACK_BYTES",
    "DEFAULT_MSS",
    "HEADER_BYTES",
    "OutputPort",
    "DropTailQueue",
    "DEFAULT_BUFFER_BYTES",
    "DEFAULT_ECN_THRESHOLD",
    "Switch",
    "SharedBufferSwitch",
    "FaultyLink",
    "random_loss",
    "drop_nth",
    "drop_data_once",
    "make_lossy",
    "TopologyParams",
    "TwoTierTree",
    "DumbbellNetwork",
    "FatTreeNetwork",
    "WiringError",
    "build_dumbbell",
    "build_fat_tree",
    "build_star",
    "build_two_tier",
    "check_wiring",
    "topology_builder",
    "topology_names",
    "TOPOLOGIES",
]
