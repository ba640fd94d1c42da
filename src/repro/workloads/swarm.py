"""Many-to-many swarm workload: every host both serves and fetches.

Each participating peer runs a closed fetch loop: pick another peer
(uniformly, from a per-peer named simulator stream), fetch one fixed-size
piece from it, then immediately pick again — so every host is
simultaneously a server for others and a client of others, and traffic
crosses the fabric in all directions at once.  On a fat-tree this
exercises many ECMP groups simultaneously; on a dumbbell it loads the
trunk both ways.

Transfers reuse persistent per-(source, fetcher) TCP pairs, created
lazily on first use — TCP state (cwnd, RTT estimate, DCTCP alpha) carries
across repeated fetches over the same pair, like the other closed-loop
workloads.  Every piece fetch is recorded as a
:class:`~repro.workloads.base.RoundResult`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from ..net.pool import PacketPool
from ..sim.engine import Simulator
from ..sim.units import KB, SEC
from ..tcp.receiver import TcpReceiver
from .base import ClosedLoopWorkload, RoundResult
from .ids import next_flow_id
from .incast import _RequestListener
from .protocols import ProtocolSpec


@dataclass
class SwarmConfig:
    """Parameters of one swarm run."""

    #: Peers taking part (clamped to the topology's host count; a swarm
    #: needs at least two).
    n_peers: int
    #: Pieces each peer fetches before its loop ends.
    n_pieces: int = 8
    piece_bytes: int = 256 * KB
    request_bytes: int = 64
    #: Per-fetch give-up guard: a peer whose fetch exceeds this stops
    #: fetching (the piece is recorded as failed) instead of hanging.
    fetch_deadline_ns: int = 60 * SEC

    def __post_init__(self) -> None:
        if self.n_peers < 2:
            raise ValueError("a swarm needs at least two peers")
        if self.n_pieces < 1:
            raise ValueError("need at least one piece per peer")
        if self.piece_bytes < 1:
            raise ValueError("pieces must be at least one byte")


class _Pair:
    """Persistent one-directional transfer channel: source -> fetcher."""

    __slots__ = ("sender", "receiver", "ctrl_id", "src_host")

    def __init__(self, sender, receiver, ctrl_id, src_host):
        self.sender = sender
        self.receiver = receiver
        self.ctrl_id = ctrl_id
        self.src_host = src_host


class _Peer:
    """Per-peer fetch-loop state."""

    __slots__ = (
        "index",
        "host",
        "rng",
        "pieces_done",
        "gave_up",
        "fetch_start_ns",
        "bytes_at_start",
        "timeouts_at_start",
        "deadline_event",
        "pair",
    )

    def __init__(self, index, host, rng):
        self.index = index
        self.host = host
        self.rng = rng
        self.pieces_done = 0
        self.gave_up = False
        self.fetch_start_ns = 0
        self.bytes_at_start = 0
        self.timeouts_at_start = 0
        self.deadline_event = None
        self.pair = None


class SwarmWorkload(ClosedLoopWorkload):
    """Drives ``n_peers`` concurrent many-to-many fetch loops."""

    def __init__(
        self,
        sim: Simulator,
        tree,
        spec: ProtocolSpec,
        config: SwarmConfig,
    ):
        super().__init__(sim, tree, spec)
        self.config = config
        hosts = tree.all_hosts
        if len(hosts) < 2:
            raise ValueError("a swarm needs a topology with at least two hosts")
        n = min(config.n_peers, len(hosts))
        self.peers: List[_Peer] = [
            _Peer(i, hosts[i], sim.stream(f"swarm/peer/{i}")) for i in range(n)
        ]
        # (source index, fetcher index) -> persistent transfer pair,
        # created lazily the first time that direction is used.
        self._pairs: Dict[Tuple[int, int], _Pair] = {}

    # -- pair management -------------------------------------------------------
    def _pair_for(self, src: _Peer, fetcher: _Peer) -> _Pair:
        key = (src.index, fetcher.index)
        pair = self._pairs.get(key)
        if pair is not None:
            return pair
        sim = self.sim
        flow_id = next_flow_id()
        ctrl_id = next_flow_id()
        receiver = TcpReceiver(
            sim,
            fetcher.host,
            src.host.node_id,
            flow_id,
            expected_bytes=0,
            on_complete=self._make_on_piece(fetcher),
        )
        sender = self.spec.make_sender(sim, src.host, fetcher.host.node_id, flow_id)
        piece = self.config.piece_bytes

        def _serve() -> None:
            sender.send(piece)

        listener = _RequestListener(_serve, PacketPool.of(sim))
        src.host.register_flow(ctrl_id, listener)
        self._ctrl.append((src.host, ctrl_id))
        self.senders.append(sender)
        self.receivers.append(receiver)
        pair = _Pair(sender, receiver, ctrl_id, src.host)
        self._pairs[key] = pair
        return pair

    def _make_on_piece(self, fetcher: _Peer):
        def _on_piece(_receiver) -> None:
            self._on_piece(fetcher)

        return _on_piece

    # -- the fetch loop --------------------------------------------------------
    def _begin(self) -> None:
        self._live = len(self.peers)
        for peer in self.peers:
            self._fetch(peer)

    def _pick_source(self, fetcher: _Peer) -> _Peer:
        n = len(self.peers)
        other = fetcher.rng.randrange(n - 1)
        if other >= fetcher.index:
            other += 1
        return self.peers[other]

    def _fetch(self, fetcher: _Peer) -> None:
        sim = self.sim
        cfg = self.config
        src = self._pick_source(fetcher)
        pair = self._pair_for(src, fetcher)
        fetcher.pair = pair
        fetcher.fetch_start_ns = sim.now
        fetcher.bytes_at_start = pair.receiver.bytes_delivered
        fetcher.timeouts_at_start = pair.sender.stats.timeout_count
        pair.receiver.expect(cfg.piece_bytes)
        request = PacketPool.of(sim).alloc_control(
            pair.ctrl_id,
            fetcher.host.node_id,
            src.host.node_id,
            cfg.request_bytes,
        )
        fetcher.host.send(request)
        fetcher.deadline_event = sim.schedule(
            cfg.fetch_deadline_ns, self._on_giveup, fetcher
        )

    def _record(self, fetcher: _Peer, completed: bool) -> None:
        pair = fetcher.pair
        self.rounds.append(
            RoundResult(
                index=len(self.rounds),
                start_ns=fetcher.fetch_start_ns,
                duration_ns=self.sim.now - fetcher.fetch_start_ns,
                bytes_received=pair.receiver.bytes_delivered - fetcher.bytes_at_start,
                timeouts=pair.sender.stats.timeout_count - fetcher.timeouts_at_start,
                completed=completed,
            )
        )

    def _on_piece(self, fetcher: _Peer) -> None:
        if fetcher.gave_up:
            return  # a piece that limped in after the give-up guard
        sim = self.sim
        if fetcher.deadline_event is not None:
            sim.cancel(fetcher.deadline_event)
            fetcher.deadline_event = None
        self._record(fetcher, completed=True)
        fetcher.pieces_done += 1
        if fetcher.pieces_done >= self.config.n_pieces:
            self._loop_done()
            return
        self._fetch(fetcher)

    def _on_giveup(self, fetcher: _Peer) -> None:
        fetcher.deadline_event = None
        fetcher.gave_up = True
        self._record(fetcher, completed=False)
        self._loop_done()
