"""TCP receiver: in-order reassembly, cumulative ACKs, per-packet ECN echo.

The receiver ACKs every data segment immediately (no delayed ACKs).  With
per-packet ACKs the DCTCP ECN-echo state machine degenerates to "ECE in
the ACK = CE on the segment that triggered it", which is exactly what we
implement; the sender's marked-byte fraction estimate is then exact.

Duplicate segments (retransmissions of data already received) still
generate ACKs — those duplicates are what drive fast retransmit at the
sender.

Storage layout mirrors the sender: the per-segment counters (``rcv_nxt``,
``bytes_delivered``) live in the simulator's flow ledger and the receiver
keeps a slot plus compatibility properties.  ``on_packet`` consumes a
pooled handle, reads the columns it needs, and frees the handle before
doing any protocol work; ACKs are allocated straight from the pool.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from ..sim.engine import Simulator
from ..net.host import Host
from ..net.pool import F_ACK, F_CE, F_INC, PacketPool
from .flowstate import FlowLedger, ledger_field


class TcpReceiver:
    """Sink endpoint of one flow, attached to a host."""

    __slots__ = (
        "sim",
        "host",
        "peer_node_id",
        "flow_id",
        "_fl",
        "_slot",
        "_pool",
        "_host_send",
        "expected_bytes",
        "on_data",
        "on_complete",
        "_ooo",
        "_done",
        "_inc_echo",
        "data_packets_received",
        "duplicate_packets_received",
        "ce_packets_received",
        "reordered_packets",
        "closed",
    )

    rcv_nxt = ledger_field("rcv_nxt")
    bytes_delivered = ledger_field("bytes_delivered")

    def __init__(
        self,
        sim: Simulator,
        host: Host,
        peer_node_id: int,
        flow_id: int,
        expected_bytes: Optional[int] = None,
        on_data: Optional[Callable[[int], None]] = None,
        on_complete: Optional[Callable[["TcpReceiver"], None]] = None,
    ):
        self.sim = sim
        self.host = host
        self.peer_node_id = peer_node_id
        self.flow_id = flow_id
        fl = FlowLedger.of(sim)
        self._fl = fl
        self._slot = fl.register()
        self._pool = PacketPool.of(sim)
        # Transmit binding: straight to the NIC port's send when the
        # access link is already attached (skips Host.send's None check
        # and call frame per packet); hosts built link-less fall back to
        # Host.send, which raises the usual error if still detached.
        nic = host.nic
        self._host_send = nic.send if nic is not None else host.send
        self.expected_bytes = expected_bytes
        self.on_data = on_data
        self.on_complete = on_complete
        self._ooo: Dict[int, int] = {}  # seq -> end of buffered segment
        self._done = False
        self._inc_echo = False  # pending incast-onset echo (see repro.tcp.pulser)
        self.data_packets_received = 0
        self.duplicate_packets_received = 0
        self.ce_packets_received = 0
        # New data that arrived ahead of a gap (could not advance rcv_nxt):
        # the receiver-visible signature of multipath reordering — packet-
        # level ECMP spray lands here even with zero loss.
        self.reordered_packets = 0
        self.closed = False
        host.register_flow(flow_id, self)
        hooks = sim.hooks
        if hooks is not None:
            hooks.receiver_created(self)

    def expect(self, additional_bytes: int) -> None:
        """Raise the completion target (a new request on a persistent
        connection); ``on_complete`` will fire again at the new target."""
        if additional_bytes <= 0:
            raise ValueError(f"additional_bytes must be positive, got {additional_bytes}")
        if self.expected_bytes is None:
            self.expected_bytes = 0
        self.expected_bytes += additional_bytes
        self._done = False

    def on_packet(self, h: int) -> None:
        """Handle an arriving segment handle; emit the cumulative ACK."""
        pool = self._pool
        flags = pool.flags[h]
        if flags & F_ACK:  # stray ACK routed to the receiver side; ignore
            pool.free(h)
            return
        seq = pool.seq[h]
        end_seq = seq + pool.payload_len[h]
        pool.free(h)

        self.data_packets_received += 1
        if flags & F_CE:
            self.ce_packets_received += 1
        if flags & F_INC:
            self._inc_echo = True

        fl = self._fl
        slot = self._slot
        rcv_col = fl.rcv_nxt
        rcv_before = rcv_col[slot]
        if end_seq <= rcv_before:
            self.duplicate_packets_received += 1
            out_of_order = True
        elif seq == rcv_before and not self._ooo:
            # In order with nothing buffered (the common case): what
            # _buffer + _advance would do, without the reorder dict.
            rcv_col[slot] = end_seq
            delivered = end_seq - seq
            fl.bytes_delivered[slot] += delivered
            if self.on_data is not None:
                self.on_data(delivered)
            out_of_order = False
        else:
            self._buffer(seq, end_seq)
            self._advance()
            out_of_order = rcv_col[slot] == rcv_before
            if out_of_order:
                self.reordered_packets += 1
        # duplicate or out-of-order segments must be ACKed immediately
        # (RFC 5681); in-order segments go through the ACK policy, which
        # subclasses may delay.
        self._ack_policy(flags, out_of_order, rcv_before)

        if (
            not self._done
            and self.expected_bytes is not None
            and rcv_col[slot] >= self.expected_bytes
        ):
            self._done = True
            if self.on_complete is not None:
                self.on_complete(self)

    # -- ACK policy (overridden by DelayedAckReceiver) ----------------------------
    def _ack_policy(self, flags: int, out_of_order: bool, rcv_before: int) -> None:
        """Immediate per-packet cumulative ACK echoing the segment's CE.

        ``flags`` is the arriving segment's flag byte (the handle itself is
        already freed); ``rcv_before`` is the cumulative point before this
        segment was reassembled (delayed-ACK subclasses acknowledge up to
        it when a CE state change forces an early flush).
        """
        self._send_ack(ece=bool(flags & F_CE))

    # -- internals --------------------------------------------------------------
    def _buffer(self, seq: int, end: int) -> None:
        existing_end = self._ooo.get(seq)
        if existing_end is None or existing_end < end:
            self._ooo[seq] = end

    def _advance(self) -> None:
        """Pull contiguous segments out of the reorder buffer."""
        fl = self._fl
        slot = self._slot
        rcv_col = fl.rcv_nxt
        before = rcv_col[slot]
        rcv_nxt = before
        ooo = self._ooo
        moved = True
        while moved:
            moved = False
            end = ooo.pop(rcv_nxt, None)
            if end is not None:
                if end > rcv_nxt:
                    rcv_nxt = end
                moved = True
            else:
                # A retransmission after a partial overlap can start below
                # rcv_nxt but extend past it; scan for such a segment.
                for seq, seg_end in ooo.items():
                    if seq <= rcv_nxt < seg_end:
                        del ooo[seq]
                        rcv_nxt = seg_end
                        moved = True
                        break
        rcv_col[slot] = rcv_nxt
        delivered = rcv_nxt - before
        if delivered > 0:
            fl.bytes_delivered[slot] += delivered
            if self.on_data is not None:
                self.on_data(delivered)
        # Drop any stale buffered segments fully below rcv_nxt.
        if ooo:
            stale = [s for s, e in ooo.items() if e <= rcv_nxt]
            for s in stale:
                del ooo[s]

    def _send_ack(self, ece: bool, ack_seq: Optional[int] = None) -> None:
        inc = self._inc_echo
        if inc:
            # The onset signal rides the next ACK out, whatever kind it is
            # (immediate, delayed, duplicate), then is consumed.
            self._inc_echo = False
        h = self._pool.alloc_ack(
            self.flow_id,
            self.host.node_id,
            self.peer_node_id,
            self._fl.rcv_nxt[self._slot] if ack_seq is None else ack_seq,
            ece,
            inc,
        )
        self._host_send(h)

    @property
    def complete(self) -> bool:
        return self._done

    def close(self) -> None:
        """Detach from the host (end of the flow's lifetime)."""
        if not self.closed:
            self.host.unregister_flow(self.flow_id)
            self.closed = True
            # No packet reaches a detached receiver, so neither callback
            # can fire again; dropping them (bound methods of the workload
            # that lists this receiver) leaves it to reference counting.
            self.on_data = None
            self.on_complete = None
