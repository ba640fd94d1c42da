"""TCP New Reno sender.

Implements the classic loss-based stack the paper uses as its "TCP"
baseline, and serves as the base class for DCTCP and DCTCP+:

- slow start / congestion avoidance (RFC 5681, byte-counted with Linux's
  integer-stepped window growth so cwnd holds steady values like 2 MSS),
- fast retransmit after 3 duplicate ACKs, NewReno fast recovery with
  partial-ACK retransmission (RFC 6582),
- RFC 6298 retransmission timer with exponential backoff and go-back-N on
  expiry,
- Karn's algorithm for RTT sampling,
- timeout classification (FLoss-TO / LAck-TO) for Table I,
- per-transmission ``(cwnd, ECE)`` snapshots for Fig. 2 / Table I,
- an optional pacing gate (used by DCTCP+'s slow_time regulation).

Storage layout: the counters touched per segment (cwnd, ssthresh,
snd_una, snd_nxt, dupacks, the CA byte accumulator) live in the
simulator-owned :class:`~repro.tcp.flowstate.FlowLedger` columns; the
sender holds a slot into them plus compatibility properties, and the hot
methods (`_on_ack` and everything it calls) index the columns directly
with locals — no property dispatch, no repeated attribute chains.
Packets are pooled handles (:mod:`repro.net.pool`); the sender frees the
ACK handle as soon as its fields are read.

Congestion-control surface
--------------------------
Strategies hook in through the typed :class:`~repro.tcp.events.CCEvent`
protocol (see :mod:`repro.tcp.events`):

``on_ack(ev)``               window growth + (in DCTCP) marking bookkeeping
``on_ecn_echo(ev)``          feedback echoes (per-ACK, and the INC bit)
``on_rto(ev)``               reaction to an expired RTO
``on_send_opportunity(ev)``  pacing gate (consulted only with a pacer)
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Protocol

from ..net.host import Host
from ..net.pool import F_ACK, F_ECE, F_INC, PacketPool
from ..sim.engine import Simulator
from .config import TcpConfig
from .events import CC_ACK, CC_ACK_ECHO, CC_INC_ECHO, CC_RTO, CC_SEND, CCEvent
from .flowstate import FlowLedger, ledger_field
from .flowstats import FlowStats
from .rtt import RttEstimator
from .timeouts import classify_timeout


class Pacer(Protocol):
    """Transmission gate; DCTCP+ plugs its slow_time regulation in here."""

    def next_send_time(self, now: int) -> int: ...
    def on_sent(self, now: int) -> None: ...


class TcpSender:
    """Source endpoint of one flow (a thin view over the flow ledger)."""

    # Per-segment counters live in the FlowLedger; these properties keep
    # attribute-style access working for subclasses, the invariant
    # checker, metrics and tests.
    cwnd = ledger_field("cwnd")
    ssthresh = ledger_field("ssthresh")
    snd_una = ledger_field("snd_una")
    snd_nxt = ledger_field("snd_nxt")
    dupacks = ledger_field("dupacks")
    _ca_bytes_acked = ledger_field("ca_bytes_acked")

    def __init__(
        self,
        sim: Simulator,
        host: Host,
        dst_node_id: int,
        flow_id: int,
        config: Optional[TcpConfig] = None,
        stats: Optional[FlowStats] = None,
        on_complete: Optional[Callable[["TcpSender"], None]] = None,
    ):
        self.sim = sim
        self.host = host
        self.dst_node_id = dst_node_id
        self.flow_id = flow_id
        self.config = config or TcpConfig()
        cfg = self.config

        # The ledger slot opens with this sender's window; every other
        # per-segment counter (snd_una, snd_nxt, dupacks, the CA byte
        # accumulator — the kernel's snd_cwnd_cnt — and DCTCP's
        # window-of-data sums) starts at the slot's zero.
        fl = FlowLedger.of(sim)
        self._fl = fl
        self._slot = fl.register(cfg.init_cwnd_bytes, cfg.init_ssthresh_bytes)
        self._pool = PacketPool.of(sim)
        # Transmit binding: straight to the NIC port's send when the
        # access link is already attached (skips Host.send's None check
        # and call frame per packet); hosts built link-less fall back to
        # Host.send, which raises the usual error if still detached.
        nic = host.nic
        self._host_send = nic.send if nic is not None else host.send
        self._src_id = host.node_id

        self.total_bytes = 0
        self.in_fast_recovery = False
        self.recover = 0

        self.rtt = RttEstimator(cfg.rto_min_ns, cfg.rto_max_ns, cfg.rto_initial_ns, cfg.seed_rtt_ns)
        self.rto_backoff = 0
        self._rto_event = None
        self._acks_since_timer_armed = 0

        #: first-transmission times for outstanding segments (Karn-clean)
        self._segment_send_time: Dict[int, int] = {}
        self._pending_send_event = None

        self.completed = False
        self.closed = False
        self._last_send_time = -1  # kernel lsndtime, for cwnd restart
        #: high-water mark of the window lost at the last RTO; the sender is
        #: in loss recovery (kernel CA_Loss) until snd_una passes it.
        self.rto_recovery_point = 0
        #: ECE flag of the most recent ACK — the "ECE=1 before sending"
        #: state traced for Table I.
        self.last_ack_ece = False

        self.stats = stats or FlowStats(flow_id=flow_id)
        self.stats.flow_id = flow_id
        self.on_complete = on_complete
        self.pacer: Optional[Pacer] = None
        #: the one reusable CC event record, mutated in place per dispatch
        #: (events are transient — see :mod:`repro.tcp.events`).
        self._cc_event = CCEvent()

        host.register_flow(flow_id, self)
        #: bound once; rare-path emits (RTO, retransmit) test it for None,
        #: which is the only tracing cost an untraced sender ever pays.
        self._tracer = sim.tracer
        hooks = sim.hooks
        if hooks is not None:
            hooks.sender_created(self)

    # ------------------------------------------------------------------ app API
    def send(self, nbytes: int) -> None:
        """Queue ``nbytes`` of application data for transmission."""
        if nbytes <= 0:
            raise ValueError(f"nbytes must be positive, got {nbytes}")
        if self.closed:
            raise RuntimeError("sender is closed")
        if self.stats.start_time_ns < 0:
            self.stats.start_time_ns = self.sim.now
        if self.config.slow_start_after_idle:
            self._maybe_cwnd_restart()
        self.total_bytes += nbytes
        self.stats.total_bytes = self.total_bytes
        self.completed = False
        self._try_send()

    def _maybe_cwnd_restart(self) -> None:
        """Linux ``tcp_cwnd_restart``: decay cwnd after application idle.

        One halving per RTO of idle time, floored at the restart window
        (min of the initial window and the current cwnd); ssthresh is kept.
        """
        if self._last_send_time < 0:
            return
        idle = self.sim.now - self._last_send_time
        rto = self.rtt.rto_ns
        if idle <= rto:
            return
        cfg = self.config
        restart = min(cfg.init_cwnd_bytes, self.cwnd)
        halvings = min(int(idle // rto), 32)
        decayed = self.cwnd / float(1 << halvings)
        self.cwnd = max(self._quantize_down(decayed, cfg.min_cwnd_bytes), restart)
        self._ca_bytes_acked = 0.0

    def close(self) -> None:
        """Detach from the host and cancel timers."""
        if self.closed:
            return
        self.closed = True
        # Most flows close with neither timer armed: skip the cancel calls.
        if self._rto_event is not None:
            self.sim.cancel(self._rto_event)
            self._rto_event = None
        if self._pending_send_event is not None:
            self.sim.cancel(self._pending_send_event)
            self._pending_send_event = None
        self.host.unregister_flow(self.flow_id)
        # A closed sender completes nothing more; dropping the callback
        # (usually a bound method of the workload that lists this sender)
        # leaves no cycle, so the flow is freed by reference counting.
        self.on_complete = None

    # -------------------------------------------------------------- convenience
    def _quantize_down(self, cwnd_bytes: float, floor_bytes: float) -> float:
        """Round a window reduction down to a whole number of segments.

        The kernel tracks ``snd_cwnd`` in integer packets, so every
        multiplicative decrease lands on an exact MSS multiple — e.g. DCTCP
        at cwnd=2 drops straight to 1 or stays at 2, never 1.4.  This
        integer behaviour is load-bearing for the paper: it is why flows
        park *exactly at* the floor with ECE still arriving (Table I).
        """
        mss = self.config.mss
        quantized = (int(cwnd_bytes) // mss) * mss
        return max(float(quantized), floor_bytes)

    @property
    def bytes_in_flight(self) -> int:
        fl = self._fl
        slot = self._slot
        return fl.snd_nxt[slot] - fl.snd_una[slot]

    @property
    def in_rto_recovery(self) -> bool:
        """True while retransmissions from the last RTO are outstanding."""
        return self._fl.snd_una[self._slot] < self.rto_recovery_point

    @property
    def _cwnd_at_floor(self) -> bool:
        """The slow_time machine's NORMAL -> Time_Inc entry condition ("cwnd
        has diminished to the minimum value").  Timeouts drop cwnd to 1 MSS,
        below the nominal floor; both count."""
        return self.cwnd <= self.config.min_cwnd_bytes + 1e-6

    @property
    def cwnd_mss(self) -> float:
        return self._fl.cwnd[self._slot] / self.config.mss

    @property
    def effective_window_bytes(self) -> int:
        """Packet-counting window: whole MSS units, at least one segment."""
        mss = self.config.mss
        whole = int(self._fl.cwnd[self._slot] // mss) * mss
        return min(max(whole, mss), self.config.rwnd_bytes)

    # ------------------------------------------------------------- transmission
    def _try_send(self) -> None:
        if self.closed or self.completed:
            return
        cfg = self.config
        now = self.sim.now
        mss = cfg.mss
        fl = self._fl
        slot = self._slot
        nxt_col = fl.snd_nxt
        snd_una = fl.snd_una[slot]
        # effective_window_bytes, inlined (this is the per-segment gate).
        whole = int(fl.cwnd[slot] // mss) * mss
        window = min(max(whole, mss), cfg.rwnd_bytes)
        total = self.total_bytes
        pacer = self.pacer
        snd_nxt = nxt_col[slot]
        while snd_nxt < total:
            remaining = total - snd_nxt
            seg_len = mss if mss < remaining else remaining
            if snd_nxt - snd_una + seg_len > window:
                break
            if pacer is not None:
                ev = self._cc_event
                ev.kind = CC_SEND
                ev.time_ns = now
                gate = self.on_send_opportunity(ev)
                if gate > now:
                    self._schedule_send_retry(gate)
                    return
            self._transmit(snd_nxt, seg_len, is_retransmit=False)
            snd_nxt = nxt_col[slot] = snd_nxt + seg_len
        if snd_nxt - snd_una > 0 and self._rto_event is None:
            self._arm_timer()

    def _schedule_send_retry(self, at_time: int) -> None:
        if self._pending_send_event is not None:
            return
        self._pending_send_event = self.sim.at(at_time, self._send_retry)

    def _send_retry(self) -> None:
        self._pending_send_event = None
        self._try_send()

    def _transmit(self, seq: int, length: int, is_retransmit: bool) -> None:
        cfg = self.config
        sim = self.sim
        now = sim.now
        stats = self.stats
        stats.record_send_snapshot(int(self._fl.cwnd[self._slot] // cfg.mss), self.last_ack_ece)
        h = self._pool.alloc_data(
            self.flow_id,
            self._src_id,
            self.dst_node_id,
            seq,
            length,
            cfg.ecn_enabled,
            is_retransmit,
            sim.next_packet_id(),
        )
        if is_retransmit:
            # Karn: retransmitted segments are never RTT-sampled.
            self._segment_send_time.pop(seq, None)
            stats.retransmitted_packets += 1
            if self._tracer is not None:
                self._tracer.retransmitted(self, seq)
        else:
            self._segment_send_time[seq] = now
        stats.data_packets_sent += 1
        self._last_send_time = now
        self._host_send(h)
        pacer = self.pacer
        if pacer is not None:
            pacer.on_sent(now)

    def _retransmit_front(self) -> None:
        seg_len = min(self.config.mss, self.total_bytes - self.snd_una)
        if seg_len > 0:
            self._transmit(self.snd_una, seg_len, is_retransmit=True)

    # ------------------------------------------------------------ ACK processing
    def on_packet(self, h: int) -> None:
        """Consume a delivered packet handle (ACKs drive the state machine)."""
        pool = self._pool
        flags = pool.flags[h]
        ack_seq = pool.ack_seq[h]
        pool.free(h)
        if not (flags & F_ACK) or self.closed:
            return
        self._on_ack(ack_seq, bool(flags & F_ECE), flags & F_INC)

    def _on_ack(self, ack_seq: int, ece: bool, inc: int = 0) -> None:
        if self.completed:
            return
        if inc:
            # Explicit incast-onset echo (the INC bit): dispatched before
            # ACK processing so a strategy's backoff lands ahead of the
            # window-law update, exactly where Pulser's reaction sat.
            ev = self._cc_event
            ev.kind = CC_INC_ECHO
            ev.time_ns = self.sim.now
            ev.ece = ece
            ev.inc = True
            self.on_ecn_echo(ev)
        self._acks_since_timer_armed += 1
        stats = self.stats
        stats.acks_received += 1
        self.last_ack_ece = ece
        if ece:
            stats.ece_acks_received += 1

        fl = self._fl
        slot = self._slot
        snd_una = fl.snd_una[slot]
        snd_nxt = fl.snd_nxt[slot]
        # Highest byte ever handed to the network: go-back-N rewinds
        # snd_nxt, but a late ACK from the original (pre-timeout) flight is
        # still legitimate up to the recovery point.
        recovery_point = self.rto_recovery_point
        high_water = snd_nxt if snd_nxt > recovery_point else recovery_point
        if ack_seq > high_water:
            # RFC 793: an ACK for data we never sent is ignored.  Cannot
            # happen with well-behaved peers, but keeps the state machine
            # sound against reordering artifacts or buggy endpoints.
            return
        if ack_seq > snd_una:
            self._on_new_ack(ack_seq, ece)
        elif snd_nxt - snd_una > 0:
            self._on_dupack(ece)

    def _on_new_ack(self, ack_seq: int, ece: bool) -> None:
        fl = self._fl
        slot = self._slot
        cwnd_col = fl.cwnd
        newly_acked = ack_seq - fl.snd_una[slot]
        self._sample_rtt(ack_seq)
        fl.snd_una[slot] = ack_seq
        if fl.snd_nxt[slot] < ack_seq:
            # a late original-flight ACK overtook the go-back-N rewind
            fl.snd_nxt[slot] = ack_seq
        fl.dupacks[slot] = 0
        self.rto_backoff = 0
        cfg = self.config

        if self.in_fast_recovery:
            if ack_seq >= self.recover:
                # Full ACK: leave recovery, deflate to ssthresh.
                self.in_fast_recovery = False
                cwnd_col[slot] = max(cfg.min_cwnd_bytes, fl.ssthresh[slot])
            else:
                # Partial ACK (RFC 6582): retransmit the next hole, deflate
                # by the amount acked, stay in recovery.
                self._retransmit_front()
                cwnd_col[slot] = max(float(cfg.mss), cwnd_col[slot] - newly_acked + cfg.mss)
        else:
            ev = self._cc_event
            ev.kind = CC_ACK
            ev.time_ns = self.sim.now
            ev.newly_acked = newly_acked
            ev.ece = ece
            self.on_ack(ev)

        total = self.total_bytes
        if total > 0 and ack_seq >= total:
            self._complete()
        elif fl.snd_nxt[slot] - ack_seq > 0:
            self._arm_timer()
        else:
            # Nothing outstanding (remaining data may be gated by the
            # pacer); the timer re-arms when the next packet departs.
            self._stop_timer()
        ev = self._cc_event
        ev.kind = CC_ACK_ECHO
        ev.time_ns = self.sim.now
        ev.ece = ece
        ev.is_dup = False
        self.on_ecn_echo(ev)
        if not self.completed:
            self._try_send()

    def _on_dupack(self, ece: bool) -> None:
        cfg = self.config
        fl = self._fl
        slot = self._slot
        dupacks = fl.dupacks[slot] = fl.dupacks[slot] + 1
        self.stats.dupacks_received += 1
        if self.in_fast_recovery:
            # Window inflation: each dupACK signals a departed segment.
            fl.cwnd[slot] += cfg.mss
        elif dupacks >= cfg.dupack_threshold:
            self._enter_fast_recovery()
        elif cfg.limited_transmit:
            # RFC 3042: the first two dupACKs each release one new segment
            # beyond the window, keeping the ACK clock alive for windows
            # too small to generate three duplicates.
            self._limited_transmit()
        ev = self._cc_event
        ev.kind = CC_ACK_ECHO
        ev.time_ns = self.sim.now
        ev.ece = ece
        ev.is_dup = True
        self.on_ecn_echo(ev)
        self._try_send()

    def _limited_transmit(self) -> None:
        cfg = self.config
        seg_len = min(cfg.mss, self.total_bytes - self.snd_nxt)
        if seg_len <= 0:
            return
        if self.bytes_in_flight + seg_len > cfg.rwnd_bytes:
            return
        if self.bytes_in_flight >= self.effective_window_bytes + 2 * cfg.mss:
            return
        self._transmit(self.snd_nxt, seg_len, is_retransmit=False)
        self.snd_nxt += seg_len

    def _enter_fast_recovery(self) -> None:
        cfg = self.config
        flight = self.bytes_in_flight
        self.ssthresh = self._quantize_down(flight / 2.0, cfg.min_cwnd_bytes)
        self.recover = self.snd_nxt
        self.in_fast_recovery = True
        self.stats.fast_retransmits += 1
        self._retransmit_front()
        self.cwnd = self.ssthresh + cfg.dupack_threshold * cfg.mss
        self._arm_timer()

    def _sample_rtt(self, ack_seq: int) -> None:
        """Karn-compliant RTT sample from the newest fully-acked segment."""
        newest_send = -1
        to_pop = []
        for seq, sent_at in self._segment_send_time.items():
            if seq >= ack_seq:
                break
            to_pop.append(seq)
            if sent_at > newest_send:
                newest_send = sent_at
        for seq in to_pop:
            del self._segment_send_time[seq]
        if newest_send >= 0:
            self.rtt.add_sample(self.sim.now - newest_send)

    # ----------------------------------------------------------------- RTO timer
    def _arm_timer(self) -> None:
        # Re-armed on every ACK; reschedule-in-place keeps this O(1) with no
        # heap traffic instead of pushing a fresh entry per ACK.
        duration = self.rtt.backed_off_rto_ns(self.rto_backoff)
        self._rto_event = self.sim.reschedule(self._rto_event, duration, self._on_rto)
        self._acks_since_timer_armed = 0

    def _stop_timer(self) -> None:
        self.sim.cancel(self._rto_event)
        self._rto_event = None

    def _on_rto(self) -> None:
        self._rto_event = None
        if self.completed or self.closed or self.bytes_in_flight <= 0:
            return
        kind = classify_timeout(self._acks_since_timer_armed)
        self.stats.record_timeout(self.sim.now, kind)
        if self._tracer is not None:
            self._tracer.rto_fired(self, kind)
        # CA_Loss analogue: everything up to the pre-timeout high-water mark
        # is now a retransmission; recovery lasts until it is all ACKed.
        # The mark never moves down: a back-to-back RTO fires with snd_nxt
        # already rewound near snd_una, and lowering the mark would make a
        # late ACK from the original flight look like "data we never sent"
        # and be discarded forever (the flow then deadlocks retransmitting
        # one segment the receiver already has).
        self.rto_recovery_point = max(self.rto_recovery_point, self.snd_nxt)

        cfg = self.config
        flight = self.bytes_in_flight
        self.ssthresh = self._quantize_down(flight / 2.0, cfg.min_cwnd_bytes)
        self.cwnd = cfg.timeout_cwnd_bytes
        self.in_fast_recovery = False
        self.dupacks = 0
        self.snd_nxt = self.snd_una  # go-back-N
        self._segment_send_time.clear()  # Karn: everything is a retransmit now
        self.rto_backoff = min(self.rto_backoff + 1, cfg.max_rto_backoff)
        ev = self._cc_event
        ev.kind = CC_RTO
        ev.time_ns = self.sim.now
        ev.rto_kind = kind
        self.on_rto(ev)
        self._retransmit_front()
        self.snd_nxt = min(self.total_bytes, self.snd_una + cfg.mss)
        self._arm_timer()

    # ---------------------------------------------------------------- completion
    def _complete(self) -> None:
        self.completed = True
        self.stats.completion_time_ns = self.sim.now
        self._stop_timer()
        self.sim.cancel(self._pending_send_event)
        self._pending_send_event = None
        if self.on_complete is not None:
            self.on_complete(self)

    # ----------------------------------------------- CC event protocol (CCEvent)
    def on_ack(self, ev: CCEvent) -> None:
        """Window growth on a clean cumulative ACK (not in fast recovery)."""
        cfg = self.config
        fl = self._fl
        slot = self._slot
        newly_acked = ev.newly_acked
        cwnd_col = fl.cwnd
        cwnd = cwnd_col[slot]
        if cwnd < fl.ssthresh[slot]:
            # Slow start: one MSS per ACKed MSS (byte-counted, capped).
            cwnd_col[slot] = min(cwnd + min(newly_acked, cfg.mss), cfg.rwnd_bytes)
        else:
            # Congestion avoidance with Linux-style integer stepping: grow
            # by one MSS only after a full cwnd's worth of bytes is ACKed,
            # so the window rests at stable values like exactly 2 MSS.
            ca_col = fl.ca_bytes_acked
            acked = ca_col[slot] + newly_acked
            if acked >= cwnd:
                acked -= cwnd
                cwnd_col[slot] = min(cwnd + cfg.mss, cfg.rwnd_bytes)
            ca_col[slot] = acked

    def on_ecn_echo(self, ev: CCEvent) -> None:
        """Feedback echoes: per-ACK (``CC_ACK_ECHO``, after the ACK is
        processed — DCTCP+'s state-machine input) and the explicit
        incast-onset bit (``CC_INC_ECHO``, before — Pulser's reaction)."""

    def on_rto(self, ev: CCEvent) -> None:
        """Extra protocol reaction to an RTO (DCTCP+ hooks in here)."""

    def on_send_opportunity(self, ev: CCEvent) -> int:
        """Pacing gate: earliest allowed departure time in ns.

        Consulted per eligible segment **only when a pacer is attached**;
        the base implementation defers to it.  Returning ``ev.time_ns``
        (or any past time) releases the segment immediately.
        """
        return self.pacer.next_send_time(ev.time_ns)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"{type(self).__name__}(flow={self.flow_id}, una={self.snd_una}, "
            f"nxt={self.snd_nxt}, cwnd={self.cwnd_mss:.2f}mss)"
        )
