"""The two per-packet TCP paths: a clean ACK at the sender, a segment at the
receiver.

Every packet of an ACK-clocked flow makes one pass through each, so their
shortcuts are checked against the code they replace and their cost is
pinned call by call:

- the receiver's in-order fast path against a reference reassembler that
  transliterates the general path (reorder buffer, then ``_advance``), over
  hypothesis-drawn arrival scripts;
- the RTO deadline the sender arms inline against
  :meth:`RttEstimator.backed_off_rto_ns`, for every backoff step;
- the calls (``sys.setprofile`` ``call`` and ``c_call`` events) one clean
  new ACK and one in-order segment make, so a regression fails here.
"""

import gc
import sys
from itertools import accumulate

import pytest
from hypothesis import given, settings, strategies as st

from repro.net.host import Host
from repro.net.pool import F_CE, F_ECE, F_INC, PacketPool
from repro.net.topology import build_star
from repro.sim import _native
from repro.sim.engine import Simulator
from repro.sim.units import MS, US
from repro.tcp.config import TcpConfig
from repro.tcp.dctcp import DctcpSender
from repro.tcp.receiver import TcpReceiver
from repro.tcp.sender import TcpSender

from .test_flow_construction import DISPATCH

MSS = 1460


# -- the receiver against a reference reassembler ----------------------------------------
class ReferenceReassembler:
    """What the receiver did before its in-order fast path: every new
    segment goes into the reorder buffer and ``_advance`` pulls the
    contiguous run out (``TcpReceiver._buffer`` + ``_advance``,
    transliterated), then one immediate cumulative ACK echoes the segment's
    CE and any pending incast-onset bit."""

    def __init__(self, expected_bytes):
        self.expected_bytes = expected_bytes
        self.rcv_nxt = 0
        self.bytes_delivered = 0
        self.ooo = {}
        self.inc_echo = False
        self.counters = [0, 0, 0, 0]  # data, duplicate, ce, reordered
        self.deliveries = []
        self.policy = []  # (out_of_order, rcv_before) per segment
        self.acks = []  # (ack_seq, ece, inc) per segment
        self.completed_after = None

    def segment(self, seq, end, ce, inc):
        self.counters[0] += 1
        if ce:
            self.counters[2] += 1
        if inc:
            self.inc_echo = True
        before = self.rcv_nxt
        if end <= before:
            self.counters[1] += 1
        else:
            existing = self.ooo.get(seq)
            if existing is None or existing < end:
                self.ooo[seq] = end
            self._advance()
        out_of_order = self.rcv_nxt == before
        if out_of_order and end > before:
            self.counters[3] += 1
        self.policy.append((out_of_order, before))
        self.acks.append((self.rcv_nxt, ce, self.inc_echo))
        self.inc_echo = False
        if self.completed_after is None and self.rcv_nxt >= self.expected_bytes:
            self.completed_after = len(self.acks)

    def _advance(self):
        before = rcv_nxt = self.rcv_nxt
        ooo = self.ooo
        moved = True
        while moved:
            moved = False
            end = ooo.pop(rcv_nxt, None)
            if end is not None:
                rcv_nxt = max(rcv_nxt, end)
                moved = True
            else:
                for seq, seg_end in ooo.items():
                    if seq <= rcv_nxt < seg_end:
                        del ooo[seq]
                        rcv_nxt = seg_end
                        moved = True
                        break
        self.rcv_nxt = rcv_nxt
        if rcv_nxt > before:
            self.bytes_delivered += rcv_nxt - before
            self.deliveries.append(rcv_nxt - before)
        for seq in [s for s, e in ooo.items() if e <= rcv_nxt]:
            del ooo[seq]


class RecordingReceiver(TcpReceiver):
    """A receiver that lists what its ACK policy was handed."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.policy = []

    def _ack_policy(self, flags, out_of_order, rcv_before):
        self.policy.append((out_of_order, rcv_before))
        super()._ack_policy(flags, out_of_order, rcv_before)


@st.composite
def arrival_scripts(draw):
    """Segments of one transfer, in order or shuffled, with duplicates and
    retransmits that start inside an earlier segment mixed in; each arrival
    carries CE and INC flags."""
    lengths = draw(st.lists(st.integers(1, 3 * MSS), min_size=1, max_size=10))
    ends = list(accumulate(lengths))
    segments = list(zip([0] + ends[:-1], ends))
    if draw(st.booleans()):
        segments = draw(st.permutations(segments))
    total = ends[-1]
    extras = draw(
        st.lists(
            st.tuples(
                st.integers(0, len(segments)), st.integers(0, total - 1), st.integers(1, 4 * MSS)
            ),
            max_size=6,
        )
    )
    for position, start, length in extras:
        segments.insert(position, (start, min(start + length, total)))
    flags = draw(
        st.lists(
            st.tuples(st.booleans(), st.booleans()), min_size=len(segments), max_size=len(segments)
        )
    )
    return total, [(seq, end, ce, inc) for (seq, end), (ce, inc) in zip(segments, flags)]


def receiver_under_test(expected_bytes):
    sim = Simulator()
    pool = PacketPool.of(sim)
    acks, deliveries, completions = [], [], []
    receiver = RecordingReceiver(
        sim,
        Host(sim, "sink"),
        peer_node_id=99,
        flow_id=1,
        expected_bytes=expected_bytes,
        on_data=deliveries.append,
        on_complete=lambda r: completions.append(len(acks)),
    )

    def capture(h):
        flags = pool.flags[h]
        acks.append((pool.ack_seq[h], bool(flags & F_ECE), bool(flags & F_INC)))
        pool.free(h)

    receiver._host_send = capture
    return sim, pool, receiver, acks, deliveries, completions


@settings(max_examples=200, deadline=None)
@given(arrival_scripts())
def test_receiver_matches_the_reference_reassembler(script):
    total, arrivals = script
    sim, pool, receiver, acks, deliveries, completions = receiver_under_test(total)
    reference = ReferenceReassembler(total)
    for seq, end, ce, inc in arrivals:
        h = pool.alloc_data(1, 99, 0, seq, end - seq, True, False)
        pool.flags[h] |= (F_CE if ce else 0) | (F_INC if inc else 0)
        receiver.on_packet(h)
        reference.segment(seq, end, ce, inc)
        assert receiver.rcv_nxt == reference.rcv_nxt
    assert receiver.bytes_delivered == reference.bytes_delivered
    assert [
        receiver.data_packets_received,
        receiver.duplicate_packets_received,
        receiver.ce_packets_received,
        receiver.reordered_packets,
    ] == reference.counters
    assert receiver._ooo == reference.ooo
    assert deliveries == reference.deliveries
    assert receiver.policy == reference.policy
    assert acks == reference.acks
    assert completions == ([reference.completed_after] if reference.completed_after else [])
    assert not any(pool.live)  # every segment and ACK handle freed


# -- the RTO deadline the sender arms ------------------------------------------------------
@given(
    seed_rtt=st.integers(0, 200 * MS),
    rto_min=st.integers(1 * MS, 20 * MS),
    headroom=st.integers(0, 10_000 * MS),
)
@settings(max_examples=50, deadline=None)
def test_armed_deadline_is_now_plus_the_backed_off_rto(seed_rtt, rto_min, headroom):
    rto_max = rto_min + headroom
    sim = Simulator()
    tree = build_star(sim, n_senders=1)
    cfg = TcpConfig(seed_rtt_ns=seed_rtt, rto_min_ns=rto_min, rto_max_ns=rto_max)
    sender = TcpSender(sim, tree.servers[0], tree.aggregator.node_id, 1, cfg)
    sender.send(4 * MSS)
    sim.run(until=sim.now + 7 * US)  # a clock off zero, the timer armed, none fired
    rtt = sender.rtt
    capped = 0
    for backoff in range(cfg.max_rto_backoff + 1):
        sender.rto_backoff = backoff
        sender._arm_timer()
        expected = min(rto_max, rtt.rto_ns << backoff)
        assert rtt.backed_off_rto_ns(backoff) == expected
        assert sender._rto_event.deadline == sim.now + expected
        capped += expected == rto_max
    # 1 ms << 15 is past the largest drawn cap, so every drawn case reaches it.
    assert capped >= 1


# -- the RTT sample (Karn) -----------------------------------------------------------------
def reference_sample_rtt(sent, ack_seq, now):
    """``TcpSender._sample_rtt`` before its one-segment shortcut: pop every
    first transmission below ``ack_seq`` (in send order) and sample the
    newest send time.  Returns the sample, or None."""
    newest_send = -1
    to_pop = []
    for seq, sent_at in sent.items():
        if seq >= ack_seq:
            break
        to_pop.append(seq)
        if sent_at > newest_send:
            newest_send = sent_at
    for seq in to_pop:
        del sent[seq]
    return now - newest_send if newest_send >= 0 else None


class SampleRecorder:
    """The sender's RTT estimator, listing the samples it is handed."""

    def __init__(self, rtt):
        self.rtt = rtt
        self.samples = []

    def add_sample(self, rtt_ns):
        self.samples.append(rtt_ns)
        self.rtt.add_sample(rtt_ns)

    def __getattr__(self, name):
        return getattr(self.rtt, name)


@given(
    sends=st.lists(st.tuples(st.booleans(), st.integers(0, 40 * US)), min_size=1, max_size=12),
    ack_segments=st.integers(0, 13),
)
@settings(max_examples=200, deadline=None)
def test_rtt_sample_matches_the_reference(sends, ack_segments):
    # Segments k*MSS sent in order; a retransmitted one is not in the map
    # (Karn), so an ACK covering only retransmissions takes no sample.
    sim = Simulator()
    tree = build_star(sim, n_senders=1)
    sender = TcpSender(sim, tree.servers[0], tree.aggregator.node_id, 1, TcpConfig())
    sent = {k * MSS: at for k, (first, at) in enumerate(sends) if first}
    reference = dict(sent)
    sender._segment_send_time = sent
    sender.rtt = SampleRecorder(sender.rtt)
    now = 50 * US
    sim.run(until=now)
    ack_seq = ack_segments * MSS
    sender._sample_rtt(ack_seq)
    expected = reference_sample_rtt(reference, ack_seq, now)
    assert sender.rtt.samples == ([] if expected is None else [expected])
    assert list(sent.items()) == list(reference.items())


def test_a_retransmitted_segment_is_never_sampled():
    sim = Simulator()
    tree = build_star(sim, n_senders=1)
    sender = TcpSender(sim, tree.servers[0], tree.aggregator.node_id, 1, TcpConfig())
    sender._host_send = lambda h: PacketPool.of(sim).free(h)
    sender.rtt = SampleRecorder(sender.rtt)
    for k in range(3):  # three first transmissions at t=0
        sender._transmit(k * MSS, MSS, is_retransmit=False)
    sim.run(until=10 * US)
    sender._transmit(0, MSS, is_retransmit=True)  # segment 0 again at 10 us
    sim.run(until=30 * US)
    sender._sample_rtt(MSS)  # covers only the retransmitted segment
    assert sender.rtt.samples == []
    sender._sample_rtt(2 * MSS)  # one first transmission, sent at 0
    sender._sample_rtt(3 * MSS)
    assert sender.rtt.samples == [30 * US, 30 * US]
    assert sender._segment_send_time == {}


# -- call pins ------------------------------------------------------------------------------
def calls_of(fn, *args):
    """Qualified names of the functions ``fn(*args)`` calls, itself first:
    every ``sys.setprofile`` ``call`` (Python frame) and ``c_call`` (builtin)
    event, in order.  The collector is paused, so no collection (and no
    ``gc.callbacks`` entry) can land inside the window."""
    seen = []

    def profile(frame, event, arg):
        if event == "call":
            seen.append(frame.f_code.co_qualname)
        elif event == "c_call":
            seen.append(arg.__qualname__)

    was_enabled = gc.isenabled()
    gc.disable()
    sys.setprofile(profile)
    try:
        fn(*args)
    finally:
        sys.setprofile(None)
        if was_enabled:
            gc.enable()
    return [name for name in seen if name != "setprofile"]


#: The arriving handle goes back to the pool's freelist (threaded through the
#: pool's ``link`` column, so no list call).
RELEASE = ["PacketPool.free"]
#: One segment out.  The ``list.append`` is the NIC: the tests hand the
#: endpoint a list's ``append`` as its port, so no network code is counted.
TRANSMIT = [
    "TcpSender._transmit",
    "PacketPool.alloc_data",
    "list.append",
]


def clean_ack_calls(window_law, native):
    rearm = ["TcpSender._arm_timer", "EventQueue.reschedule"]
    if native:
        rearm.append("EventCore.take_seq")  # the C core hands out the sequence number
    return [
        "TcpSender.on_packet",
        *RELEASE,
        "TcpSender._on_ack",
        "TcpSender._on_new_ack",
        "TcpSender._sample_rtt",
        "RttEstimator.add_sample",
        *window_law,
        *rearm,
        "TcpSender.on_ecn_echo",
        "TcpSender._try_send",
        *TRANSMIT,
    ]


WINDOW_LAW = {
    TcpSender: ["TcpSender.on_ack"],
    DctcpSender: ["DctcpSender.on_ack", "TcpSender.on_ack", "DctcpSender._end_of_window"],
}


@pytest.mark.parametrize("native", DISPATCH)
@pytest.mark.parametrize("sender_cls", [TcpSender, DctcpSender], ids=["tcp", "dctcp"])
def test_one_clean_ack_releases_one_segment_in_pinned_calls(sender_cls, native, monkeypatch):
    monkeypatch.setenv(_native.NATIVE_ENV, native)
    sim = Simulator()
    tree = build_star(sim, n_senders=1)
    # Congestion avoidance at 2 MSS: after the window has grown once, each
    # ACK of one MSS releases exactly one segment.
    cfg = TcpConfig(seed_rtt_ns=100 * US, rto_min_ns=5 * MS, init_ssthresh_mss=2.0)
    sender = sender_cls(sim, tree.servers[0], tree.aggregator.node_id, 1, cfg)
    sent = []
    sender._host_send = sent.append
    sender.send(100 * MSS)
    pool = PacketPool.of(sim)

    def ack(seq):
        return pool.alloc_ack(1, 0, 0, seq, False, False)

    sender.on_packet(ack(MSS))
    sender.on_packet(ack(2 * MSS))
    sim.run(until=sim.now + 50 * US)  # the pinned ACK samples a 50 us RTT
    before = len(sent)
    calls = calls_of(sender.on_packet, ack(3 * MSS))
    assert len(sent) == before + 1
    assert calls == clean_ack_calls(WINDOW_LAW[sender_cls], sim.native)


IN_ORDER_SEGMENT_CALLS = [
    "TcpReceiver.on_packet",
    *RELEASE,
    "TcpReceiver._ack_policy",
    "TcpReceiver._send_ack",
    "PacketPool.alloc_ack",
    "list.append",  # the NIC, as in TRANSMIT
]


def test_one_in_order_segment_costs_pinned_calls():
    sim = Simulator()
    pool = PacketPool.of(sim)
    receiver = TcpReceiver(sim, Host(sim, "sink"), 99, 1)
    sent = []
    receiver._host_send = sent.append
    for k in range(2):
        h = pool.alloc_data(1, 99, 0, k * MSS, MSS, True, False)
        assert calls_of(receiver.on_packet, h) == IN_ORDER_SEGMENT_CALLS
    assert receiver.rcv_nxt == 2 * MSS and len(sent) == 2
