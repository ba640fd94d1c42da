"""Tests for the struct-of-arrays packet pool: the packet model (wire sizes,
flag bits, ids), handles, recycling and growth."""

import pytest
from hypothesis import given, strategies as st

from repro.exec.scenario import ScenarioSpec, run_scenario
from repro.net.pool import (
    ACK_BYTES,
    DEFAULT_CAPACITY,
    F_ACK,
    F_CE,
    HEADER_BYTES,
    NIL,
    UNASSIGNED_PACKET_ID,
    PacketPool,
    PoolError,
)
from repro.sim.engine import Simulator
from repro.validate import InvariantChecker, InvariantViolation

from .helpers import ack, data


class TestAllocation:
    def test_data_fields(self):
        pool = PacketPool()
        h = pool.alloc_data(7, 1, 2, seq=1460, payload_len=1460,
                            ect=True, is_retransmit=False)
        v = pool.view(h)
        assert (v.flow_id, v.src, v.dst) == (7, 1, 2)
        assert v.seq == 1460 and v.end_seq == 2920
        assert v.wire_bytes == 1460 + HEADER_BYTES
        assert v.packet_id == 1  # the pool's first allocation
        assert v.ect and not v.ce and not v.is_ack and not v.is_retransmit

    def test_ack_fields(self):
        pool = PacketPool()
        h = pool.alloc_ack(7, 2, 1, ack_seq=2920, ece=True, inc=False)
        v = pool.view(h)
        assert v.is_ack and v.ece and not v.inc
        assert v.ack_seq == 2920
        assert v.wire_bytes == ACK_BYTES

    def test_control_fields(self):
        pool = PacketPool()
        h = pool.alloc_control(9, 0, 3, wire_bytes=64)
        v = pool.view(h)
        assert not v.is_ack and v.wire_bytes == 64 and v.payload_len == 0

    def test_every_flag_bit_round_trips(self):
        sim = Simulator()
        pool = PacketPool.of(sim)
        v = pool.view(data(sim, 5, 3, 4, 100, 200, ect=True, ce=True, retx=True))
        assert (v.flow_id, v.src, v.dst, v.seq, v.payload_len) == (5, 3, 4, 100, 200)
        assert v.ect and v.ce and v.is_retransmit and not v.is_ack
        assert not (v.ece or v.inc)
        va = pool.view(ack(sim, 5, 4, 3, 300, ece=True, inc=True))
        assert va.is_ack and va.ece and va.inc and va.ack_seq == 300
        assert not (va.ect or va.ce or va.is_retransmit)

    def test_rejects_bad_capacity(self):
        with pytest.raises(ValueError):
            PacketPool(0)

    def test_of_attaches_to_simulator_once(self):
        sim = Simulator()
        assert sim.pool is None
        pool = PacketPool.of(sim)
        assert sim.pool is pool
        assert PacketPool.of(sim) is pool


class TestDataPacket:
    """Wire size, flag bits and ids of pool-allocated data segments."""

    def test_wire_size_includes_header(self):
        sim = Simulator()
        h = data(sim, 1, 10, 20, 0, 1460)
        assert PacketPool.of(sim).wire_bytes[h] == 1460 + HEADER_BYTES

    def test_end_seq(self):
        sim = Simulator()
        assert PacketPool.of(sim).view(data(sim, 1, 10, 20, 1000, 500)).end_seq == 1500

    def test_ect_flag(self):
        sim = Simulator()
        pool = PacketPool.of(sim)
        assert pool.view(data(sim, 1, 0, 1, 0, 1, ect=True)).ect
        assert not pool.view(data(sim, 1, 0, 1, 0, 1)).ect

    def test_ce_starts_clear(self):
        sim = Simulator()
        assert not PacketPool.of(sim).view(data(sim, 1, 0, 1, 0, 1, ect=True)).ce

    def test_retransmit_flag(self):
        sim = Simulator()
        pool = PacketPool.of(sim)
        assert pool.view(data(sim, 1, 0, 1, 0, 1, retx=True)).is_retransmit
        assert not pool.view(data(sim, 1, 0, 1, 0, 1)).is_retransmit

    def test_ids_are_numbered_by_the_owning_pool(self):
        # A fresh slot carries no id (there is no hidden process-global
        # counter behind the pool); the n-th allocation gets id n, so a
        # recycled handle gets a fresh id and every simulator's pool
        # numbers from 1.
        pool = PacketPool()
        assert pool.packet_id == [UNASSIGNED_PACKET_ID] * pool.capacity
        sim = Simulator(seed=1)
        a, b = data(sim, 1, 0, 1, 0, 1), ack(sim, 1, 1, 0, 1)
        ids = PacketPool.of(sim).packet_id
        assert (ids[a], ids[b]) == (1, 2)
        PacketPool.of(sim).free(b)
        assert ack(sim, 1, 1, 0, 1) == b and ids[b] == 3
        other = Simulator(seed=1)
        assert PacketPool.of(other).packet_id[data(other, 1, 0, 1, 0, 1)] == 1

    def test_back_to_back_simulations_emit_identical_id_streams(self):
        """Packet ids are per-simulator state: two identical simulations in
        one process observe the same ids packet-for-packet (there is no
        process-global counter for the first run to advance)."""
        from repro.net.faults import make_lossy
        from repro.net.topology import build_two_tier
        from repro.workloads.incast import IncastConfig, IncastWorkload
        from repro.workloads.protocols import spec_for

        def run_once():
            sim = Simulator(seed=3)
            tree = build_two_tier(sim)
            seen = []

            def record(packet, index):
                seen.append(packet.packet_id)
                return False  # never drop; the policy is a tap

            port = tree.bottleneck_port
            port.link = make_lossy(port.link, record)
            wl = IncastWorkload(sim, tree, spec_for("dctcp"), IncastConfig(n_flows=4, n_rounds=2))
            wl.run_to_completion(max_events=5_000_000)
            wl.close()
            return seen

        first = run_once()
        second = run_once()
        assert len(first) > 100
        assert first == second


class TestAckPacket:
    def test_fixed_wire_size(self):
        sim = Simulator()
        v = PacketPool.of(sim).view(ack(sim, 1, 20, 10, 5000))
        assert v.wire_bytes == ACK_BYTES
        assert v.is_ack

    def test_ece_echo(self):
        sim = Simulator()
        pool = PacketPool.of(sim)
        assert pool.view(ack(sim, 1, 0, 1, 0, ece=True)).ece
        assert not pool.view(ack(sim, 1, 0, 1, 0)).ece

    def test_addressing(self):
        sim = Simulator()
        v = PacketPool.of(sim).view(ack(sim, 9, 20, 10, 42))
        assert (v.flow_id, v.src, v.dst, v.ack_seq) == (9, 20, 10, 42)


class TestExplicitWireBytes:
    def test_control_packet_size(self):
        pool = PacketPool()
        h = pool.alloc_control(1, 0, 1, wire_bytes=64)
        assert pool.wire_bytes[h] == 64 and pool.flags[h] == 0

    def test_default_derives_from_payload(self):
        sim = Simulator()
        h = data(sim, 1, 0, 1, 0, 100)
        assert PacketPool.of(sim).wire_bytes[h] == 100 + HEADER_BYTES


class TestRecycling:
    def test_freed_handle_is_reused_lifo(self):
        pool = PacketPool()
        h = pool.alloc_control(1, 0, 1, 64)
        pool.free(h)
        assert pool.alloc_control(1, 0, 1, 64) == h  # LIFO: same slot back

    def test_conservation_counters(self):
        pool = PacketPool()
        handles = [pool.alloc_control(1, 0, 1, 64) for _ in range(10)]
        for h in handles[:4]:
            pool.free(h)
        assert pool.allocated_total == 10
        assert pool.freed_total == 4
        assert pool.live_count == 6
        assert sum(pool.live) == 6

    def test_double_free_raises(self):
        pool = PacketPool()
        h = pool.alloc_control(1, 0, 1, 64)
        pool.free(h)
        with pytest.raises(PoolError, match="dead packet handle"):
            pool.free(h)

    def test_stale_view_raises(self):
        pool = PacketPool()
        h = pool.alloc_control(1, 0, 1, 64)
        pool.free(h)
        with pytest.raises(PoolError, match="view of dead"):
            pool.view(h)

    def test_never_allocated_handle_raises(self):
        pool = PacketPool()
        with pytest.raises(PoolError):
            pool.free(3)


class TestGrowth:
    def test_doubles_when_exhausted(self):
        pool = PacketPool(capacity=4)
        handles = [pool.alloc_control(1, 0, 1, 64) for _ in range(5)]
        assert pool.capacity == 8
        assert len(set(handles)) == 5  # all distinct
        for h in handles:
            pool.free(h)
        assert pool.live_count == 0

    def test_bound_column_refs_survive_growth(self):
        """Components bind columns once; growth must extend in place."""
        pool = PacketPool(capacity=2)
        wire_col = pool.wire_bytes
        flags_col = pool.flags
        for i in range(10):
            pool.alloc_control(1, 0, 1, 100 + i)
        assert pool.capacity == 16
        assert wire_col is pool.wire_bytes
        assert flags_col is pool.flags
        assert wire_col[9] == 109

    def test_growth_under_incast_burst(self):
        """A large synchronized burst grows the default pool organically."""
        sim = Simulator()
        pool = PacketPool.of(sim)
        handles = [
            pool.alloc_data(i, i, 0, seq=0, payload_len=1460,
                            ect=True, is_retransmit=False)
            for i in range(4 * DEFAULT_CAPACITY)
        ]
        assert pool.capacity >= 4 * DEFAULT_CAPACITY
        assert pool.live_count == 4 * DEFAULT_CAPACITY
        for h in handles:
            pool.free(h)
        assert pool.live_count == 0
        assert sum(1 for _ in pool.chain(pool._head)) == pool.capacity


class ListFreelist:
    """The freelist the ``link`` column replaced: a Python list used as a
    LIFO stack (``pop`` to allocate, ``append`` to free), grown by pushing
    the new slots in descending order."""

    def __init__(self, capacity):
        self.capacity = capacity
        self.free = list(range(capacity - 1, -1, -1))

    def grow(self):
        old = self.capacity
        self.capacity = old * 2
        self.free.extend(range(self.capacity - 1, old - 1, -1))

    def alloc(self):
        if not self.free:
            self.grow()
        return self.free.pop()


def free_chain(pool):
    return list(pool.chain(pool._head))


class TestLinkFreelist:
    """The freelist threaded through ``link`` against the list it replaced."""

    @given(
        capacity=st.integers(1, 8),
        ops=st.lists(
            st.one_of(
                st.tuples(st.just("alloc"), st.sampled_from(["data", "ack", "control"])),
                st.tuples(st.just("free"), st.integers(0, 1000)),
                st.tuples(st.just("grow"), st.none()),
            ),
            max_size=80,
        ),
    )
    def test_same_handle_sequence_as_a_list_lifo(self, capacity, ops):
        pool = PacketPool(capacity)
        ref = ListFreelist(capacity)
        live = []
        for op, arg in ops:
            if op == "alloc":
                if arg == "data":
                    h = pool.alloc_data(1, 0, 1, 0, 100, True, False)
                elif arg == "ack":
                    h = pool.alloc_ack(1, 1, 0, 100, False, False)
                else:
                    h = pool.alloc_control(1, 0, 1, 64)
                assert h == ref.alloc()
                live.append(h)
            elif op == "free" and live:
                h = live.pop(arg % len(live))
                pool.free(h)
                ref.free.append(h)
            elif op == "grow" and pool.capacity < 1024:
                # Capped: each grow doubles every column, and a drawn run of
                # up to 80 of them would exhaust the machine's memory.
                pool._grow()
                ref.grow()
            assert pool.capacity == ref.capacity
            assert free_chain(pool) == ref.free[::-1]  # next-allocated first
        assert sorted(live + free_chain(pool)) == list(range(pool.capacity))

    def test_a_fresh_pool_hands_out_handles_in_order(self):
        pool = PacketPool(4)
        assert [pool.alloc_control(1, 0, 1, 64) for _ in range(6)] == [0, 1, 2, 3, 4, 5]
        assert free_chain(pool) == [6, 7]

    def test_chain_walks_are_bounded(self):
        pool = PacketPool(4)
        pool.link[2] = 1  # 0 -> 1 -> 2 -> 1 -> ...
        with pytest.raises(PoolError, match="cycle"):
            free_chain(pool)
        pool.link[2] = 17
        with pytest.raises(PoolError, match="outside the pool"):
            free_chain(pool)
        pool.link[2] = NIL
        assert free_chain(pool) == [0, 1, 2]


class TestCorruptFreelistIsAViolation:
    """The checker counts free handles by walking the chain, so a corrupt
    chain is a violation, never a hang."""

    @staticmethod
    def _pool():
        sim = Simulator()
        pool = PacketPool.of(sim)
        handles = [pool.alloc_control(1, 0, 1, 64) for _ in range(5)]
        for h in handles[:3]:
            pool.free(h)
        checker = InvariantChecker(sim)
        checker.sweep()  # the intact pool passes
        return pool, checker

    @pytest.mark.parametrize(
        "corrupt, message",
        [
            (lambda pool: pool.link.__setitem__(pool._head, pool._head), "cycle"),
            (lambda pool: pool.link.__setitem__(pool._head, pool.capacity), "outside the pool"),
            (lambda pool: pool.link.__setitem__(pool._head, NIL), "leaked or duplicated"),
            (lambda pool: pool.link.__setitem__(pool._head, 4), "holds live handle 4"),
        ],
        ids=["cycle", "out-of-range", "truncated", "live-handle"],
    )
    def test_corrupt_free_chain_raises(self, corrupt, message):
        pool, checker = self._pool()
        corrupt(pool)
        with pytest.raises(InvariantViolation, match=message):
            checker.sweep()


class TestMarkingThroughFlags:
    def test_switch_style_ce_mark(self):
        pool = PacketPool()
        h = pool.alloc_data(1, 0, 1, 0, 1460, ect=True, is_retransmit=False)
        pool.flags[h] |= F_CE  # what DropTailQueue does past the threshold
        v = pool.view(h)
        assert v.ce and v.ect
        assert not pool.flags[h] & F_ACK


class TestConservationUnderValidation:
    """Full scenarios with the invariant checker sweeping the pool."""

    def test_incast_scenario_validates_and_drains(self):
        spec = ScenarioSpec.create(
            protocol="dctcp+", n_flows=16, rounds=2, seed=3,
            incast_overrides={"total_bytes": 64 * 1024},
        )
        result = run_scenario(spec, validate=True)
        assert result.events_processed > 0

    def test_fuzzed_scenarios_conserve_handles(self):
        """Fuzzer seeds run validated: the checker sweeps pool conservation
        (live flags vs allocated-freed, freelist disjointness) throughout."""
        from repro.validate.fuzz import check_seed

        for seed in (11, 12):
            spec, digest, events = check_seed(seed)
            assert events > 0
            assert digest
