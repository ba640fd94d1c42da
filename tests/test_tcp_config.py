"""Tests for TcpConfig validation, derived values and the ``with_overrides``
memo (which both config classes carry)."""

import dataclasses

import pytest

from repro.core.config import DctcpPlusConfig
from repro.net.topology import build_star
from repro.sim.engine import Simulator
from repro.tcp.cc import cc_names
from repro.tcp.config import TcpConfig
from repro.workloads.ids import next_flow_id
from repro.workloads.protocols import spec_for


class TestValidation:
    def test_defaults_valid(self):
        cfg = TcpConfig()
        assert cfg.mss == 1460
        assert cfg.min_cwnd_mss == 2.0

    @pytest.mark.parametrize(
        "field,value",
        [
            ("mss", 0),
            ("mss", -1),
            ("init_cwnd_mss", 0),
            ("min_cwnd_mss", 0),
            ("dctcp_g", 0.0),
            ("dctcp_g", 1.5),
            ("dupack_threshold", 0),
            ("rto_min_ns", 0),
        ],
    )
    def test_rejects_invalid(self, field, value):
        with pytest.raises(ValueError):
            TcpConfig(**{field: value})

    def test_rejects_rto_max_below_min(self):
        with pytest.raises(ValueError):
            TcpConfig(rto_min_ns=1000, rto_max_ns=500)


class TestDerived:
    def test_byte_views(self):
        cfg = TcpConfig(mss=1000, init_cwnd_mss=3, min_cwnd_mss=2, init_ssthresh_mss=10)
        assert cfg.init_cwnd_bytes == 3000
        assert cfg.min_cwnd_bytes == 2000
        assert cfg.init_ssthresh_bytes == 10_000
        assert cfg.timeout_cwnd_bytes == 1000

    def test_with_overrides_copies(self):
        cfg = TcpConfig()
        derived = cfg.with_overrides(rto_min_ns=10_000_000)
        assert derived.rto_min_ns == 10_000_000
        assert cfg.rto_min_ns == 200_000_000
        assert derived.mss == cfg.mss

    def test_with_overrides_validates(self):
        with pytest.raises(ValueError):
            TcpConfig().with_overrides(mss=-5)


@pytest.mark.parametrize(
    "cls,good,bad",
    [
        (TcpConfig, {"min_cwnd_mss": 1.0, "ecn_enabled": True}, {"min_cwnd_mss": 0}),
        (DctcpPlusConfig, {"randomize": False}, {"divisor_factor": 1.0}),
    ],
)
class TestOverridesMemo:
    """``with_overrides`` is memoised per object; the memo is not identity."""

    def test_same_overrides_return_the_same_copy(self, cls, good, bad):
        cfg = cls()
        derived = cfg.with_overrides(**good)
        assert derived is cfg.with_overrides(**good) is not cfg
        assert derived == cls(**good)
        assert cfg.with_overrides() is not derived  # another key, another copy
        assert cfg.with_overrides() == cfg

    def test_memo_stays_out_of_identity(self, cls, good, bad):
        served, fresh = cls(), cls()
        served.with_overrides(**good)
        assert served == fresh and hash(served) == hash(fresh)
        assert repr(served) == repr(fresh)
        assert dataclasses.asdict(served) == dataclasses.asdict(fresh)
        assert not dataclasses.replace(served)._derived  # a copy starts its own memo

    def test_failed_override_raises_every_time_and_caches_nothing(self, cls, good, bad):
        cfg = cls()
        for _ in range(2):
            with pytest.raises(ValueError):
                cfg.with_overrides(**bad)
        assert not cfg._derived


#: Strategies whose built sender runs at a 1 MSS floor / with ECN off, as
#: every earlier release built them.
ONE_MSS_FLOOR = {"dctcp+", "dctcp+norand", "tcp+", "d2tcp+", "external:dctcp-plus-scripted"}
NO_ECN = {"tcp", "tcp+"}


def test_spec_for_resolves_to_the_same_values_as_before_the_memo():
    assert spec_for("dctcp+norand").plus_config == DctcpPlusConfig(randomize=False)
    names = cc_names() + ("external:dctcp-plus-scripted", "external:deadline-greedy")
    for explicit in ({}, {"min_cwnd_mss": 2.0, "rto_min_ns": 10_000_000}):
        for name in names:
            sim = Simulator()
            tree = build_star(sim, n_senders=1)
            spec = spec_for(name, tcp_overrides=explicit)
            sender = spec.make_sender(sim, tree.servers[0], tree.aggregator.node_id, next_flow_id())
            expected = TcpConfig(
                min_cwnd_mss=1.0 if name in ONE_MSS_FLOOR else 2.0, ecn_enabled=name not in NO_ECN
            ).with_overrides(**explicit)
            assert sender.config == expected, (name, explicit)
