"""Tests for the congestion-control strategy registry (repro.tcp.cc)."""

import pytest

from repro.exec.scenario import ScenarioSpec, run_scenario
from repro.net.topology import build_star
from repro.sim.engine import Simulator
from repro.tcp.cc import (
    CongestionControl,
    cc_labels,
    cc_names,
    get_cc,
    register,
)
from repro.tcp import cc as cc_module
from repro.tcp.dctcp import DctcpSender
from repro.tcp.sender import TcpSender
from repro.workloads.ids import next_flow_id
from repro.workloads.protocols import PROTOCOLS, spec_for

#: The paper's protocol matrix, in presentation order, followed by the
#: two arena competitors.
BUILTINS = (
    "tcp", "dctcp", "dctcp+", "dctcp+norand", "tcp+", "d2tcp", "d2tcp+",
    "pulser", "tbtcp",
)


@pytest.fixture
def restore_registry():
    """Put the registry back as it was, whatever the test registered."""
    saved = dict(cc_module._REGISTRY)
    yield
    cc_module._REGISTRY.clear()
    cc_module._REGISTRY.update(saved)


class TestRegistry:
    def test_builtins_registered_in_paper_order(self):
        assert cc_names()[: len(BUILTINS)] == BUILTINS

    def test_protocols_constant_mirrors_registry(self):
        assert PROTOCOLS == cc_names()

    def test_get_cc_unknown_raises_with_choices(self):
        with pytest.raises(ValueError, match="unknown congestion control"):
            get_cc("vegas")

    def test_labels_cover_every_strategy(self):
        labels = cc_labels()
        assert set(labels) == set(cc_names())
        assert labels["dctcp+"] == "DCTCP+"
        assert labels["pulser"] == "Pulser"

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            register(CongestionControl(name="dctcp", label="X", factory=lambda *a: None))

    def test_replace_and_add(self, restore_registry):
        original = get_cc("dctcp")
        substitute = CongestionControl(name="dctcp", label="DCTCP*", factory=original.factory)
        register(substitute, replace=True)
        assert get_cc("dctcp") is substitute
        added = register(CongestionControl(name="tmp-cc", label="T", factory=original.factory))
        assert get_cc("tmp-cc") is added and cc_names()[-1] == "tmp-cc"

    def test_metadata_matches_paper_matrix(self):
        assert not get_cc("tcp").ecn
        assert not get_cc("tcp+").ecn
        assert all(get_cc(n).ecn for n in BUILTINS if n not in ("tcp", "tcp+"))
        assert {n for n in BUILTINS if get_cc(n).slow_time} == {
            "dctcp+", "dctcp+norand", "tcp+", "d2tcp+",
        }
        assert {n for n in BUILTINS if get_cc(n).deadline_aware} == {"d2tcp", "d2tcp+"}
        assert get_cc("pulser").install_network is not None


class TestBuild:
    def _build(self, name, **kwargs):
        sim = Simulator()
        tree = build_star(sim, n_senders=1)
        sender = get_cc(name).build(
            sim, tree.servers[0], tree.aggregator.node_id, next_flow_id(), **kwargs
        )
        return sender

    def test_build_resolves_default_configs(self):
        sender = self._build("dctcp")
        assert isinstance(sender, DctcpSender)
        assert sender.config.ecn_enabled

    def test_tcp_strategy_forces_ecn_off(self):
        sender = self._build("tcp")
        assert type(sender) is TcpSender
        assert not sender.config.ecn_enabled

    def test_deadline_reaches_d2tcp(self):
        sender = self._build("d2tcp", deadline_ns=5_000_000)
        assert sender.deadline_ns == 5_000_000


class TestCustomStrategyEndToEnd:
    def test_registered_strategy_runs_through_spec_and_scenario(self, restore_registry):
        def factory(sim, host, dst, fid, tcp_config, plus_config, on_complete, deadline):
            return DctcpSender(sim, host, dst, fid, config=tcp_config, on_complete=on_complete)

        register(CongestionControl(name="test-cc", label="TestCC", factory=factory))
        assert spec_for("test-cc").label == "TestCC"
        spec = ScenarioSpec.create(protocol="dctcp", cc="test-cc", n_flows=2, rounds=1, seed=1)
        assert spec.cc_name == "test-cc"
        result = run_scenario(spec)
        assert result.goodput_mbps > 0

    def test_cc_dimension_changes_cache_key(self):
        base = ScenarioSpec.create(protocol="dctcp", n_flows=2, rounds=1, seed=1)
        routed = ScenarioSpec.create(protocol="dctcp", cc="dctcp", n_flows=2, rounds=1, seed=1)
        assert base.cache_key() != routed.cache_key()
        assert routed.to_dict()["cc"] == "dctcp"
