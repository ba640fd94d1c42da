"""The typed CC event protocol (repro.tcp.events) and the step boundary it relies on."""

from __future__ import annotations

import pytest

from repro.sim.engine import Simulator
from repro.tcp.events import CC_ACK, CC_ACK_ECHO, CC_INC_ECHO, CC_RTO, CC_SEND, CCEvent


def test_kind_constants_are_distinct():
    kinds = {CC_ACK, CC_ACK_ECHO, CC_INC_ECHO, CC_RTO, CC_SEND}
    assert len(kinds) == 5


def test_event_is_slotted_and_reusable():
    ev = CCEvent()
    assert ev.kind is CC_ACK
    with pytest.raises(AttributeError):
        ev.arbitrary = 1  # transient record: no __dict__, no growth
    # One event is mutated in place across dispatches (hot path allocates
    # nothing); handlers compare kind with `is` against the interned names.
    ev.kind = CC_RTO
    assert ev.kind is CC_RTO
    ev.kind = CC_ACK_ECHO
    assert ev.kind is CC_ACK_ECHO


SENDER_CLASSES = [
    "TcpSender",
    "DctcpSender",
    "D2tcpSender",
    "PulserSender",
    "TbtcpSender",
]


@pytest.mark.parametrize("cls_name", SENDER_CLASSES)
def test_builtin_strategies_implement_the_protocol(cls_name):
    from repro.tcp import d2tcp, dctcp, pulser, sender, tbtcp

    cls = None
    for module in (sender, dctcp, d2tcp, pulser, tbtcp):
        cls = getattr(module, cls_name, cls)
    assert cls is not None
    for method in ("on_ack", "on_ecn_echo", "on_rto", "on_send_opportunity"):
        assert callable(getattr(cls, method)), f"{cls_name} lacks {method}"


def test_legacy_cc_hooks_are_gone():
    """The ad-hoc pre-protocol hooks must not linger on any sender class."""
    from repro.tcp.d2tcp import D2tcpSender
    from repro.tcp.dctcp import DctcpSender
    from repro.tcp.pulser import PulserSender
    from repro.tcp.sender import TcpSender
    from repro.tcp.tbtcp import TbtcpSender

    for cls in (TcpSender, DctcpSender, D2tcpSender, PulserSender, TbtcpSender):
        for legacy in ("_cc_on_ack", "_cc_on_timeout", "_after_ack"):
            assert not hasattr(cls, legacy), f"{cls.__name__} still has {legacy}"
    # Pulser used to hijack the ACK-ingress method itself; it now reacts to
    # CC_INC_ECHO through on_ecn_echo instead.
    assert "_on_ack" not in PulserSender.__dict__


def test_external_policy_satisfies_the_event_surface():
    from repro.control import ExternalPolicy

    for method in ("bind", "on_ack", "on_ecn_echo", "on_rto", "on_send_opportunity"):
        assert callable(getattr(ExternalPolicy, method))


# -- step boundaries: request_stop under every dispatch mode -------------------------
@pytest.mark.parametrize("mode", ["pure", "profiled", "validated"])
def test_dispatch_honours_request_stop(mode):
    from repro.telemetry.profiler import EngineProfiler

    observers = {
        "pure": {},
        "profiled": {"profiler": EngineProfiler()},
        "validated": {"validate": True},
    }[mode]
    sim = Simulator(seed=1, native=False, **observers)
    seen = []

    def tick(i):
        seen.append(i)
        if i == 2:
            sim.request_stop()

    for i in range(5):
        sim.schedule(10 * (i + 1), tick, i)
    sim.run()
    assert seen == [0, 1, 2]
    # resume: run() clears the stop latch, the rest of the queue drains
    sim.run()
    assert seen == [0, 1, 2, 3, 4]
