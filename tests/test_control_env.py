"""ControlEnv: the step/observe/act loop, its determinism tier, and the
autopilot byte-equivalence to uncontrolled runs."""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys

import pytest

from repro.control import Action, ControlEnv
from repro.exec.executors import ParallelExecutor, SerialExecutor
from repro.exec.scenario import ScenarioSpec, run_scenario

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def _payload(result) -> dict:
    payload = result.to_dict()
    payload.pop("wall_time_s", None)
    return payload


def _episode(protocol="dctcp", agent=None, **kwargs):
    """Run one full episode; returns (observations, summary)."""
    env = ControlEnv(protocol=protocol, **kwargs)
    observations = [env.reset()]
    while not observations[-1].done:
        action = agent(observations[-1]) if agent is not None else None
        observations.append(env.step(action))
    summary = env.summary()
    env.close()
    return observations, summary


# -- the agent loop ----------------------------------------------------------------
def test_reset_step_observe_basics():
    env = ControlEnv(n_flows=4, rounds=1, seed=1)
    obs = env.reset()
    assert obs.flow == 0 and not obs.done
    assert obs.cwnd_bytes > 0 and obs.acked_bytes >= 0
    assert env.observe() is obs
    nxt = env.step(None)
    assert env.observe() is nxt
    assert nxt.step == obs.step + 1
    env.close()


def test_step_before_reset_raises():
    env = ControlEnv(n_flows=4, rounds=1)
    with pytest.raises(RuntimeError):
        env.step(None)
    with pytest.raises(RuntimeError):
        env.observe()


def test_step_after_done_raises():
    env = ControlEnv(n_flows=2, rounds=1, seed=1)
    obs = env.reset()
    while not obs.done:
        obs = env.step(None)
    with pytest.raises(RuntimeError):
        env.step(None)
    env.close()


def test_controlled_ordinals_validated():
    with pytest.raises(ValueError):
        ControlEnv(n_flows=4, controlled=())
    with pytest.raises(ValueError):
        ControlEnv(n_flows=4, controlled=(7,))


def test_observation_stream_is_plausible():
    observations, summary = _episode(n_flows=8, rounds=2, seed=1)
    assert observations[-1].done
    assert all(0.0 <= o.marked_fraction <= 1.0 for o in observations)
    assert any(o.queue_highwater_bytes > 0 for o in observations)
    assert all(o.time_ns >= p.time_ns for p, o in zip(observations, observations[1:]))
    assert summary["goodput_mbps"] > 0
    assert summary["rounds"] == 2.0


def test_one_shared_queue_watcher_matches_per_flow_closures():
    """Sixteen controlled flows read one peak field on the bottleneck queue,
    and each still reports the peak since its own last observation.  The
    stream is pinned to the one a per-flow closure chain on every admit
    produced (a reference that needed an enqueue callback, since deleted):
    its length, first and last observations, and a digest of every field
    of every observation."""
    kwargs = dict(n_flows=16, rounds=2, seed=1, controlled=tuple(range(16)))

    def agent(obs):
        if obs.queue_highwater_bytes > 24_000:
            return Action(cwnd_scale=0.5)
        if obs.step % 4 == 1:
            return Action(pacing_interval_ns=20_000)
        return None

    env = ControlEnv(**kwargs)
    observations = [env.reset()]
    while not observations[-1].done:
        observations.append(env.step(agent(observations[-1])))
    peers = env._bridges[0].assembler._peers
    assert len(peers) == 16
    assert all(bridge.assembler._peers is peers for bridge in env._bridges)
    env.close()

    rows = [vars(o) for o in observations]
    assert len(rows) == 1195
    # time_ns, flow, step, cwnd, ssthresh, inflight, srtt_ns, alpha, acked,
    # marked_fraction, queue_highwater_bytes, FLoss-TO, LAck-TO, done
    assert tuple(rows[0].values()) == (
        147072, 0, 0, 4380.0, 93440.0, 1460, 109536, 0.9375, 1460, 0.0, 1500, 0, 0, False
    )
    assert tuple(rows[-1].values()) == (
        17477088, 0, 56, 2920.0, 2920.0, 0, 384009, 0.9580274642827508, 0, 0.0, 33844, 0, 0, True
    )
    blob = json.dumps(rows, sort_keys=True).encode()
    assert hashlib.sha256(blob).hexdigest() == (
        "fb217e025ce599f8f987e3b19ffa8085880eb302c85bb9f4414d68519f7f1964"
    )
    peaks = {o.queue_highwater_bytes for o in observations}
    assert len(peaks) > 2 and max(peaks) > 24_000


# -- autopilot equivalence ---------------------------------------------------------
@pytest.mark.parametrize("protocol", ["dctcp", "dctcp+"])
def test_autopilot_episode_matches_uncontrolled_run(protocol):
    """step(None) on every boundary must reproduce the uncontrolled scenario
    byte-for-byte: same goodput, FCT, timeouts and round count."""
    _, summary = _episode(protocol=protocol, n_flows=8, rounds=2, seed=1)
    spec = ScenarioSpec.create(protocol=protocol, n_flows=8, rounds=2, seed=1)
    reference = run_scenario(spec)
    assert summary["goodput_mbps"] == pytest.approx(reference.goodput_mbps, abs=0)
    assert summary["fct_ms"] == pytest.approx(reference.fct_ms, abs=0)
    assert summary["timeouts"] == reference.timeouts


def test_actions_perturb_the_episode():
    _, autopilot = _episode(n_flows=8, rounds=2, seed=1)
    _, throttled = _episode(
        n_flows=8, rounds=2, seed=1,
        agent=lambda obs: Action(cwnd_scale=0.5),
    )
    assert throttled != autopilot


def test_cwnd_action_is_quantized_and_floored():
    env = ControlEnv(n_flows=4, rounds=1, seed=1)
    obs = env.reset()
    bridge = env._bridge_by_flow[obs.flow]
    env.step(Action(cwnd_bytes=1.0))  # absurdly small: must floor, not die
    sender = bridge.sender
    assert sender.cwnd >= sender.config.min_cwnd_bytes
    assert sender.cwnd % sender.config.mss == 0
    env.close()


def test_pacing_action_spaces_departures():
    _, paced = _episode(
        n_flows=8, rounds=2, seed=1,
        agent=lambda obs: Action(pacing_interval_ns=50_000),
    )
    _, free = _episode(n_flows=8, rounds=2, seed=1)
    assert paced["fct_ms"] > free["fct_ms"]


# -- determinism tier --------------------------------------------------------------
def test_episode_deterministic_across_instances():
    a_obs, a_sum = _episode(n_flows=8, rounds=2, seed=1)
    b_obs, b_sum = _episode(n_flows=8, rounds=2, seed=1)
    assert a_sum == b_sum
    assert [vars(o) for o in a_obs] == [vars(o) for o in b_obs]


def test_external_spec_serial_vs_parallel_and_validate():
    specs = [
        ScenarioSpec.create(
            protocol="dctcp+", cc="external:dctcp-plus-scripted",
            n_flows=n, rounds=2, seed=1,
        )
        for n in (4, 8)
    ]
    serial = [_payload(r) for r in SerialExecutor().map(specs)]
    parallel = [_payload(r) for r in ParallelExecutor(workers=2).map(specs)]
    assert serial == parallel
    validated = [_payload(run_scenario(s, validate=True)) for s in specs]
    assert serial == validated


def test_episode_digest_stable_across_process_restarts():
    code = (
        "import json, sys\n"
        "from repro.control import ControlEnv, Action\n"
        "env = ControlEnv(n_flows=8, rounds=2, seed=1)\n"
        "obs = env.reset()\n"
        "step = 0\n"
        "while not obs.done:\n"
        "    act = Action(cwnd_scale=0.5) if step % 3 == 0 else None\n"
        "    obs = env.step(act)\n"
        "    step += 1\n"
        "print(json.dumps(env.summary(), sort_keys=True))\n"
    )
    outs = []
    for _ in range(2):
        proc = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True, text=True, timeout=300,
            env=dict(os.environ, PYTHONPATH=SRC, PYTHONHASHSEED="random"),
        )
        assert proc.returncode == 0, proc.stderr
        outs.append(proc.stdout)
    assert outs[0] == outs[1]
    digest = hashlib.sha256(outs[0].encode()).hexdigest()
    assert json.loads(outs[0])["goodput_mbps"] > 0
    assert len(digest) == 64


# -- env vs native/validated dispatch (satellite regression) ------------------------
def test_env_refuses_nothing_but_composes_with_validate():
    _, plain = _episode(n_flows=4, rounds=1, seed=1)
    _, validated = _episode(n_flows=4, rounds=1, seed=1, validate=True)
    assert plain == validated


def test_env_uses_pure_dispatch():
    env = ControlEnv(n_flows=4, rounds=1, seed=1)
    env.reset()
    assert not env.sim.native
    env.close()
