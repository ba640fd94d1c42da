"""control-demo — the step/observe/act environment, exercised end to end.

Three panels on one incast point, all driven through
:class:`~repro.control.ControlEnv` or the ``external:`` strategy path:

1. **autopilot** — every step is ``None``; the controlled flow runs its
   own congestion law.  Scored identically to the uncontrolled builtin
   run (the row pair is the adapter-lossless proof at demo scale).
2. **throttle agent** — a 10-line scripted agent over the observation
   stream: halve the window when the last RTT's marked fraction crosses
   1/2, add a pacing interval while the bottleneck high-water mark is
   above the ECN threshold's neighbourhood.
3. **external policies** — ``external:dctcp-plus-scripted`` and
   ``external:deadline-greedy`` run through the ordinary scenario/arena
   machinery (no env), showing the same policy classes compete in batch
   experiments.

The demo is deterministic end to end: the env draws no randomness, the
agent is a pure function of the observation, and the external points run
through seeded :class:`~repro.exec.ScenarioSpec`\\ s.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..control import Action, ControlEnv
from ..tcp.cc import get_cc
from .common import ExperimentResult, run_incast_batch
from .figures import experiment_result

#: Demo point: mid-fan-in where marks are frequent but rounds stay fast.
DEFAULT_N_FLOWS = 32
DEFAULT_ROUNDS = 3
DEFAULT_SEED = 1

#: External strategies scored alongside the env episodes (panel 3).
DEFAULT_CCS = ("external:dctcp-plus-scripted", "external:deadline-greedy")


def throttle_agent(obs) -> Optional[Action]:
    """The demo's scripted controller: back off hard on heavy marking."""
    congested = obs.marked_fraction > 0.5
    cwnd_scale = 0.5 if congested else 1.0
    pacing = 30_000 if obs.queue_highwater_bytes > 24_000 else 0
    if cwnd_scale == 1.0 and pacing == 0:
        return None
    return Action(cwnd_scale=cwnd_scale, pacing_interval_ns=pacing)


def _run_episode(protocol: str, n_flows: int, rounds: int, seed: int, agent):
    env = ControlEnv(protocol=protocol, n_flows=n_flows, rounds=rounds, seed=seed)
    obs = env.reset()
    steps = 0
    while not obs.done:
        obs = env.step(agent(obs) if agent is not None else None)
        steps += 1
    summary = env.summary()
    env.close()
    return steps, summary


def run(
    n_flows: int = DEFAULT_N_FLOWS,
    rounds: int = DEFAULT_ROUNDS,
    seed: int = DEFAULT_SEED,
    ccs: Optional[Sequence[str]] = None,
) -> ExperimentResult:
    rows = []

    # Panel 1+2: env episodes (serial by nature — the agent is in the loop).
    for label, agent in (
        ("env: autopilot (dctcp)", None),
        ("env: throttle agent (dctcp)", throttle_agent),
    ):
        steps, summary = _run_episode("dctcp", n_flows, rounds, seed, agent)
        rows.append(
            [
                label,
                n_flows,
                steps,
                round(summary["goodput_mbps"], 1),
                round(summary["fct_ms"], 2),
                int(summary["timeouts"]),
            ]
        )

    # Panel 3: external policies (plus the builtin reference) through the
    # ordinary batch executor — cacheable, parallelizable, traceable.
    field = ("dctcp", "dctcp+") + (tuple(ccs) if ccs is not None else DEFAULT_CCS)
    requests = [
        dict(protocol=cc, n_flows=n_flows, rounds=rounds, seeds=(seed,))
        for cc in field
    ]
    for request, point in zip(requests, run_incast_batch(requests)):
        rows.append(
            [
                f"batch: {get_cc(request['protocol']).label}",
                n_flows,
                "-",
                round(point.goodput_mbps, 1),
                round(point.fct_ms, 2),
                point.timeouts,
            ]
        )

    notes = [
        f"one incast point: N={n_flows}, {rounds} rounds, seed {seed}",
        "autopilot episode is byte-identical to the uncontrolled dctcp run "
        "(the determinism tier asserts this; here it shows as equal scores)",
        "batch rows run through ScenarioSpec/executor — external:<policy> "
        "names flow through cache keys, sweeps and the fuzzer unchanged",
    ]
    return experiment_result(
        "control-demo",
        ["episode", "N", "steps", "goodput (Mbps)", "FCT (ms)", "timeouts"],
        rows,
        notes,
    )
