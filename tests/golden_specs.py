"""Canonical tiny-N invocations of every registry experiment.

The golden-digest test (``tests/test_golden_digests.py``) runs each
registry experiment with these reduced kwargs and compares a SHA-256
digest of the resulting :class:`ExperimentResult` JSON against the
committed ``tests/golden/digests.json``.  The digests pin the *semantic*
output of the whole stack — engine, network, TCP variants, workloads,
drivers — so performance work on the hot path cannot silently change
simulation results.

Regenerate (only when an intentional behaviour change lands) with::

    PYTHONPATH=src python tests/regen_goldens.py
"""

from __future__ import annotations

import hashlib
from typing import Dict

#: Reduced-scale kwargs per experiment id.  Sizes are chosen so the whole
#: registry runs in well under a minute while still exercising every
#: protocol variant, background traffic, queue sampling and the benchmark
#: traffic mix.
TINY_KWARGS: Dict[str, dict] = {
    "fig1": dict(n_values=(4, 8), rounds=2, seeds=(1,)),
    "fig2": dict(n_values=(4, 8), rounds=2, seeds=(1,)),
    "table1": dict(n_values=(4, 8), rounds=2, seeds=(1,)),
    "fig6": dict(n_values=(4, 8), rounds=2, seeds=(1,)),
    "fig7": dict(n_values=(4, 8), rounds=2, seeds=(1,)),
    "fig8": dict(n_values=(4, 8), rounds=2, seeds=(1,)),
    "fig9": dict(n_values=(4, 8), rounds=2, seeds=(1,)),
    # A stalled TCP round simulates its full deadline's worth of background
    # traffic; cap it low so the golden run stays fast.
    "fig11": dict(n_values=(4, 8), rounds=2, seeds=(1,), round_deadline_ns=250_000_000),
    "fig12": dict(n_values=(4, 8), rounds=2, seeds=(1,), round_deadline_ns=250_000_000),
    "fig13": dict(n_queries=12, n_background=12, n_short=4, query_fanout=6, seed=1),
    "fig14": dict(n_flows=6, bytes_per_flow=128 * 1024, rounds=2, seed=1),
    # Every registered CC (including pulser/tbtcp and their inc-bit network
    # path) over a small fan-in spread; traced, so the digest also pins the
    # telemetry-derived taxonomy columns.
    "arena": dict(n_values=(4, 8), rounds=2, seeds=(1,)),
    # The full {two-tier, dumbbell, fat-tree} x {incast, http, swarm} matrix
    # at tiny scale: pins the topology builders, seeded ECMP path selection
    # and both closed-loop workloads end to end.
    "topo-matrix": dict(n_flows=4, rounds=2, seeds=(1,)),
    # ControlEnv autopilot + scripted throttle agent, plus the external
    # policies through the batch executor: pins the CC event protocol, the
    # env's observation/window machinery and the external: resolution path.
    "control-demo": dict(n_flows=8, rounds=2, seed=1),
    # Fixed-N tables (N=40..120), one round each: pins every DctcpPlusConfig
    # override, the deadline incast, tcp+/d2tcp+ and the shared-pool switch.
    "ablations": dict(rounds=1, seeds=(1,)),
    "extensions": dict(rounds=1, seeds=(1,)),
}


#: (runner, frozen kwargs) -> digest.  fig11/fig12 share one driver and
#: identical tiny kwargs, so the second id reuses the first run's digest.
_memo: Dict[tuple, str] = {}


def digest_experiment(experiment_id: str) -> str:
    """Run one registry experiment at tiny scale and digest its JSON."""
    from repro.experiments.registry import get_runner

    runner = get_runner(experiment_id)
    kwargs = TINY_KWARGS[experiment_id]
    key = (runner, tuple(sorted(kwargs.items())))
    if key not in _memo:
        result = runner(**kwargs)
        _memo[key] = hashlib.sha256(result.to_json().encode()).hexdigest()
    return _memo[key]
