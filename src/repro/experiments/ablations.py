"""Ablations — the DCTCP+ design choices the paper discusses in §V.D and
footnote 3, one knob at a time at a fan-in where DCTCP+ must work.

- **backoff unit**: "neither to use the large time unit since it could
  reduce the sending rate too much ... nor to use the small time unit
  because it could not help relieve the severe congestion" — the paper
  advises the baseline RTT (~100 us); swept two orders of magnitude.
- **divisor factor**: "neither to be too big for the premature recovery
  from the congestion state ... nor too conservative".
- **threshold_T**: the Des->NORMAL exit guard the paper never gives a
  value for (DESIGN.md §6); swept to show results are not brittle in it.
- **cwnd floor**: footnote 3 lowers DCTCP+'s floor to 1 MSS and says the
  same floor does not rescue plain DCTCP.  Here it halves DCTCP's
  per-flow footprint, so the collapse knee moves from ~pipeline/2 MSS
  (~47 flows) to ~pipeline/1 MSS (~95) and is unchanged beyond it.
- **desync**: randomized vs lockstep slow_time increments (Fig. 6's
  "partial DCTCP+") past 100 flows.
"""

from __future__ import annotations

from typing import Sequence

from ..tcp.cc import get_cc
from .common import ExperimentResult, run_incast_batch

EXPERIMENT_ID = "ablations"
TITLE = "DCTCP+ design-choice ablations (paper §V.D, footnote 3)"
#: Every row fixes its own fan-in, so the generic --n-values does not apply.
SUPPORTS_SWEEP_KWARGS = False


def _plus(knob: str, field: str, values: Sequence[float], scale: int = 1) -> list:
    """One DCTCP+ row at N=80 per value of a :class:`DctcpPlusConfig` field."""
    return [(knob, v, "dctcp+", 80, dict(plus_overrides={field: v * scale})) for v in values]


#: (knob, value label, protocol, N, extra point kwargs), in table order.
ROWS = (
    *_plus("backoff unit (us)", "backoff_time_unit_ns", (5, 10, 100), scale=1000),
    # The 1 ms row spaces decays 1 ms apart too (EXPERIMENTS.md also
    # reads the unit alone).
    (
        "backoff unit (us)",
        1000,
        "dctcp+",
        80,
        dict(plus_overrides={"backoff_time_unit_ns": 1_000_000, "decay_interval_ns": 1_000_000}),
    ),
    *_plus("divisor factor", "divisor_factor", (1.25, 2.0, 8.0)),
    *_plus("threshold_T (us)", "threshold_t_ns", (5, 25, 100), scale=1000),
    *(("cwnd floor (MSS)", v, "dctcp+", 80, dict(min_cwnd_mss=v)) for v in (1.0, 2.0)),
    *(("cwnd floor (MSS)", 1.0, "dctcp", n, dict(min_cwnd_mss=1.0)) for n in (80, 120)),
    ("desync", "randomized", "dctcp+", 120, {}),
    ("desync", "lockstep", "dctcp+norand", 120, {}),
)


def run(rounds: int = 8, seeds: Sequence[int] = (1,)) -> ExperimentResult:
    points = run_incast_batch(
        [
            dict(protocol=protocol, n_flows=n, rounds=rounds, seeds=seeds, **extra)
            for _, _, protocol, n, extra in ROWS
        ]
    )
    rows = [
        [
            knob,
            value,
            get_cc(protocol).label,
            n,
            round(point.goodput_mbps, 1),
            round(point.fct_ms, 2),
            point.timeouts,
            point.bad_rounds,
        ]
        for (knob, value, protocol, n, _), point in zip(ROWS, points)
    ]
    return ExperimentResult(
        EXPERIMENT_ID,
        TITLE,
        ["knob", "value", "CC", "N", "goodput (Mbps)", "FCT (ms)", "timeouts", "bad rounds"],
        rows,
        notes=[
            f"{rounds} rounds x {len(seeds)} seed(s) per row",
            "paper: unit ~ baseline RTT (100 us), a moderate divisor, floor =",
            "1 MSS for DCTCP+ only (it must not rescue DCTCP), randomized",
            "increments past ~100 flows; EXPERIMENTS.md reads the rows",
        ],
    )
