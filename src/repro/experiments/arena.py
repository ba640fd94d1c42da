"""Arena — every registered congestion control, head-to-head on the
paper's incast sweep.

Each strategy in the :mod:`repro.tcp.cc` registry runs the basic incast
workload over the fan-in sweep (N = 2…256 at paper scale) and is scored
per point on:

- **goodput** (the paper's headline metric, Fig. 1/7),
- **p99 FCT** across rounds (the tail the mean hides),
- the **trace-derived timeout taxonomy** — FLoss-TO vs LAck-TO counts
  from the telemetry ``rto`` records (Table I's classification).

Every point runs with tracing on so the taxonomy comes from the same
trace channel the telemetry exporters consume.  The expected headline:
DCTCP collapses past a few dozen flows while DCTCP+ degrades gracefully;
the arena shows where Pulser's explicit notification and TBTCP's tiny-
buffer pacing land between them.

Custom strategies registered before the run (``repro.register``)
are scored automatically; ``ccs=(...)`` — the CLI's repeatable ``--cc``
flag — picks the field explicitly, and accepts ``external:<policy>``
names so :mod:`repro.control` scripted policies compete on equal
footing (the CI control-smoke job races ``external:dctcp-plus-scripted``
against the builtin and asserts identical rows).
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..tcp.cc import cc_names, get_cc
from ..telemetry.taxonomy import timeout_taxonomy
from .common import ExperimentResult, run_incast_batch

EXPERIMENT_ID = "arena"
TITLE = "CC arena — goodput / p99 FCT / timeout taxonomy vs fan-in"
SUPPORTS_CC_KWARG = True

#: Default sweep: paper-style doubling fan-in at a tractable default scale.
DEFAULT_N_VALUES = (2, 8, 32, 64, 128)

PAPER_SCALE_KWARGS = dict(n_values=(2, 4, 8, 16, 32, 64, 128, 256))
#: ``--quick`` (CI smoke): every strategy, three fan-in points, one seed.
QUICK_KWARGS = dict(n_values=(2, 8, 32), rounds=2, seeds=(1,))


def run(
    n_values: Sequence[int] = DEFAULT_N_VALUES,
    rounds: int = 5,
    seeds: Sequence[int] = (1,),
    ccs: Optional[Sequence[str]] = None,
) -> ExperimentResult:
    field = tuple(ccs) if ccs is not None else cc_names()
    requests = [
        dict(protocol=cc, n_flows=n, rounds=rounds, seeds=seeds, trace=True)
        for cc in field
        for n in n_values
    ]
    points = run_incast_batch(requests)

    rows = []
    for request, point in zip(requests, points):
        taxonomy = timeout_taxonomy(point.trace_events)
        rows.append(
            [
                get_cc(request["protocol"]).label,
                request["n_flows"],
                round(point.goodput_mbps, 1),
                round(point.fct_p99_ms, 2),
                point.timeouts,
                taxonomy.get("FLOSS", 0),
                taxonomy.get("LACK", 0),
                point.bad_rounds,
            ]
        )

    notes = [
        f"{len(field)} strategies x {len(n_values)} fan-in points, "
        f"{rounds} rounds x {len(seeds)} seed(s) each",
        "timeout taxonomy (FLoss/LAck) derived from telemetry rto trace records",
        "expected: DCTCP collapses at high fan-in while DCTCP+ degrades "
        "gracefully (paper Fig. 7); Pulser/TBTCP land in between",
    ]
    return ExperimentResult(
        EXPERIMENT_ID,
        TITLE,
        ["CC", "N", "goodput (Mbps)", "p99 FCT (ms)", "timeouts", "FLoss-TO", "LAck-TO", "bad rounds"],
        rows,
        notes=notes,
    )
