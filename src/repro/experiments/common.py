"""Shared infrastructure for the per-figure experiment drivers.

Every driver produces an :class:`ExperimentResult` — a titled table plus
free-form notes — by submitting a batch of declarative
:class:`~repro.exec.ScenarioSpec` points to the ambient executor (see
:mod:`repro.exec.context`), so that all figures share one measurement
methodology:

- a fresh :class:`~repro.sim.engine.Simulator` and two-tier tree per
  (protocol, N, seed) point;
- persistent-connection incast rounds (see
  :class:`~repro.workloads.incast.IncastWorkload`);
- results averaged across seeds (the paper averages 1000 repetitions; we
  default to fewer rounds x seeds and the CLI exposes ``--rounds/--seeds``).

Because the whole figure goes to the executor as **one flat batch**, a
``--workers N`` run parallelizes across protocols, N values and seeds at
once, and a ``--cache-dir`` run skips every point computed before.
:func:`run_incast_point` / :func:`run_incast_sweep` remain as thin wrappers
over the batch API for callers that want a single point or a single sweep.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence

from ..exec import PointResult, ScenarioSpec, get_executor
from ..telemetry.export import format_table
from ..workloads.protocols import ProtocolSpec

#: Backwards-compatible alias: the ad-hoc per-figure result type is now the
#: execution layer's :class:`~repro.exec.PointResult` (with background
#: throughput as a declared field instead of a dynamically stashed one).
IncastPointResult = PointResult


@dataclass
class ExperimentResult:
    """A reproduced table/figure, ready to print or export."""

    experiment_id: str
    title: str
    headers: List[str]
    rows: List[List[object]]
    notes: List[str] = field(default_factory=list)

    def to_text(self) -> str:
        text = format_table(self.headers, self.rows, title=f"{self.experiment_id}: {self.title}")
        if self.notes:
            text += "\n" + "\n".join(f"note: {n}" for n in self.notes)
        return text

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(self.headers)
        writer.writerows(self.rows)
        # Notes ride along as a trailing comment stanza so CSV exports keep
        # the caveats without breaking header-first consumers.
        for note in self.notes:
            buf.write(f"# note: {note}\r\n")
        return buf.getvalue()

    def to_json(self) -> str:
        """Machine-readable export (``--json``)."""
        return json.dumps(
            {
                "experiment_id": self.experiment_id,
                "title": self.title,
                "headers": self.headers,
                "rows": self.rows,
                "notes": self.notes,
            },
            indent=2,
        )


def make_spec(
    protocol: str,
    rto_min_ms: Optional[float] = None,
    min_cwnd_mss: Optional[float] = None,
    plus_overrides: Optional[dict] = None,
) -> ProtocolSpec:
    """Protocol spec with the overrides the figures vary (resolved exactly
    as a :class:`ScenarioSpec` point would resolve them)."""
    return ScenarioSpec.create(
        protocol, 1, rto_min_ms=rto_min_ms, min_cwnd_mss=min_cwnd_mss, plus_overrides=plus_overrides
    ).protocol_spec()


def point_specs(
    protocol: str,
    n_flows: int,
    rounds: int = 20,
    seeds: Sequence[int] = (1,),
    max_events_per_seed: int = 400_000_000,
    **kwargs,
) -> List[ScenarioSpec]:
    """The per-seed :class:`ScenarioSpec` batch behind one (protocol, N)
    measurement; kwargs as accepted by :meth:`ScenarioSpec.create`."""
    return [
        ScenarioSpec.create(
            protocol,
            n_flows,
            rounds=rounds,
            seed=seed,
            max_events=max_events_per_seed,
            **kwargs,
        )
        for seed in seeds
    ]


def run_incast_batch(requests: Sequence[Mapping]) -> List[PointResult]:
    """Run many (protocol, N) measurements as **one** executor batch.

    Each request is a kwargs mapping for :func:`point_specs` (i.e. the
    historical :func:`run_incast_point` signature).  All per-seed points of
    all requests are flattened into a single submission — the unit of
    parallelism — and each request's seeds are aggregated back into one
    :class:`PointResult`, returned in request order.
    """
    specs: List[ScenarioSpec] = []
    slices: List[slice] = []
    for request in requests:
        start = len(specs)
        specs.extend(point_specs(**request))
        slices.append(slice(start, len(specs)))
    results = get_executor().map(specs)
    return [PointResult.aggregate(results[s]) for s in slices]


def run_incast_point(
    protocol: str,
    n_flows: int,
    rounds: int = 20,
    seeds: Sequence[int] = (1,),
    **kwargs,
) -> PointResult:
    """Run the basic incast experiment at one (protocol, N) point.

    Averages goodput/FCT across seeds; concatenates flow stats and queue
    samples (for Fig. 2 / Table I / Fig. 9 post-processing).
    """
    return run_incast_batch(
        [dict(protocol=protocol, n_flows=n_flows, rounds=rounds, seeds=seeds, **kwargs)]
    )[0]


def run_incast_sweep(
    protocols: Sequence[str],
    n_values: Sequence[int],
    **kwargs,
) -> Dict[str, List[PointResult]]:
    """Sweep N for each protocol in one batch; kwargs forwarded per point."""
    requests = [
        dict(protocol=protocol, n_flows=n, **kwargs)
        for protocol in protocols
        for n in n_values
    ]
    points = run_incast_batch(requests)
    results: Dict[str, List[PointResult]] = {}
    for request, point in zip(requests, points):
        results.setdefault(request["protocol"], []).append(point)
    return results


#: N values used by the reduced and paper-scale sweeps.
BENCH_N_VALUES = (10, 20, 40, 60, 80)
PAPER_N_VALUES_FIG1 = tuple(range(5, 101, 5))
PAPER_N_VALUES_FIG7 = tuple(range(10, 201, 10))
