"""What every experiment shares: its result type and the one batch path.

:func:`run_incast_batch` submits many (protocol, N) measurements to the
ambient executor (see :mod:`repro.exec.context`) as one flat batch of
seeded :class:`~repro.exec.ScenarioSpec` points, so a ``--workers N`` run
parallelizes across protocols, N values and seeds at once, and a
``--cache-dir`` run skips every point computed before.
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


def run_incast_batch(requests: Sequence[Mapping]) -> List[PointResult]:
    """Run many (protocol, N) measurements as **one** executor batch.

    Each request is a kwargs mapping for :meth:`ScenarioSpec.create`, with
    ``seeds`` (default ``(1,)``) in place of ``seed``.  All per-seed points
    of all requests are flattened into a single submission — the unit of
    parallelism — and each request's seeds are aggregated back into one
    :class:`PointResult` (goodput/FCT averaged; flow stats and queue
    samples concatenated), returned in request order.  A point several
    requests ask for (equal :meth:`~ScenarioSpec.cache_key`) is submitted
    once and its result handed to each of them.
    """
    specs: List[ScenarioSpec] = []
    index: Dict[str, int] = {}
    picks: List[List[int]] = []
    for request in requests:
        kwargs = dict(request)
        seeds = kwargs.pop("seeds", (1,))
        pick = []
        for seed in seeds:
            spec = ScenarioSpec.create(seed=seed, **kwargs)
            key = spec.cache_key()
            if key not in index:
                index[key] = len(specs)
                specs.append(spec)
            pick.append(index[key])
        picks.append(pick)
    results = get_executor().map(specs)
    return [PointResult.aggregate([results[i] for i in pick]) for pick in picks]


#: N values of the paper-scale sweeps.
PAPER_N_VALUES_FIG1 = tuple(range(5, 101, 5))
PAPER_N_VALUES_FIG7 = tuple(range(10, 201, 10))
