"""``python -m bench --compare A.json B.json``: judge B (the change) against
A (the parent), one row per (end-to-end metric, workload).

The rules are choosing-metrics sections 6 and 8: a metric is ``worse``
when B's median is worse than A's by more than the metric's bound;
where either side's interquartile spread is wider than the bound the row
is ``unresolved`` — not "unchanged" — unless every run of B beats every
run of A; everything else is ``ok``.  Every delta is a share of A's
median.  Payloads measured under different dispatch modes or at different
scales are refused: their numbers are not two versions of one thing.
"""

from __future__ import annotations

import statistics
from typing import Dict, List, Sequence, Tuple

from .metrics import E2E_BY_NAME, worse_by
from .runner import quartiles


class Incomparable(ValueError):
    """The two payloads did not measure the same thing."""


def spread(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median."""
    median = statistics.median(values)
    if median == 0:
        return 0.0
    q1, q3 = quartiles(values)
    return (q3 - q1) / abs(median)


def verdict(metric, a: Sequence[float], b: Sequence[float]) -> Tuple[str, float]:
    """``("ok" | "worse" | "unresolved", B's worsening as a share of A's median)``."""
    delta = worse_by(metric, statistics.median(a), statistics.median(b))
    if max(spread(a), spread(b)) > metric.bound:
        if metric.better == "lower":
            b_beats_a = max(b) < min(a)
        else:
            b_beats_a = min(b) > max(a)
        return ("ok" if b_beats_a else "unresolved"), delta
    return ("worse" if delta > metric.bound else "ok"), delta


def check_comparable(a: dict, b: dict) -> None:
    if a["manifest"]["scale"] != b["manifest"]["scale"]:
        raise Incomparable(
            f"scales differ: {a['manifest']['scale']} vs {b['manifest']['scale']}")
    for name in sorted(set(a["workloads"]) & set(b["workloads"])):
        modes = [(p["workloads"][name].get("environment") or {}).get("dispatch") for p in (a, b)]
        if modes[0] != modes[1]:
            raise Incomparable(f"{name}: dispatch modes differ: {modes[0]} vs {modes[1]}")


def compare(a: dict, b: dict) -> List[Dict[str, object]]:
    """One row per (metric, workload) present in both payloads."""
    check_comparable(a, b)
    rows: List[Dict[str, object]] = []
    for name in a["workloads"]:
        if name not in b["workloads"]:
            continue
        wa, wb = a["workloads"][name], b["workloads"][name]
        for metric_name, ma in wa["metrics"].items():
            mb = wb["metrics"].get(metric_name)
            metric = E2E_BY_NAME.get(metric_name)
            if mb is None or metric is None:
                continue
            outcome, delta = verdict(metric, ma["values"], mb["values"])
            rows.append(dict(workload=name, metric=metric_name, unit=metric.unit,
                             a=ma, b=mb, delta=delta, bound=metric.bound, verdict=outcome))
        for key in ("events", "sim_digest"):
            if wa.get(key) != wb.get(key):
                rows.append(dict(workload=name, metric=key, note="differs: the two sides "
                                 "simulated different things", verdict="info"))
        if wb["failed"] > wa["failed"]:
            rows.append(dict(workload=name, metric="fail_share", verdict="worse",
                             note=f"{wa['failed']} -> {wb['failed']} failed ops"))
    return rows


def format_rows(rows: List[Dict[str, object]]) -> List[str]:
    lines = [f"{'workload':<20} {'metric':<19} {'A median [q1, q3]':>34} "
             f"{'B median [q1, q3]':>34} {'delta/A':>8} {'bound':>6}  verdict"]
    for row in rows:
        if "note" in row:
            lines.append(f"{row['workload']:<20} {row['metric']:<19} {row['note']}  "
                         f"{row['verdict']}")
            continue
        sides = [f"{m['median']:.5g} [{m['q1']:.5g}, {m['q3']:.5g}] n={m['n']}"
                 for m in (row["a"], row["b"])]
        lines.append(
            f"{row['workload']:<20} {row['metric']:<19} {sides[0]:>34} {sides[1]:>34} "
            f"{row['delta']:>+8.1%} {row['bound']:>6.0%}  {row['verdict']}"
        )
    return lines
