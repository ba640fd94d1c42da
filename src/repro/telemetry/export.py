"""Exporters: JSONL trace streams, CSV summaries and text tables.

Three formats, one rule each:

- **JSONL** — one :class:`~repro.telemetry.tracer.TraceRecord` per line as
  a JSON object with stable key order (``time_ns, kind, subject, value,
  detail``).  Line-oriented so traces stream, diff, and grep well; the
  golden-trace test pins the exact bytes for a small scenario.
- **CSV** — any :class:`~repro.telemetry.collector.Collector` (something
  with ``schema()`` + ``rows()``) renders via its shared ``to_csv``.
- **Text tables** — :func:`format_table`, the aligned monospace layout
  every experiment driver renders through, so ``python -m repro
  experiments <id>`` output is uniform and diffable.

Round-trip: :func:`read_jsonl` parses what :func:`write_jsonl` wrote back
into records, so cached traces can be re-analyzed without re-simulating.
"""

from __future__ import annotations

import json
import os
from typing import Iterable, List, Sequence, Union

from .collector import Collector
from .tracer import TraceRecord


def records_to_jsonl(records: Iterable[TraceRecord]) -> str:
    """Serialize records as JSON Lines text (trailing newline included)."""
    lines = []
    for r in records:
        lines.append(
            json.dumps(
                {
                    "time_ns": r.time_ns,
                    "kind": r.kind,
                    "subject": r.subject,
                    "value": r.value,
                    "detail": r.detail,
                },
                separators=(",", ":"),
            )
        )
    return "\n".join(lines) + ("\n" if lines else "")


def records_from_jsonl(text: str) -> List[TraceRecord]:
    """Parse JSON Lines text back into records."""
    records = []
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        obj = json.loads(line)
        records.append(
            TraceRecord(obj["time_ns"], obj["kind"], obj["subject"], obj["value"], obj["detail"])
        )
    return records


def write_jsonl(path: Union[str, os.PathLike], records: Iterable[TraceRecord]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(records_to_jsonl(records))


def read_jsonl(path: Union[str, os.PathLike]) -> List[TraceRecord]:
    with open(path, "r", encoding="utf-8") as fh:
        return records_from_jsonl(fh.read())


def write_csv(path: Union[str, os.PathLike], collector: Collector) -> None:
    """Write any Collector's schema + rows as a CSV file."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(collector.to_csv())
        fh.write("\n")


Cell = Union[str, int, float]


def _render(cell: Cell) -> str:
    if isinstance(cell, float):
        if cell == 0:
            return "0"
        if abs(cell) >= 1000:
            return f"{cell:,.0f}"
        if abs(cell) >= 10:
            return f"{cell:.1f}"
        return f"{cell:.3f}"
    return str(cell)


def format_table(headers: Sequence[str], rows: Iterable[Sequence[Cell]], title: str = "") -> str:
    """Render an aligned monospace table."""
    str_rows: List[List[str]] = [[_render(c) for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        if len(row) != len(headers):
            raise ValueError(f"row has {len(row)} cells but table has {len(headers)} columns")
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    sep = "-+-".join("-" * w for w in widths)
    lines = []
    if title:
        lines.append(title)
        lines.append("=" * len(title))
    lines.append(" | ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append(sep)
    for row in str_rows:
        lines.append(" | ".join(c.rjust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)
