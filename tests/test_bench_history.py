"""``BENCH_history.jsonl``: the committed benchmark trajectory.

One line per commit, ``{pr, commit, seed, seconds, medians}``, appended from
that commit's ``python3 -m bench --seed 1 --out`` payload (the CI ``bench``
job prints the line for the PR head as ``bench-history-row.json``).
"""

import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_every_row_carries_every_gated_cell():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    cells = {
        f"{workload['name']}/{metric['name']}"
        for workload in declared["workloads"]
        for metric in declared["end_to_end"]
    }
    rows = [json.loads(line) for line in (ROOT / "BENCH_history.jsonl").read_text().splitlines()]
    assert rows
    for row in rows:
        assert {"pr", "commit", "seed", "seconds", "medians"} <= row.keys()
        medians = row["medians"]
        assert cells <= medians.keys()
        assert all(isinstance(medians[cell], (int, float)) for cell in cells)
    # A row is written before its own commit exists, so the newest one may
    # say null; the next PR fills it in when it appends its own.
    assert all(row["commit"] for row in rows[:-1])
