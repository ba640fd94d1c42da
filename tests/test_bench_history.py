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
    lines = (ROOT / "BENCH_history.jsonl").read_text().splitlines()
    assert lines
    for line in lines:
        row = json.loads(line)
        assert {"pr", "commit", "seed", "seconds", "medians"} <= row.keys()
        medians = row["medians"]
        assert cells <= medians.keys()
        assert all(isinstance(medians[cell], (int, float)) for cell in cells)
