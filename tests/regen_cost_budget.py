"""Regenerate ``tests/cost_budget.json`` from the current code.

Run only when a change to the hot path's frame count is intentional::

    PYTHONPATH=src python tests/regen_cost_budget.py

Each row runs in a child process with ``REPRO_NATIVE`` set for its mode,
so no row sees another's memo fills.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

from test_cost_budget import BUDGET_PATH, MODES, OBSERVED, POINTS, _row_id  # noqa: E402

_CHILD = "import json, sys; from test_cost_budget import frames_per_event as f; "
_CHILD += "print(json.dumps(f(sys.argv[1], int(sys.argv[2]), *sys.argv[3:])))"


def main() -> None:
    rows = {}
    runs = [(mode, point) for mode in MODES for point in POINTS]
    runs += [("native", point) for point in OBSERVED]
    for mode, point in runs:
        env = dict(os.environ, REPRO_NATIVE=MODES[mode])
        env["PYTHONPATH"] = os.pathsep.join([str(Path(__file__).parent), env.get("PYTHONPATH", "")])
        out = subprocess.run(
            [sys.executable, "-c", _CHILD, *map(str, point)],
            env=env, capture_output=True, text=True, check=True,
        )
        rows[_row_id(point, mode)] = json.loads(out.stdout)
        print(_row_id(point, mode), rows[_row_id(point, mode)])
    payload = {"python": platform.python_version(), "rows": rows}
    BUDGET_PATH.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {BUDGET_PATH}")


if __name__ == "__main__":
    main()
