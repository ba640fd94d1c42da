"""The cost budget: Python frames per simulated event, package by package.

For six points (``dctcp+``, ``dctcp`` and ``tcp`` at N=40 and N=120, 2
rounds, seed 1), run in each dispatch mode, ``tests/cost_budget.json``
records how many frames of code under ``src/repro`` one event costs in
each package: the ``call`` events ``sys.setprofile`` reports, counted by
cProfile's C hook (the same numbers as a Python ``setprofile`` function,
at half its overhead), with comprehension frames left out (CPython 3.12
inlines list, dict and set comprehensions, so counting them would tie
the budget to one interpreter).  The counts are deterministic; the 0.5 %
band absorbs the few frames a process's first point pays (lazy imports,
memo fills).  A cell that moves past it either way fails: a new call on
the hot path shows up here without a clock, and a saving must be
recorded.

Three more rows budget one point, ``dctcp+`` at N=120, observed natively:
traced, validated and profiled.  The profiled row reads as the plain one
(the core times and counts callbacks without a Python frame), and the
validated row as the plain one plus the checker's sweeps.

Regenerate after an intended change with::

    PYTHONPATH=src python tests/regen_cost_budget.py
"""

from __future__ import annotations

import cProfile
import json
from pathlib import Path

import pytest

import repro
from repro.exec.scenario import ScenarioSpec, run_scenario
from repro.sim import _native
from repro.telemetry import EngineProfiler

BUDGET_PATH = Path(__file__).parent / "cost_budget.json"
TOLERANCE = 0.005
POINTS = [(protocol, n) for protocol in ("dctcp+", "dctcp", "tcp") for n in (40, 120)]
MODES = {"native": "1", "pure": "0"}
#: (protocol, N, observer), budgeted in native mode only.
OBSERVED = [("dctcp+", 120, observer) for observer in ("traced", "validated", "profiled")]
_SRC = str(Path(repro.__file__).parent) + "/"


def _package(code) -> str:
    """The ``repro`` package a code object belongs to ('' for none, or for
    a comprehension)."""
    filename = code.co_filename
    if not filename.startswith(_SRC) or code.co_name.endswith("comp>"):
        return ""
    return filename[len(_SRC) :].split("/")[0]


def frames_per_event(protocol: str, n_flows: int, observer: str = "") -> dict:
    """``{package: frames per event}`` for one point, in the dispatch mode
    ``REPRO_NATIVE`` selects, plain or with one ``observer`` attached."""
    spec = ScenarioSpec.create(protocol, n_flows, rounds=2, seed=1, trace=observer == "traced")
    profiler = EngineProfiler() if observer == "profiled" else None
    profile = cProfile.Profile(builtins=False)
    profile.enable()
    try:
        result = run_scenario(spec, validate=observer == "validated", profiler=profiler)
    finally:
        profile.disable()
    by_package: dict = {}
    for entry in profile.getstats():
        package = "" if isinstance(entry.code, str) else _package(entry.code)
        if package:
            by_package[package] = by_package.get(package, 0) + entry.callcount
    events = result.events_processed
    return {package: round(n / events, 6) for package, n in sorted(by_package.items())}


def _row_id(point, mode) -> str:
    return "/".join([*map(str, point[:2]), mode, *point[2:]])


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("point", POINTS, ids=lambda p: f"{p[0]}-n{p[1]}")
def test_frames_per_event_stay_within_the_budget(point, mode, monkeypatch):
    _assert_within_budget(point, mode, monkeypatch)


@pytest.mark.parametrize("point", OBSERVED, ids=lambda p: f"{p[0]}-n{p[1]}-{p[2]}")
def test_observed_frames_per_event_stay_within_the_budget(point, monkeypatch):
    _assert_within_budget(point, "native", monkeypatch)


def _assert_within_budget(point, mode, monkeypatch) -> None:
    if mode == "native" and _native.core_factory() is None:
        pytest.skip(f"native core unavailable: {_native.status()}")
    monkeypatch.setenv(_native.NATIVE_ENV, MODES[mode])
    budget = json.loads(BUDGET_PATH.read_text())["rows"][_row_id(point, mode)]
    measured = frames_per_event(*point)
    moved = {
        package: (budget.get(package, 0.0), measured.get(package, 0.0))
        for package in sorted(set(budget) | set(measured))
        if abs(measured.get(package, 0.0) - budget.get(package, 0.0))
        > TOLERANCE * budget.get(package, 0.0)
    }
    assert not moved, (
        f"frames per event (budget, measured) moved past {TOLERANCE:.1%}: {moved}.  "
        "If intended, regenerate with `PYTHONPATH=src python tests/regen_cost_budget.py`."
    )
