"""``python -m repro bench`` — engine throughput benchmark & CI gate.

Modes
-----
- Default: time every scenario, print a table.
- ``--quick``: the small scenario subset (what CI runs).
- ``--write PATH``: also write the results as a baseline file.
- ``--load PATH``: reuse results from a previous ``--write`` instead of
  re-running the scenarios (compare-only mode).
- ``--baseline PATH``: compare against a baseline and exit non-zero on a
  regression beyond ``--max-regression`` (default 25%) or on event-count
  drift.
- ``--no-perf-gate``: report the throughput delta without failing on it
  (event-count drift still fails).  Use when the baseline was written on
  different hardware — absolute events/sec is not comparable across
  machines.
- ``--allow-event-drift``: downgrade event-count mismatches to warnings
  and skip the throughput check for those scenarios.  Use when comparing
  across commits whose behaviour legitimately differs.
- ``--profile``: run each selected scenario once with the
  :class:`~repro.telemetry.profiler.EngineProfiler` attached and print the
  dispatch-time breakdown by callback kind instead of the timing table
  (profiled runs time every event; never gate on them).

The throughput gate is only meaningful when both sides ran on the same
machine.  CI therefore benchmarks the merge-base and the PR head in one
job and gates on that pair (``--allow-event-drift``, since behaviour may
intentionally change across commits), while the committed
``BENCH_engine.json`` is checked with ``--no-perf-gate`` — its event
counts gate, its throughput is the informational perf trajectory.
"""

from __future__ import annotations

import argparse
from typing import Optional, Sequence

from ..cli import add_common_arguments, apply_common_arguments
from .harness import compare, load_baseline, run_benchmarks, write_baseline
from .scenarios import SCENARIOS, select


def _profile(args: argparse.Namespace) -> int:
    """Run the selected scenarios under the engine profiler."""
    from ..exec.scenario import run_scenario
    from ..telemetry.profiler import EngineProfiler

    scenarios = select(names=args.scenario, quick=args.quick)
    for scenario in scenarios:
        profiler = EngineProfiler()
        run_scenario(scenario.spec, profiler=profiler)
        print(f"\n== {scenario.name}: {scenario.description}")
        print(profiler.report())
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro bench",
        description="Time the simulation engine on canonical scenarios.",
    )
    add_common_arguments(
        parser,
        quick=True,
        quick_help="run only the quick scenario subset (the CI gate set)",
    )
    parser.add_argument(
        "--repeats",
        type=int,
        default=None,
        help="runs per scenario, median reported (default: 5, or 3 with --quick)",
    )
    parser.add_argument(
        "--scenario",
        action="append",
        metavar="NAME",
        help="benchmark only this scenario (repeatable); see --list",
    )
    parser.add_argument(
        "--list",
        action="store_true",
        help="list scenario names and exit",
    )
    parser.add_argument(
        "--baseline",
        metavar="PATH",
        help="compare against a baseline JSON; exit 1 on regression",
    )
    parser.add_argument(
        "--max-regression",
        type=float,
        default=0.25,
        help="fraction of events/sec loss tolerated vs baseline (default 0.25)",
    )
    parser.add_argument(
        "--no-perf-gate",
        action="store_true",
        help="report the events/sec delta without failing on it "
        "(for baselines written on different hardware)",
    )
    parser.add_argument(
        "--allow-event-drift",
        action="store_true",
        help="warn instead of fail on event-count mismatches "
        "(for cross-commit comparisons with intended behaviour changes)",
    )
    parser.add_argument(
        "--write",
        metavar="PATH",
        help="write the results to PATH as a new baseline",
    )
    parser.add_argument(
        "--load",
        metavar="PATH",
        help="reuse results from a previous --write instead of re-running "
        "(compare-only mode; --repeats/--scenario/--quick are ignored)",
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help="profile the dispatch loop by callback kind instead of timing "
        "(one run per scenario; incompatible with --baseline/--write/--load)",
    )
    args = parser.parse_args(argv)
    apply_common_arguments(args)

    if args.list:
        for scenario in SCENARIOS:
            tag = " [quick]" if scenario.quick else ""
            print(f"{scenario.name}{tag}: {scenario.description}")
        return 0

    if args.profile:
        if args.baseline or args.write or args.load:
            parser.error("--profile is incompatible with --baseline/--write/--load")
        return _profile(args)

    if args.load:
        payload = load_baseline(args.load)
        print(f"loaded results: {args.load}")
    else:
        repeats = args.repeats if args.repeats is not None else (3 if args.quick else 5)
        scenarios = select(names=args.scenario, quick=args.quick)
        payload = run_benchmarks(scenarios, repeats, progress=print)

    if args.write:
        write_baseline(args.write, payload)
        print(f"wrote baseline: {args.write}")

    if args.baseline:
        baseline = load_baseline(args.baseline)
        lines, ok = compare(
            payload,
            baseline,
            args.max_regression,
            perf_gate=not args.no_perf_gate,
            allow_event_drift=args.allow_event_drift,
        )
        gate = "informational" if args.no_perf_gate else f"-{args.max_regression:.0%}"
        print(f"\ncomparison vs {args.baseline} (perf gate: {gate}):")
        for line in lines:
            print(f"  {line}")
        if not ok:
            print("benchmark gate FAILED")
            return 1
        print("benchmark gate passed")
    return 0
