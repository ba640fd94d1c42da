"""``python -m repro trace`` — run one scenario with telemetry enabled.

Runs a single incast point with the :class:`~repro.telemetry.tracer.Tracer`
attached and prints the trace-derived report: the timeout taxonomy
(FLoss-TO / LAck-TO, cross-checked against the per-flow counters — the
two channels must agree because both derive from the same
``classify_timeout`` call), the queue-occupancy distribution, per-queue
high-watermarks and the record counts per event kind.

The default point (DCTCP, N=128, 2 rounds) is the Table-I regime where
the timeout taxonomy is interesting; ``--quick`` shrinks it to an
8-flow/2-round point for CI smoke.  ``--jsonl``/``--csv`` export the raw
records; ``--profile`` additionally runs the scenario under the
:class:`~repro.telemetry.profiler.EngineProfiler` and prints the
dispatch-loop breakdown.
"""

from __future__ import annotations

import argparse
from contextlib import closing
from dataclasses import asdict
from typing import Optional, Sequence

from ..cli import add_common_arguments, apply_common_arguments
from .taxonomy import Summary, timeout_taxonomy, timeout_taxonomy_from_stats


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro trace",
        description="Run one incast scenario with telemetry and print the trace report.",
    )
    parser.add_argument(
        "--protocol",
        default="dctcp",
        help="protocol stack for the traced point (default: dctcp)",
    )
    parser.add_argument(
        "--n-flows",
        type=int,
        default=128,
        help="incast fan-in (default: 128, the Table-I regime)",
    )
    parser.add_argument(
        "--rounds",
        type=int,
        default=2,
        help="incast rounds (default: 2)",
    )
    add_common_arguments(
        parser,
        seed=True,
        quick=True,
        quick_help="trace a small 8-flow point instead (CI smoke)",
    )
    parser.add_argument(
        "--jsonl",
        metavar="PATH",
        help="write the raw trace records as JSON Lines",
    )
    parser.add_argument(
        "--csv",
        metavar="PATH",
        help="write the raw trace records as CSV",
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help="also profile the dispatch loop and print the per-kind breakdown",
    )
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    apply_common_arguments(args)

    # Imports deferred so ``python -m repro trace --help`` stays instant.
    from ..exec.context import make_executor
    from ..exec.scenario import ScenarioSpec, run_scenario
    from .profiler import EngineProfiler
    from .tracer import Tracer

    n_flows = 8 if args.quick else args.n_flows
    rounds = 2 if args.quick else args.rounds
    spec = ScenarioSpec.create(
        protocol=args.protocol,
        n_flows=n_flows,
        rounds=rounds,
        seed=args.seed,
        sample_queue=True,
        trace=True,
    )

    profiler = EngineProfiler() if args.profile else None
    if profiler is not None:
        # Profiling is serial-only by nature (it times the local engine),
        # so bypass the executor.
        result = run_scenario(spec, profiler=profiler)
    else:
        with closing(make_executor()) as executor:
            result = executor.map([spec])[0]

    records = result.trace_events
    print(
        f"traced {spec.protocol} incast: N={spec.n_flows}, rounds={spec.rounds}, "
        f"seed={spec.seed} — {result.events_processed} events, "
        f"{len(records)} trace records"
    )

    tracer = Tracer()
    tracer.records.extend(records)
    counts = tracer.counts_by_kind()
    print("\nrecords by kind:")
    for kind, count in sorted(counts.items(), key=lambda kv: -kv[1]):
        print(f"  {kind:<12} {count}")

    from_trace = timeout_taxonomy(records)
    from_stats = timeout_taxonomy_from_stats(result.flow_stats)
    print("\ntimeout taxonomy (from trace records):")
    total_rtos = sum(from_trace.values())
    for name, count in from_trace.items():
        share = count / total_rtos if total_rtos else 0.0
        print(f"  {name:<8} {count:>6}  ({share:.1%} of timeouts)")
    if from_trace == from_stats:
        print("  cross-check vs per-flow stats: agree")
    else:
        print(f"  cross-check vs per-flow stats: MISMATCH {from_stats}")
        return 1

    occ = Summary.of(result.queue_samples_bytes)
    print("\nbottleneck queue occupancy (bytes):")
    for key, value in asdict(occ).items():
        print(f"  {key:<8} {value:,.0f}")

    hwm = tracer.high_watermarks()
    if hwm:
        print("\nqueue high-watermarks (bytes):")
        for name, peak in sorted(hwm.items(), key=lambda kv: -kv[1])[:8]:
            print(f"  {name:<24} {peak:,}")

    if args.jsonl:
        from .export import write_jsonl

        write_jsonl(args.jsonl, records)
        print(f"\nwrote trace: {args.jsonl} ({len(records)} records)")
    if args.csv:
        from .export import write_csv

        write_csv(args.csv, tracer)
        print(f"wrote summary: {args.csv}")

    if profiler is not None:
        print("\nengine profile:")
        print(profiler.report())
    return 0
