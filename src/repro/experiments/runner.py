"""The ``python -m repro experiments`` command.

Examples
--------
List experiments::

    python -m repro experiments --list

Run one at reduced (default) scale::

    python -m repro experiments fig7

Scale up toward the paper's repetition counts, fanning the points out to
worker processes and caching finished points on disk::

    python -m repro experiments fig1 --rounds 100 --seeds 10
    python -m repro experiments fig7 --paper --workers 8 --cache-dir .exp-cache
    python -m repro experiments fig13 --paper

Every simulation point is fully described by a seeded
:class:`~repro.exec.ScenarioSpec`, so ``--workers N`` produces **the same
table** as a serial run, only faster, and a re-run with the same
``--cache-dir`` completes from cache hits without re-simulating (the
directory holds one :class:`~repro.sweep.SweepStore`, ``results.sqlite``).
"""

from __future__ import annotations

import argparse
import sys
import time
from contextlib import closing
from typing import List, Optional

from ..cli import add_common_arguments, apply_common_arguments
from ..exec import ProgressEvent, make_executor, using_executor
from .registry import EXPERIMENTS, get_runner


def _parse_n_values(text: str) -> tuple:
    try:
        values = tuple(int(n) for n in text.split(",") if n.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")
    if not values:
        raise argparse.ArgumentTypeError("expected at least one flow count")
    return values


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro experiments",
        description="Reproduce the tables/figures of the DCTCP+ paper (ICPP'15).",
    )
    parser.add_argument("experiment", nargs="?", help="experiment id (e.g. fig7)")
    parser.add_argument("--list", action="store_true", help="list experiment ids")
    parser.add_argument("--rounds", type=int, default=None, help="incast rounds per seed")
    parser.add_argument("--seeds", type=int, default=None, help="number of seeds")
    parser.add_argument(
        "--n-values",
        type=_parse_n_values,
        default=None,
        metavar="N1,N2,...",
        help="comma-separated flow counts for sweep experiments",
    )
    parser.add_argument(
        "--cc",
        action="append",
        metavar="NAME",
        help="congestion-control strategy for experiments taking a field "
        "(repeatable; the arena accepts registry names and external:<policy>)",
    )
    common = add_common_arguments(
        parser,
        quick=True,
        quick_help="smoke-scale configuration (CI; driver-declared or a "
        "generic rounds/seeds reduction)",
        workers=True,
        cache_dir=True,
        validate=True,
    )
    common.add_argument(
        "--paper", action="store_true", help="paper-scale configuration (slow)"
    )
    parser.add_argument(
        "--no-progress",
        action="store_true",
        help="suppress the per-point progress lines on stderr",
    )
    parser.add_argument("--csv", action="store_true", help="emit CSV instead of a table")
    parser.add_argument(
        "--json", action="store_true", help="emit machine-readable JSON instead of a table"
    )
    return parser


def _kwargs_for(experiment: str, args: argparse.Namespace) -> dict:
    entry = EXPERIMENTS[experiment]
    kwargs: dict = {}
    if args.cc:
        if not entry.cc:
            raise SystemExit(
                f"python -m repro experiments: {experiment!r} does not take --cc"
            )
        kwargs["ccs"] = tuple(args.cc)
    if not entry.sweep:
        if args.paper:
            kwargs.update(entry.paper)
        elif args.quick:
            kwargs.update(entry.quick)
        return kwargs
    if args.rounds is not None:
        kwargs["rounds"] = args.rounds
    if args.seeds is not None:
        kwargs["seeds"] = tuple(range(1, args.seeds + 1))
    if args.n_values is not None:
        kwargs["n_values"] = args.n_values
    if args.paper:
        kwargs.setdefault("rounds", 100)
        kwargs.setdefault("seeds", tuple(range(1, 11)))
        for key, value in entry.paper.items():
            kwargs.setdefault(key, value)
    if args.quick:
        for key, value in entry.quick.items():
            kwargs.setdefault(key, value)
        kwargs.setdefault("rounds", 2)
        kwargs.setdefault("seeds", (1,))
    return kwargs


def _print_progress(event: ProgressEvent) -> None:
    status = (
        "cached"
        if event.cached
        else f"{event.result.wall_time_s:.1f}s {event.result.events_processed / 1e6:.1f}M events"
    )
    # A failing cache (full disk, read-only dir) must be visible, not a
    # mystery 0% hit rate on the next run.
    errors = (
        f" !cache-write-errors={event.cache_write_errors}" if event.cache_write_errors else ""
    )
    print(
        f"[{event.done}/{event.total}] {event.spec.label()}: "
        f"{event.result.goodput_mbps:.1f} Mbps ({status}){errors}",
        file=sys.stderr,
    )


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.paper and args.quick:
        parser.error("--paper and --quick are mutually exclusive")
    if args.list or not args.experiment:
        drivers: dict = {}
        for experiment_id, entry in EXPERIMENTS.items():
            first = drivers.setdefault(entry.run, experiment_id)
            suffix = "" if first == experiment_id else f" (shares the {first} driver)"
            print(f"{experiment_id}: {entry.title}{suffix}")
        return 0
    runner = get_runner(args.experiment)
    kwargs = _kwargs_for(args.experiment, args)
    # Exports --validate/--workers/--cache-dir to the environment so worker
    # processes inherit the choices.
    apply_common_arguments(args)
    executor = make_executor(
        workers=args.workers,
        cache_dir=args.cache_dir,
        progress=None if args.no_progress else _print_progress,
    )
    started = time.perf_counter()
    # closing(): a --cache-dir store is checkpointed and closed on the way out.
    with closing(executor), using_executor(executor):
        result = runner(**kwargs)
    elapsed = time.perf_counter() - started
    if args.json:
        print(result.to_json())
    elif args.csv:
        sys.stdout.write(result.to_csv())
    else:
        print(result.to_text())
        print(f"\n[{elapsed:.1f}s wall clock]")
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
