"""CLI: ``python -m repro sweep {run,status,merge,export}``.

The sweep service's front door::

    # run a named preset (or --spec file.json) into a store, sharded
    python -m repro sweep run --preset ci-512 --store s.sqlite --shard 0/2

    # how far along is the store vs the spec?
    python -m repro sweep status --preset ci-512 --store s.sqlite

    # combine shard stores into one
    python -m repro sweep merge --into all.sqlite a.sqlite b.sqlite

    # bulk columnar reads / canonical snapshots
    python -m repro sweep export --store s.sqlite --csv points.csv
    python -m repro sweep export --store s.sqlite --db canonical.sqlite

Every subcommand honours ``--store`` (default ``$REPRO_SWEEP_STORE`` or
``sweep.sqlite``); ``run`` takes the umbrella's ``--workers`` through the
usual ``REPRO_WORKERS`` environment or its own flag.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import List, Optional

from ..cli import add_common_arguments, apply_common_arguments
from ..exec.executors import ParallelExecutor, SerialExecutor
from .orchestrator import SweepProgress, run_sweep, sweep_status
from .spec import PRESETS, SweepSpec, SweepSpecError, parse_shard, preset
from .store import StoreError, SweepStore

#: Environment fallback for ``--store``.
STORE_ENV = "REPRO_SWEEP_STORE"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-sweep",
        description="Million-point sweep service: run, resume, shard, merge, export.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_store(p, required=False):
        p.add_argument(
            "--store",
            default=None,
            metavar="DB",
            help=f"SQLite result store (default: ${STORE_ENV} or sweep.sqlite)",
        )

    def add_spec(p):
        group = p.add_mutually_exclusive_group()
        group.add_argument("--spec", metavar="FILE", help="declarative sweep spec (JSON)")
        group.add_argument(
            "--preset",
            metavar="NAME",
            choices=sorted(PRESETS),
            help=f"built-in sweep ({', '.join(sorted(PRESETS))})",
        )
        p.add_argument(
            "--shard",
            metavar="i/n",
            default=None,
            help="run/report only the points whose key-hash lands in shard i of n",
        )

    run_p = sub.add_parser("run", help="run every missing point of a sweep into the store")
    add_store(run_p)
    add_spec(run_p)
    add_common_arguments(run_p, workers=True)
    run_p.add_argument("--chunk", type=int, default=None, metavar="N", help=argparse.SUPPRESS)
    run_p.add_argument(
        "--limit",
        type=int,
        default=None,
        metavar="N",
        help="compute at most N missing points then stop (kill/resume testing)",
    )
    run_p.add_argument("--no-progress", action="store_true")
    run_p.add_argument(
        "--progress-every", type=int, default=1, metavar="N", help=argparse.SUPPRESS
    )
    run_p.add_argument("--json", action="store_true", help="print the run report as JSON")

    status_p = sub.add_parser("status", help="points stored, coverage vs a spec, digest")
    add_store(status_p)
    add_spec(status_p)
    status_p.add_argument("--json", action="store_true")

    merge_p = sub.add_parser("merge", help="fold shard stores into one store")
    merge_p.add_argument("--into", required=True, metavar="DB", help="destination store")
    merge_p.add_argument("sources", nargs="+", metavar="DB", help="source stores")

    export_p = sub.add_parser("export", help="bulk columnar reads / canonical snapshots")
    add_store(export_p)
    export_p.add_argument("--csv", metavar="FILE", help="flat analysis columns as CSV")
    export_p.add_argument("--jsonl", metavar="FILE", help="lossless key/spec/result JSONL")
    export_p.add_argument(
        "--db",
        metavar="FILE",
        help="canonical SQLite snapshot (byte-deterministic for equal content)",
    )
    export_p.add_argument("--digest", action="store_true", help="print the content digest")

    return parser


def _store_path(args) -> str:
    return args.store or os.environ.get(STORE_ENV) or "sweep.sqlite"


def _load_spec(args) -> Optional[SweepSpec]:
    if args.spec:
        return SweepSpec.from_file(args.spec)
    if args.preset:
        return preset(args.preset)
    return None


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    apply_common_arguments(args)
    try:
        return _dispatch(args)
    except (SweepSpecError, StoreError) as exc:
        print(f"repro-sweep: {exc}", file=sys.stderr)
        return 2


def _dispatch(args) -> int:
    if args.command == "run":
        spec = _load_spec(args)
        if spec is None:
            raise SweepSpecError("run needs --spec FILE or --preset NAME")
        shard = parse_shard(args.shard) if args.shard else None
        workers = args.workers
        if workers is None:
            raw = os.environ.get("REPRO_WORKERS", "").strip()
            workers = int(raw) if raw else 1
        executor = ParallelExecutor(workers) if workers > 1 else SerialExecutor()
        with SweepStore(_store_path(args)) as store:
            progress = None
            if not args.no_progress:
                progress = SweepProgress(
                    total=0, workers=workers, stream=sys.stderr, every=args.progress_every
                )
            kwargs = {} if args.chunk is None else {"chunk": args.chunk}
            report = run_sweep(
                spec, store, executor, shard=shard, progress=progress,
                limit=args.limit, **kwargs,
            )
        if args.json:
            print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
        else:
            print(
                f"sweep {report.sweep}: {report.computed} computed, "
                f"{report.already_stored} already stored, "
                f"{report.shard_points}/{report.total_points} points in shard, "
                f"{report.store_points} in store"
            )
        if report.write_errors:
            print(
                f"repro-sweep: {report.write_errors} store writes FAILED "
                "(full disk?) — those points will re-run next time",
                file=sys.stderr,
            )
            return 1
        return 0

    if args.command == "status":
        spec = _load_spec(args)
        shard = parse_shard(args.shard) if args.shard else None
        with SweepStore(_store_path(args)) as store:
            status = sweep_status(spec, store, shard=shard)
        if args.json:
            print(json.dumps(status, indent=2, sort_keys=True))
        else:
            lines = [f"store: {_store_path(args)} ({status['store_points']} points)"]
            lines.append(f"content digest: {status['content_digest']}")
            if spec is not None:
                lines.append(
                    f"sweep {status['sweep']}: {status['done']}/{status['shard_points']} "
                    f"shard points done ({status['missing']} missing; "
                    f"{status['total_points']} total in sweep)"
                )
            print("\n".join(lines))
        return 0

    if args.command == "merge":
        with SweepStore(args.into) as dest:
            total_added = total_present = 0
            for source in args.sources:
                if not os.path.exists(source):
                    raise StoreError(f"source store not found: {source}")
                with SweepStore(source) as src:
                    added, present = dest.merge_from(src)
                total_added += added
                total_present += present
            print(
                f"merged {len(args.sources)} stores into {args.into}: "
                f"{total_added} added, {total_present} already present, "
                f"{len(dest)} total"
            )
        return 0

    # export
    path = _store_path(args)
    if not os.path.exists(path):
        raise StoreError(f"store not found: {path}")
    with SweepStore(path) as store:
        wrote_any = False
        if args.csv:
            with open(args.csv, "w", encoding="utf-8") as fh:
                fh.write(store.to_csv())
            print(f"wrote {len(store)} rows to {args.csv}")
            wrote_any = True
        if args.jsonl:
            count = store.export_jsonl(args.jsonl)
            print(f"wrote {count} points to {args.jsonl}")
            wrote_any = True
        if args.db:
            store.export_canonical(args.db)
            print(f"wrote canonical snapshot to {args.db}")
            wrote_any = True
        if args.digest or not wrote_any:
            print(store.content_digest())
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
