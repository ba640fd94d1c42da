"""Command line of the suite (``python -m bench``).

Three uses share one entry point:

- ``python -m bench [--seed N]`` — every workload end to end, R units each,
  noise canary, self-consistency checks; ``--trace`` runs the traced
  passes and layer microbenches instead.
- ``python -m bench --workload W --seed N --seconds S --trace 0|1`` — one
  run of one workload, as the benchmark driver calls it; the last stdout
  line is the result object ``BENCHMARK.json`` describes.
- ``python -m bench --compare A.json B.json`` — judge two payloads.

Progress goes to stderr, results to stdout; the exit code is non-zero
when any check failed.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from time import perf_counter
from typing import List, Optional

#: Default measuring time of a unit (also BENCHMARK.json's run_seconds).
DEFAULT_SECONDS = 10.0
#: Units per workload in a whole-suite run.  A constant on purpose: to change
#: R, change it here, re-measure and commit the new evidence.  --smoke and
#: --workload runs are one unit (the driver's own repetition supplies R).
SUITE_REPEATS = 3

#: Iterations of the noise canary, ~2 s of pure Python on the reference box.
CANARY_ITERATIONS = 15_000_000
CANARY_TOLERANCE = 0.10


def canary() -> float:
    """A fixed pure-Python kernel.  Timed at the start, middle and end of a
    suite run to flag a noisy machine; never used to normalise (it repeats
    worse than the workloads do)."""
    started = perf_counter()
    acc = 0
    table = [0] * 1024
    for i in range(CANARY_ITERATIONS):
        j = (acc + i) & 1023
        table[j] = acc = (table[j] + i * 31) & 0xFFFFFFF
    return perf_counter() - started


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="python -m bench", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seed", type=int, default=1,
                        help="offsets every scenario seed (1 reproduces CI's presets)")
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                        help="measuring time of one unit; fixes how often a pass repeats")
    parser.add_argument("--workload", action="append", default=None,
                        help="restrict to this workload (repeatable)")
    parser.add_argument("--smoke", action="store_true",
                        help="shrink every unit: 1 repeat, <30 s in total")
    parser.add_argument("--trace", nargs="?", type=int, const=1, default=0, choices=(0, 1),
                        help="per-layer run: traced passes, profile/memory passes, microbenches")
    parser.add_argument("--trace-out", type=Path, default=None,
                        help="write the raw spans of the traced passes here (JSON)")
    parser.add_argument("--out", type=Path, default=None, help="write the payload here (JSON)")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"), type=Path, default=None,
                        help="judge payload B (the change) against payload A (the parent)")
    parser.add_argument("--list", action="store_true",
                        help="print workloads and metrics, with what each layer metric moves")
    parser.add_argument("--inject-failure", metavar="WORKLOAD", default=None,
                        help="test hook: add one failing op to this workload's units")
    # -- child protocol (bench.runner -> bench.child) --
    parser.add_argument("--child", choices=("unit", "setup", "probe", "trace", "layers"),
                        help=argparse.SUPPRESS)
    parser.add_argument("--size", default="full", help=argparse.SUPPRESS)
    parser.add_argument("--workdir", help=argparse.SUPPRESS)
    parser.add_argument("--spawned-at", type=float, default=0.0, help=argparse.SUPPRESS)
    return parser


def say(line: str = "") -> None:
    print(line, file=sys.stderr, flush=True)


def print_listing() -> None:
    from .metrics import END_TO_END, PER_LAYER
    from .workloads import WHY

    print("workloads:")
    for name, why in WHY.items():
        print(f"  {name:<20} {why}")
    print("end-to-end metrics:")
    for m in END_TO_END:
        print(f"  {m.name:<20} {m.unit:<12} {m.better:<7} bound {m.bound:.0%}  {m.doc}")
    print("per-layer metrics (-> the end-to-end metric and workload each should move):")
    for m in PER_LAYER:
        print(f"  {m.name:<36} {m.unit:<6} {m.better:<7} [{m.source}] -> {m.moves}")


def print_end_to_end(payload: dict) -> None:
    for name, workload in payload["workloads"].items():
        print(f"{name}  ({workload['passes']} passes/unit, "
              f"dispatch {(workload['environment'] or {}).get('dispatch', '?')})")
        for metric, m in workload["metrics"].items():
            print(f"  {metric:<20} {m['median']:>14.6g} {m['unit']:<12} "
                  f"[q1 {m['q1']:.6g}, q3 {m['q3']:.6g}] n={m['n']}  "
                  f"{m['better']} is better, bound {m['bound']:.0%}")
        print(f"  {'fail_share':<20} {workload['fail_share']:>14.6g} {'ratio':<12} "
              f"{workload['failed']} of {workload['attempted']} ops failed, bound 0")
        if workload["steps"]:
            steps_per_s = workload["steps"] / workload["metrics"]["wall_s"]["median"]
            print(f"  {'steps_per_s':<20} {steps_per_s:>14.6g} {'1/s':<12} informational")
        print(f"  events {workload['events']}  sim_digest {workload['sim_digest']}")
        for failure in workload["failures"]:
            print(f"  FAILED {failure}")
    if payload.get("noisy"):
        print(f"NOISY: the canary kernel took {payload['canary_s']} s at start/middle/end "
              f"(>{CANARY_TOLERANCE:.0%} apart); treat timings as unresolved")


def print_layers(payload: dict) -> None:
    from .metrics import LAYER_BY_NAME

    def show(metrics: dict) -> None:
        for name, value in metrics.items():
            m = LAYER_BY_NAME.get(name)
            unit, moves = (m.unit, m.moves) if m else ("", "")
            print(f"  {name:<38} {value:>14.6g} {unit:<6} -> {moves}")

    for name, workload in payload["workloads"].items():
        print(f"{name}  (traced {workload.get('traced_s', 0):.2f} s vs untraced "
              f"{workload.get('untraced_s', 0):.2f} s, tail is {workload.get('tail', '?')})")
        show(workload["metrics"])
        total = sum(workload.get("span_self_s", {}).values()) or 1.0
        for span, seconds in list(workload.get("span_self_s", {}).items())[:8]:
            print(f"    span {span:<32} {seconds:>9.4f} s self {seconds / total:>6.1%}")
        for failure in workload["failures"]:
            print(f"  FAILED {failure}")
    if "layers" in payload:
        print("layers  (microbenches and fixed probes, identical for every workload)")
        show(payload["layers"])
        for name, reason in payload.get("skipped", {}).items():
            print(f"  {name:<38} skipped: {reason}")


def result_line(metrics: dict, attempted: int, failed: int) -> str:
    """The last stdout line of a single-workload run (the driver's contract)."""
    return json.dumps(dict(correct=failed == 0, attempted=max(1, attempted), failed=failed,
                           metrics=metrics))


def run_end_to_end(args, workloads: List[str], size: str, repeats: int) -> int:
    from . import runner

    suite = runner.Suite(workloads, args.seed, args.seconds, size, repeats,
                         inject_failure=args.inject_failure, log=say)
    whole_suite = args.workload is None
    canary_s: List[float] = []
    time_canary = (lambda: canary_s.append(canary())) if whole_suite else None
    if time_canary:
        # Untimed first: whatever is timed first after an idle spell reads
        # 10-17 % slow on this box (bench/README.md, "Noise").
        canary()
        time_canary()
    results = suite.run(between=time_canary)
    if time_canary:
        time_canary()
    payload = dict(kind="end_to_end",
                   manifest=runner.manifest(args.seed, args.seconds, size, repeats),
                   workloads=results)
    if canary_s:
        payload["canary_s"] = [round(s, 4) for s in canary_s]
        payload["noisy"] = max(canary_s) > min(canary_s) * (1 + CANARY_TOLERANCE)
    print_end_to_end(payload)
    if args.out:
        args.out.write_text(json.dumps(payload, indent=1) + "\n")
    failed = sum(w["failed"] for w in results.values())
    if len(workloads) == 1:
        only = results[workloads[0]]
        metrics = {name: dict(value=m["median"], unit=m["unit"])
                   for name, m in only["metrics"].items()}
        print(result_line(metrics, only["attempted"], only["failed"]))
    return 1 if failed else 0


def run_traced(args, workloads: List[str], size: str) -> int:
    from . import runner
    from .metrics import PER_LAYER

    trace_size = "smoke" if size == "smoke" else "trace"
    results = {}
    spans = {}
    for name in workloads:
        say(f"  {name}: traced pass")
        spans_path = None
        if args.trace_out:
            runner.TMP_ROOT.mkdir(exist_ok=True)
            spans_path = runner.TMP_ROOT / f"spans-{name}.json"
        results[name] = runner.trace_workload(name, args.seed, args.seconds, trace_size,
                                              spans_path)
        if spans_path and spans_path.exists():
            spans[name] = json.loads(spans_path.read_text())
            spans_path.unlink()
    say("  layer microbenches and probes")
    layers = runner.layer_metrics(args.seed, args.seconds)
    payload = dict(kind="per_layer",
                   manifest=runner.manifest(args.seed, args.seconds, trace_size, 1),
                   workloads=results, layers=layers["metrics"], skipped=layers["skipped"])
    print_layers(payload)
    if args.out:
        args.out.write_text(json.dumps(payload, indent=1) + "\n")
    if args.trace_out:
        args.trace_out.write_text(json.dumps(spans) + "\n")
    failed = sum(w["failed"] for w in results.values())
    if len(workloads) == 1:
        only = results[workloads[0]]
        merged = {**only["metrics"], **layers["metrics"]}
        # The driver wants every per-layer metric on every run: a line that
        # was skipped (its target is gone) reads 0.
        metrics = {m.name: dict(value=merged.get(m.name, 0.0), unit=m.unit) for m in PER_LAYER}
        print(result_line(metrics, only["attempted"], only["failed"]))
    return 1 if failed else 0


def run_compare(paths) -> int:
    from . import compare

    a, b = (json.loads(path.read_text()) for path in paths)
    try:
        rows = compare.compare(a, b)
    except compare.Incomparable as exc:
        print(f"refusing to compare: {exc}")
        return 2
    for line in compare.format_rows(rows):
        print(line)
    counts = {v: sum(1 for r in rows if r["verdict"] == v) for v in ("ok", "worse", "unresolved")}
    print(f"{counts['ok']} ok, {counts['worse']} worse, {counts['unresolved']} unresolved "
          "(delta is B's worsening as a share of A's median)")
    for payload, label in ((a, "A"), (b, "B")):
        if payload.get("noisy"):
            print(f"note: payload {label} was flagged noisy by its canary")
    return 1 if counts["worse"] else 0


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.child:
        from . import child

        (args.workload,) = args.workload  # the parent names exactly one
        return child.main(args)
    if args.compare:
        return run_compare(args.compare)
    if args.list:
        print_listing()
        return 0
    from .workloads import BY_NAME

    workloads = args.workload or list(BY_NAME)
    unknown = [w for w in workloads if w not in BY_NAME]
    if unknown:
        print(f"unknown workload(s) {unknown}; choose from {list(BY_NAME)}", file=sys.stderr)
        return 2
    size = "smoke" if args.smoke else "full"
    if args.smoke and args.seconds == DEFAULT_SECONDS:
        args.seconds = 1.0
    if args.trace:
        return run_traced(args, workloads, size)
    repeats = 1 if args.smoke or args.workload else SUITE_REPEATS
    return run_end_to_end(args, workloads, size, repeats)

