"""The parent process: launches children one at a time and folds their
results into payloads.

Load model: closed loop, one client.  One child interpreter per unit, one
at a time (the box has two shared cores; two workers on them would
measure the scheduler), each single-threaded and on ``SerialExecutor``
only.  Units of different workloads are interleaved (A B C D E F, A B C
...) so slow machine drift lands on all of them, and a metric is the
median over units with its quartiles and sample count.
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from .child import RESULT_FILE
from .metrics import END_TO_END, PER_LAYER

ROOT = Path(__file__).resolve().parent.parent
#: Everything the suite writes lives here (inside the checkout, gitignored).
TMP_ROOT = ROOT / ".bench_tmp"

#: Switches a developer may have exported; children run repro's defaults.
SCRUBBED_ENV = ("REPRO_WORKERS", "REPRO_CACHE_DIR", "REPRO_VALIDATE", "REPRO_NATIVE")

#: Set-ups timed per workload (the units' own, topped up with set-up-only children).
SETUP_SAMPLES = 5


class ChildFailed(RuntimeError):
    """A child exited without a result (crash, deadline, import error)."""


def run_child(mode: str, workload: str, seed: int, seconds: float, size: str,
              extra: Sequence[str] = ()) -> Tuple[dict, float]:
    """Run one child to completion; ``(its result, its peak RSS in MiB)``."""
    TMP_ROOT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(dir=TMP_ROOT)
    env = {k: v for k, v in os.environ.items() if k not in SCRUBBED_ENV}
    command = [
        sys.executable, "-m", "bench", "--child", mode, "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--size", size,
        "--workdir", workdir, "--spawned-at", repr(time.time()), *extra,
    ]
    # Own session, so a child that dies mid-flight cannot leave helpers
    # (a ParallelExecutor pool, the native-load probe) behind.
    proc = subprocess.Popen(command, cwd=ROOT, env=env, stdout=sys.stderr,
                            start_new_session=True)
    try:
        _pid, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        result_path = Path(workdir, RESULT_FILE)
        if proc.returncode != 0 or not result_path.exists():
            raise ChildFailed(f"{mode} child for {workload} exited with {proc.returncode}")
        return json.loads(result_path.read_text()), usage.ru_maxrss / 1024.0
    finally:
        if proc.returncode is None:
            proc.kill()
            proc.wait()
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            pass
        shutil.rmtree(workdir, ignore_errors=True)


def quartiles(values: Sequence[float]) -> Tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def summarize(values: Sequence[float]) -> dict:
    q1, q3 = quartiles(values)
    return dict(median=statistics.median(values), q1=q1, q3=q3, n=len(values),
                values=list(values))


def _rate(rows: List[dict], count: str, seconds: str) -> Optional[float]:
    """Median over ``rows`` of ``count`` per CPU-second of ``seconds``; None
    when no row got as far as spending time there (every pass raised first)."""
    rates = [row[count] / row[seconds] for row in rows if row[seconds] > 0]
    return statistics.median(rates) if rates else None


def unit_metrics(unit: dict, rss_mb: float) -> Dict[str, float]:
    """The unit's samples; a metric it could not measure is left out (and
    :meth:`Suite.payload` turns a metric without a sample into a failed op)."""
    passes = unit["passes"]
    metrics = {
        "wall_s": sum(p["compute_wall_s"] + p["store_wall_s"] for p in passes),
        "events_per_s": _rate(passes, "events", "compute_cpu_s"),
        "points_per_s": _rate(passes, "points", "compute_cpu_s"),
        "warm_points_per_s": _rate(unit["warm"], "served", "store_cpu_s"),
        "peak_rss_mb": rss_mb,
    }
    return {name: value for name, value in metrics.items() if value}


def failed_unit(reason: str) -> dict:
    return dict(attempted=1, failed=1, failures=[reason])


class Suite:
    """End-to-end measurement of a set of workloads."""

    def __init__(self, workloads: Sequence[str], seed: int, seconds: float, size: str,
                 repeats: int, inject_failure: Optional[str] = None, log=None):
        self.workloads = list(workloads)
        self.seed = seed
        self.seconds = seconds
        self.size = size
        self.repeats = repeats
        self.inject_failure = inject_failure
        self.log = log or (lambda line: print(line, file=sys.stderr))
        self.samples: Dict[str, Dict[str, List[float]]] = {
            w: {m.name: [] for m in END_TO_END} for w in self.workloads
        }
        self.checks: Dict[str, dict] = {
            w: dict(attempted=0, failed=0, failures=[], events=None, sim_digest=None,
                    passes=0, steps=0, environment=None)
            for w in self.workloads
        }

    def _child(self, mode: str, workload: str, extra: Sequence[str] = ()):
        try:
            return run_child(mode, workload, self.seed, self.seconds, self.size, extra)
        except (ChildFailed, OSError, ValueError) as exc:
            self._count(workload, failed_unit(str(exc)))
            self.log(f"  {workload}: {exc}")
            return None, 0.0

    def _count(self, workload: str, result: dict) -> None:
        check = self.checks[workload]
        check["attempted"] += result["attempted"]
        check["failed"] += result["failed"]
        check["failures"] += result["failures"]

    def run_unit(self, workload: str) -> None:
        extra = ["--inject-failure", workload] if self.inject_failure == workload else []
        unit, rss_mb = self._child("unit", workload, extra)
        if unit is None:
            return
        self._count(workload, unit)
        samples = self.samples[workload]
        samples["setup_s"].append(unit["setup_s"])
        measured = unit_metrics(unit, rss_mb)
        for name, value in measured.items():
            samples[name].append(value)
        check = self.checks[workload]
        check["passes"] = len(unit["passes"])
        check["steps"] = sum(p["steps"] for p in unit["passes"])
        check["environment"] = unit["environment"]
        if check["events"] is None:
            check["events"], check["sim_digest"] = unit["events"], unit["sim_digest"]
        elif (check["events"], check["sim_digest"]) != (unit["events"], unit["sim_digest"]):
            self._count(workload, failed_unit("units of one seed simulated different things"))
        self.log(f"  {workload}: unit {len(samples['setup_s'])}/{self.repeats} "
                 f"{measured.get('wall_s', 0.0):.2f} s, "
                 f"{unit['failed']} of {unit['attempted']} ops failed")

    def run_probe(self, workload: str) -> None:
        probe, _rss = self._child("probe", workload)
        if probe is None:
            return
        self._count(workload, probe)
        if probe["events"] > 0:
            self.samples[workload]["py_calls_per_event"].append(probe["py_calls"] / probe["events"])

    def top_up_setups(self, workload: str) -> None:
        samples = self.samples[workload]["setup_s"]
        wanted = SETUP_SAMPLES if self.size == "full" else 1
        while len(samples) < wanted:
            setup, _rss = self._child("setup", workload)
            if setup is None:
                return
            samples.append(setup["setup_s"])

    def run(self, between=None) -> dict:
        """Every unit, interleaved across workloads; ``between`` is called
        once half-way (the suite times its noise canary there)."""
        units = [w for _repeat in range(self.repeats) for w in self.workloads]
        for index, workload in enumerate(units):
            if between is not None and index == len(units) // 2:
                between()
            self.run_unit(workload)
        for workload in self.workloads:
            self.run_probe(workload)
            self.top_up_setups(workload)
        return self.payload()

    def payload(self) -> dict:
        out = {}
        for workload in self.workloads:
            check = dict(self.checks[workload])
            attempted = max(1, check["attempted"])
            metrics = {}
            for m in END_TO_END:
                values = self.samples[workload][m.name]
                if values:
                    metrics[m.name] = dict(unit=m.unit, better=m.better, bound=m.bound,
                                           **summarize(values))
                else:
                    check["failed"] += 1
                    check["failures"] = check["failures"] + [f"{m.name}: no sample"]
            out[workload] = dict(
                metrics=metrics,
                attempted=attempted,
                failed=check["failed"],
                fail_share=check["failed"] / attempted,
                failures=check["failures"][:20],
                events=check["events"],
                sim_digest=check["sim_digest"],
                passes=check["passes"],
                steps=check["steps"],
                environment=check["environment"],
            )
        return out


def trace_workload(workload: str, seed: int, seconds: float, size: str,
                   trace_out: Optional[Path]) -> dict:
    """One workload's traced run; a crashed child becomes one failed op."""
    extra = ["--trace-out", str(trace_out)] if trace_out else []
    try:
        result, _rss = run_child("trace", workload, seed, seconds, size, extra)
    except (ChildFailed, OSError, ValueError) as exc:
        return dict(metrics={}, **failed_unit(str(exc)))
    return result


def layer_metrics(seed: int, seconds: float) -> dict:
    """The workload-independent microbenches and probes."""
    try:
        result, _rss = run_child("layers", "fig7-paper", seed, seconds, "probe")
    except (ChildFailed, OSError, ValueError) as exc:
        return dict(metrics={}, skipped={m.name: str(exc) for m in PER_LAYER
                                         if m.source in ("micro", "probe")})
    return result


def manifest(seed: int, seconds: float, size: str, repeats: int) -> dict:
    """What ran, where: recorded in every payload, checked by --compare."""
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    return dict(
        seed=seed, seconds=seconds, scale=size, repeats=repeats,
        cpu_count=os.cpu_count(),
        pythonhashseed=os.environ.get("PYTHONHASHSEED"),
        git_commit=commit,
        executor="SerialExecutor",
    )
