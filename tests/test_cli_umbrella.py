"""The ``python -m repro`` umbrella CLI and the shared flag plumbing."""

from __future__ import annotations

import os
import subprocess
import sys

import pytest

from repro.__main__ import main as umbrella_main

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def _run_module(module, *args):
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.run(
        [sys.executable, "-m", module, *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )


# -- umbrella dispatch ------------------------------------------------------------
def test_help_lists_every_command(capsys):
    assert umbrella_main(["--help"]) == 0
    out = capsys.readouterr().out
    for command in ("experiments", "fuzz", "trace", "sweep"):
        assert command in out


def test_version_flag(capsys):
    import repro

    assert umbrella_main(["--version"]) == 0
    assert repro.__version__ in capsys.readouterr().out


def test_missing_command_fails(capsys):
    assert umbrella_main([]) == 2
    assert "missing command" in capsys.readouterr().err


def test_unknown_command_fails(capsys):
    assert umbrella_main(["frobnicate"]) == 2
    assert "unknown command" in capsys.readouterr().err


def test_global_flag_requires_value(capsys):
    assert umbrella_main(["--workers"]) == 2
    assert umbrella_main(["--workers", "zero"]) == 2


def test_experiments_list_via_umbrella(capsys):
    assert umbrella_main(["experiments", "--list"]) == 0
    assert "table1" in capsys.readouterr().out


def test_workers_and_cache_dir_become_env(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("REPRO_WORKERS", raising=False)
    monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
    cache = str(tmp_path / "cache")
    assert umbrella_main(["--workers", "2", f"--cache-dir={cache}", "experiments", "--list"]) == 0
    assert os.environ["REPRO_WORKERS"] == "2"
    assert os.environ["REPRO_CACHE_DIR"] == cache
    capsys.readouterr()


def test_seed_forwarded_to_trace(tmp_path, capsys, monkeypatch):
    out_path = tmp_path / "trace.jsonl"
    assert umbrella_main(["--seed", "5", "trace", "--quick", "--jsonl", str(out_path)]) == 0
    out = capsys.readouterr().out
    assert "seed=5" in out
    assert out_path.exists()


# -- the trace command -------------------------------------------------------------
def test_trace_quick_report(tmp_path, capsys):
    csv_path = tmp_path / "trace.csv"
    assert umbrella_main(["trace", "--quick", "--csv", str(csv_path)]) == 0
    out = capsys.readouterr().out
    assert "timeout taxonomy" in out
    assert "cross-check vs per-flow stats: agree" in out
    assert "queue occupancy" in out
    header = csv_path.read_text().splitlines()[0]
    assert header == "time_ns,kind,subject,value,detail"


def test_trace_jsonl_export_round_trips(tmp_path, capsys):
    from repro.telemetry import read_jsonl

    path = tmp_path / "trace.jsonl"
    assert umbrella_main(["trace", "--quick", "--jsonl", str(path)]) == 0
    capsys.readouterr()
    records = read_jsonl(path)
    assert records and all(r.time_ns >= 0 for r in records)


def test_trace_profile_reports_dispatch_breakdown(capsys):
    assert umbrella_main(["trace", "--quick", "--profile"]) == 0
    out = capsys.readouterr().out
    assert "engine profile:" in out
    assert "events/s" in out


# -- removed entry points -----------------------------------------------------------
@pytest.mark.parametrize("module", ["repro.experiments", "repro.bench"])
def test_old_package_entry_points_are_gone(module):
    """The deprecation shims are removed; the umbrella is the front door."""
    proc = _run_module(module, "--list")
    assert proc.returncode != 0
    assert "No module named" in proc.stderr


def test_bench_command_is_gone(capsys):
    """The engine benchmark retired with ``repro.bench``; the repo benchmark
    is ``python3 -m bench``, outside the package."""
    assert umbrella_main(["bench", "--list"]) == 2
    assert "unknown command 'bench'" in capsys.readouterr().err


def test_old_fuzz_entry_point_is_gone():
    """``python -m repro.validate.fuzz`` is a bare import now: it must not
    run the fuzzer (no __main__ block remains in the module)."""
    proc = _run_module("repro.validate.fuzz", "--seeds", "1")
    assert not proc.stdout.strip()


# -- shared flag group (repro.cli) --------------------------------------------------
def test_common_flags_present_in_subcommand_help():
    from repro.experiments.runner import build_parser as experiments_parser
    from repro.telemetry.cli import build_parser as trace_parser

    exp_help = experiments_parser().format_help()
    assert "common options" in exp_help
    for flag in ("--quick", "--workers", "--cache-dir", "--validate", "--paper"):
        assert flag in exp_help

    trace_help = trace_parser().format_help()
    assert "common options" in trace_help
    for flag in ("--seed", "--quick", "--validate"):
        assert flag in trace_help


def test_validate_flag_exports_env(monkeypatch, capsys):
    # delenv(raising=False) on an absent var registers nothing to restore,
    # so clean up explicitly: a leaked REPRO_VALIDATE=1 would flip every
    # later Simulator() onto the validated dispatch path.
    monkeypatch.delenv("REPRO_VALIDATE", raising=False)
    try:
        assert umbrella_main(["trace", "--quick", "--validate"]) == 0
        assert os.environ["REPRO_VALIDATE"] == "1"
    finally:
        os.environ.pop("REPRO_VALIDATE", None)
    capsys.readouterr()


def test_experiments_cc_flag_rejected_for_non_cc_experiment():
    from repro.experiments.runner import main as experiments_main

    with pytest.raises(SystemExit):
        experiments_main(["fig1", "--cc", "dctcp", "--quick", "--no-progress"])
