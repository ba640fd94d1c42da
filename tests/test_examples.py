"""Smoke tests: every example script runs end-to-end (tiny scales)."""

import runpy
import sys
from pathlib import Path

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


def run_example(name: str, argv):
    old_argv = sys.argv
    sys.argv = [name, *argv]
    try:
        runpy.run_path(str(EXAMPLES / name), run_name="__main__")
    finally:
        sys.argv = old_argv


class TestExamples:
    def test_state_machine_demo(self, capsys):
        run_example("state_machine_demo.py", [])
        out = capsys.readouterr().out
        assert "DCTCP_Time_Inc" in out
        assert "DCTCP_NORMAL" in out

    def test_incast_sweep(self, capsys):
        run_example(
            "incast_sweep.py",
            ["--protocols", "dctcp", "--flows", "4", "--rounds", "2"],
        )
        out = capsys.readouterr().out
        assert "Incast goodput sweep" in out
        assert "dctcp Mbps" in out

    def test_background_mix(self, capsys):
        run_example("background_mix.py", ["--flows", "6", "--rounds", "2"])
        out = capsys.readouterr().out
        assert "long-flow Mbps" in out

    def test_deadline_flows(self, capsys):
        run_example("deadline_flows.py", ["--flows", "6", "--rounds", "2", "--deadline-ms", "100"])
        out = capsys.readouterr().out
        assert "miss rate" in out

    def test_partition_aggregate(self, capsys):
        run_example(
            "partition_aggregate.py",
            ["--queries", "4", "--background", "4", "--fanout", "6"],
        )
        out = capsys.readouterr().out
        assert "Partition/aggregate benchmark" in out

    def test_quickstart(self, capsys):
        run_example("quickstart.py", [])
        out = capsys.readouterr().out
        assert "DCTCP+" in out
