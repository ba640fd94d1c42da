"""Tests for the arena experiment (every CC head-to-head)."""

from repro.exec import ParallelExecutor, SerialExecutor, using_executor
from repro.experiments.figures import arena as run
from repro.experiments.registry import EXPERIMENTS, experiment_ids, get_runner
from repro.tcp.cc import cc_names

TINY = dict(n_values=(2, 4), rounds=1, seeds=(1,))


class TestArena:
    def test_registered_and_quick_kwargs_exposed(self):
        assert "arena" in experiment_ids()
        assert get_runner("arena") is run
        entry = EXPERIMENTS["arena"]
        assert entry.cc and entry.sweep
        assert entry.quick == dict(n_values=(2, 8, 32), rounds=2, seeds=(1,))

    def test_covers_every_registered_cc(self):
        result = run(**TINY)
        ccs_in_table = {row[0] for row in result.rows}
        assert len(ccs_in_table) == len(cc_names()) >= 5
        assert len(result.rows) == len(cc_names()) * 2

    def test_scoring_columns(self):
        result = run(ccs=("dctcp", "dctcp+"), **TINY)
        assert result.headers == [
            "CC", "N", "goodput (Mbps)", "p99 FCT (ms)", "timeouts",
            "FLoss-TO", "LAck-TO", "bad rounds",
        ]
        for row in result.rows:
            assert row[2] > 0        # goodput
            assert row[3] > 0        # p99 FCT
            assert row[4] >= row[5] + row[6]  # taxonomy partitions the timeouts

    def test_serial_and_parallel_tables_identical(self):
        with using_executor(SerialExecutor()):
            serial = run(ccs=("dctcp", "pulser", "tbtcp"), **TINY)
        with using_executor(ParallelExecutor(workers=2)):
            parallel = run(ccs=("dctcp", "pulser", "tbtcp"), **TINY)
        assert serial.rows == parallel.rows

    def test_restricted_field(self):
        result = run(ccs=("tbtcp",), n_values=(2,), rounds=1, seeds=(1,))
        assert [row[0] for row in result.rows] == ["TBTCP"]
