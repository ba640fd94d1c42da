"""Tests for the topology x workload matrix experiment."""

from repro.experiments import figures
from repro.experiments.registry import EXPERIMENTS, experiment_ids, get_runner

QUICK = EXPERIMENTS["topo-matrix"].quick


class TestRegistration:
    def test_registered(self):
        assert "topo-matrix" in experiment_ids()
        assert get_runner("topo-matrix") is figures.topo_matrix

    def test_opts_out_of_generic_sweep_kwargs(self):
        assert not EXPERIMENTS["topo-matrix"].sweep

    def test_declares_quick_and_paper_scales(self):
        assert QUICK == dict(n_flows=4, rounds=2, seeds=(1,))
        assert EXPERIMENTS["topo-matrix"].paper["n_flows"] > QUICK["n_flows"]


class TestMatrix:
    def test_quick_matrix_covers_every_cell(self):
        result = figures.topo_matrix(**QUICK)
        assert result.experiment_id == "topo-matrix"
        # 3 topologies x 3 workloads x 2 protocols.
        assert len(result.rows) == 18
        cells = {(row[0], row[1], row[2]) for row in result.rows}
        assert len(cells) == 18
        assert {row[0] for row in result.rows} == set(figures.TOPOLOGIES)
        assert {row[1] for row in result.rows} == set(figures.WORKLOADS)
        assert {row[2] for row in result.rows} == {"DCTCP", "DCTCP+"}

    def test_rows_carry_sane_metrics(self):
        result = figures.topo_matrix(**QUICK)
        assert len(result.headers) == 9
        for row in result.rows:
            goodput, p99_ms, timeouts = row[3], row[4], row[5]
            assert goodput > 0
            assert p99_ms > 0
            assert timeouts >= 0

    def test_single_protocol_subset(self):
        result = figures.topo_matrix(n_flows=2, rounds=1, seeds=(1,), protocols=("dctcp",))
        assert len(result.rows) == 9
        assert {row[2] for row in result.rows} == {"DCTCP"}
