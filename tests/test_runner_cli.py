"""CLI end-to-end tests for ``python -m repro experiments``."""

import pytest

from repro.experiments.runner import _kwargs_for, build_parser, main


class TestKwargsMapping:
    def test_rounds_and_seeds_forwarded(self):
        args = build_parser().parse_args(["fig1", "--rounds", "3", "--seeds", "2"])
        kwargs = _kwargs_for("fig1", args)
        assert kwargs["rounds"] == 3
        assert kwargs["seeds"] == (1, 2)

    def test_paper_flag_defaults(self):
        args = build_parser().parse_args(["fig1", "--paper"])
        kwargs = _kwargs_for("fig1", args)
        assert kwargs["rounds"] == 100
        assert len(kwargs["seeds"]) == 10

    def test_explicit_overrides_beat_paper(self):
        args = build_parser().parse_args(["fig1", "--paper", "--rounds", "7"])
        assert _kwargs_for("fig1", args)["rounds"] == 7

    def test_fig13_paper_scale(self):
        args = build_parser().parse_args(["fig13", "--paper"])
        kwargs = _kwargs_for("fig13", args)
        assert kwargs["n_queries"] == 7000
        assert kwargs["max_flow_bytes"] is None

    def test_fig14_takes_no_sweep_kwargs(self):
        args = build_parser().parse_args(["fig14", "--rounds", "5"])
        assert _kwargs_for("fig14", args) == {}

    def test_n_values_forwarded(self):
        args = build_parser().parse_args(["fig7", "--n-values", "8,16,32"])
        assert _kwargs_for("fig7", args)["n_values"] == (8, 16, 32)


class TestMainExecution:
    def test_unknown_experiment_raises(self):
        with pytest.raises(KeyError):
            main(["nope"])

    def _patch_fig1(self, monkeypatch):
        from repro.experiments import registry
        from repro.experiments.common import ExperimentResult

        def tiny_run(**kwargs):
            return ExperimentResult("fig1", "stub", ["a"], [[1]], ["n"])

        monkeypatch.setitem(registry.EXPERIMENTS, "fig1", registry.Experiment(tiny_run, "stub"))

    def test_table_output(self, capsys, monkeypatch):
        self._patch_fig1(monkeypatch)
        assert main(["fig1"]) == 0
        out = capsys.readouterr().out
        assert "fig1: stub" in out
        assert "wall clock" in out

    def test_csv_output(self, capsys, monkeypatch):
        self._patch_fig1(monkeypatch)
        assert main(["fig1", "--csv"]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0] == "a"

    def test_csv_output_keeps_notes(self, capsys, monkeypatch):
        self._patch_fig1(monkeypatch)
        assert main(["fig1", "--csv"]) == 0
        out = capsys.readouterr().out
        assert "# note: n" in out

    def test_json_output(self, capsys, monkeypatch):
        import json

        self._patch_fig1(monkeypatch)
        assert main(["fig1", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["experiment_id"] == "fig1"
        assert payload["rows"] == [[1]]
        assert payload["notes"] == ["n"]

    def test_workers_and_cache_dir_reach_the_executor(self, monkeypatch, tmp_path):
        from repro.exec import ParallelExecutor, get_executor
        from repro.experiments import registry
        from repro.experiments.common import ExperimentResult

        seen = {}

        def spy_run(**kwargs):
            seen["executor"] = get_executor()
            return ExperimentResult("fig1", "stub", ["a"], [[1]])

        monkeypatch.setitem(registry.EXPERIMENTS, "fig1", registry.Experiment(spy_run, "stub"))
        cache_dir = tmp_path / "cache"
        assert main(["fig1", "--workers", "2", "--cache-dir", str(cache_dir)]) == 0
        executor = seen["executor"]
        assert isinstance(executor, ParallelExecutor)
        assert executor.workers == 2
        assert executor.cache is not None
        assert cache_dir.is_dir()

    def test_cache_dir_rerun_is_all_hits_and_leaves_one_file(self, monkeypatch, tmp_path, capsys):
        # The CI tests job's cold -> warm leg, in miniature.  setenv first,
        # so monkeypatch restores what --cache-dir exports.
        monkeypatch.setenv("REPRO_CACHE_DIR", "")
        cache_dir = tmp_path / "cache"
        argv = ["fig7", "--rounds", "1", "--seeds", "1", "--n-values", "2", "--json",
                "--cache-dir", str(cache_dir)]
        assert main(argv) == 0
        cold = capsys.readouterr()
        # The store was closed on the way out: no -wal/-shm beside it.
        assert [p.name for p in cache_dir.iterdir()] == ["results.sqlite"]
        assert main(argv) == 0
        warm = capsys.readouterr()
        assert warm.out == cold.out
        assert "(cached)" not in cold.err
        assert warm.err.count("(cached)") == len(warm.err.splitlines()) == 3
        assert [p.name for p in cache_dir.iterdir()] == ["results.sqlite"]

    def test_a_point_asked_for_twice_is_computed_once(self, capsys):
        # fig2 --n-values 4,4 asks for each (protocol, N=4) point twice; the
        # batch submits each once, and the table is the --n-values 4 table.
        argv = ["fig2", "--rounds", "1", "--seeds", "1", "--json"]
        assert main(argv + ["--n-values", "4,4"]) == 0
        twice = capsys.readouterr()
        assert [line.split()[0] for line in twice.err.splitlines()] == ["[1/2]", "[2/2]"]
        assert main(argv + ["--n-values", "4"]) == 0
        once = capsys.readouterr()
        assert twice.out == once.out
