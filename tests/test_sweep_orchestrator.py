"""Resumable sharded orchestration + the ``repro sweep`` CLI.

The load-bearing guarantees (the CI ``sweep-smoke`` job re-proves them
end-to-end across real process kills):

- an interrupted run resumes from the store alone and converges to the
  same content as an uninterrupted run;
- shard runs merged together equal the unsharded run;
- progress/ETA flows through the telemetry Collector protocol.
"""

import io
import json

import pytest

from repro.exec import SerialExecutor
from repro.sweep import SweepProgress, SweepSpec, SweepStore, run_sweep, sweep_status
from repro.sweep.cli import main as sweep_main

SMALL = {
    "name": "small",
    "rounds": 1,
    "axes": {"protocol": ["dctcp", "dctcp+"], "n_flows": [2, 3], "seed": [1, 2]},
}


def small_spec():
    return SweepSpec.from_dict(SMALL)


class TestRunSweep:
    def test_full_run_fills_the_store(self, tmp_path):
        spec = small_spec()
        with SweepStore(tmp_path / "s.sqlite") as store:
            report = run_sweep(spec, store, SerialExecutor())
            assert report.computed == 8
            assert report.already_stored == 0
            assert report.store_points == len(store) == 8
            assert report.digest == spec.digest()

    def test_interrupted_run_resumes_to_identical_content(self, tmp_path):
        spec = small_spec()
        with SweepStore(tmp_path / "full.sqlite") as full:
            run_sweep(spec, full, SerialExecutor())
            expected = full.content_digest()
        with SweepStore(tmp_path / "resumed.sqlite") as resumed:
            half = run_sweep(spec, resumed, SerialExecutor(), limit=4)
            assert half.computed == 4 and len(resumed) == 4
            rest = run_sweep(spec, resumed, SerialExecutor())
            assert rest.already_stored == 4 and rest.computed == 4
            assert resumed.content_digest() == expected

    def test_resume_runs_only_missing_points(self, tmp_path):
        spec = small_spec()
        with SweepStore(tmp_path / "s.sqlite") as store:
            run_sweep(spec, store, SerialExecutor())
            report = run_sweep(spec, store, SerialExecutor())
            assert report.computed == 0
            assert report.already_stored == 8

    def test_sharded_runs_merge_to_the_unsharded_store(self, tmp_path):
        spec = small_spec()
        with SweepStore(tmp_path / "full.sqlite") as full:
            run_sweep(spec, full, SerialExecutor())
            expected = full.content_digest()
        with SweepStore(tmp_path / "m.sqlite") as merged:
            for i in range(2):
                with SweepStore(tmp_path / f"sh{i}.sqlite") as shard_store:
                    report = run_sweep(
                        spec, shard_store, SerialExecutor(), shard=(i, 2)
                    )
                    assert report.shard_points < 8  # both shards own something
                    merged.merge_from(shard_store)
            assert merged.content_digest() == expected

    def test_chunking_does_not_change_content(self, tmp_path):
        spec = small_spec()
        with SweepStore(tmp_path / "a.sqlite") as a, SweepStore(tmp_path / "b.sqlite") as b:
            run_sweep(spec, a, SerialExecutor(), chunk=3)
            run_sweep(spec, b, SerialExecutor(), chunk=256)
            assert a.content_digest() == b.content_digest()

    def test_executor_cache_slot_is_restored(self, tmp_path):
        executor = SerialExecutor(cache=None)
        with SweepStore(tmp_path / "s.sqlite") as store:
            run_sweep(small_spec(), store, executor)
        assert executor.cache is None

    def test_bad_chunk_rejected(self, tmp_path):
        with SweepStore(tmp_path / "s.sqlite") as store:
            with pytest.raises(ValueError):
                run_sweep(small_spec(), store, SerialExecutor(), chunk=0)


class TestSweepProgress:
    def test_rows_follow_the_collector_protocol(self, tmp_path):
        progress = SweepProgress(total=0)
        with SweepStore(tmp_path / "s.sqlite") as store:
            run_sweep(small_spec(), store, SerialExecutor(), progress=progress)
        assert len(progress.rows()) == 8
        assert progress.schema()[:2] == ("done", "total")
        done_column = [row[0] for row in progress.rows()]
        assert done_column == list(range(1, 9))
        # the Collector CSV surface works unchanged
        csv = progress.to_csv()
        assert csv.splitlines()[0] == ",".join(progress.schema())

    def test_eta_appears_after_first_fresh_point(self, tmp_path):
        progress = SweepProgress(total=0)
        with SweepStore(tmp_path / "s.sqlite") as store:
            run_sweep(small_spec(), store, SerialExecutor(), progress=progress)
        rows = progress.rows()
        assert rows[0][-1] >= 0  # first fresh point already yields an ETA
        assert rows[-1][-1] == 0  # nothing remains at the end

    def test_stderr_line_renders_and_respects_every(self, tmp_path):
        stream = io.StringIO()
        progress = SweepProgress(total=0, stream=stream, every=4)
        with SweepStore(tmp_path / "s.sqlite") as store:
            run_sweep(small_spec(), store, SerialExecutor(), progress=progress)
        lines = stream.getvalue().strip().splitlines()
        assert len(lines) == 2  # 8 points, every=4
        assert lines[-1].startswith("[sweep 8/8]")

    def test_cached_points_do_not_skew_eta(self):
        from repro.exec.executors import ProgressEvent
        from repro.exec.scenario import PointResult

        def event(cached, wall):
            result = PointResult(
                protocol="dctcp", n_flows=2, seeds=(1,), goodput_mbps=1.0,
                fct_ms=1.0, timeouts=0, rounds=1, bad_rounds=0, wall_time_s=wall,
            )
            spec_stub = type("S", (), {"cache_key": lambda s: "k", "label": lambda s: "l"})()
            return ProgressEvent(1, 4, spec_stub, result, cached)

        progress = SweepProgress(total=4)
        progress(event(cached=True, wall=99.0))
        assert progress.eta_s() == -1.0  # cache hits carry no timing signal
        progress(event(cached=False, wall=2.0))
        assert progress.eta_s() == pytest.approx(2.0 * 2)  # 2 left at 2 s/point


class TestStatus:
    def test_status_reports_coverage(self, tmp_path):
        spec = small_spec()
        with SweepStore(tmp_path / "s.sqlite") as store:
            run_sweep(spec, store, SerialExecutor(), limit=3)
            status = sweep_status(spec, store)
        assert status["total_points"] == 8
        assert status["done"] == 3
        assert status["missing"] == 5
        assert status["digest"] == spec.digest()

    def test_status_without_a_spec_is_store_only(self, tmp_path):
        with SweepStore(tmp_path / "s.sqlite") as store:
            status = sweep_status(None, store)
        assert status["store_points"] == 0
        assert "content_digest" in status


class TestCli:
    @pytest.fixture()
    def spec_file(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(SMALL))
        return str(path)

    def test_run_status_export_roundtrip(self, tmp_path, spec_file, capsys):
        store = str(tmp_path / "s.sqlite")
        assert sweep_main(["run", "--spec", spec_file, "--store", store,
                           "--no-progress", "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["computed"] == 8

        assert sweep_main(["status", "--spec", spec_file, "--store", store, "--json"]) == 0
        status = json.loads(capsys.readouterr().out)
        assert status["missing"] == 0

        csv_path = str(tmp_path / "points.csv")
        assert sweep_main(["export", "--store", store, "--csv", csv_path]) == 0
        capsys.readouterr()
        assert len(open(csv_path).read().strip().splitlines()) == 9

    def test_shard_run_and_merge_equal_full_run(self, tmp_path, spec_file, capsys):
        full, merged = str(tmp_path / "full.sqlite"), str(tmp_path / "m.sqlite")
        shards = [str(tmp_path / f"sh{i}.sqlite") for i in range(2)]
        assert sweep_main(["run", "--spec", spec_file, "--store", full, "--no-progress"]) == 0
        for i, shard_store in enumerate(shards):
            assert sweep_main(["run", "--spec", spec_file, "--store", shard_store,
                               "--shard", f"{i}/2", "--no-progress"]) == 0
        assert sweep_main(["merge", "--into", merged, *shards]) == 0
        capsys.readouterr()
        for store in (full, merged):
            assert sweep_main(["export", "--store", store, "--digest"]) == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert out[0] == out[1]

    def test_canonical_db_exports_are_byte_identical(self, tmp_path, spec_file, capsys):
        a, b = str(tmp_path / "a.sqlite"), str(tmp_path / "b.sqlite")
        assert sweep_main(["run", "--spec", spec_file, "--store", a, "--no-progress"]) == 0
        assert sweep_main(["run", "--spec", spec_file, "--store", b, "--limit", "5",
                           "--no-progress"]) == 0
        assert sweep_main(["run", "--spec", spec_file, "--store", b, "--no-progress"]) == 0
        assert sweep_main(["export", "--store", a, "--db", str(tmp_path / "ca.sqlite")]) == 0
        assert sweep_main(["export", "--store", b, "--db", str(tmp_path / "cb.sqlite")]) == 0
        capsys.readouterr()
        assert (tmp_path / "ca.sqlite").read_bytes() == (tmp_path / "cb.sqlite").read_bytes()

    def test_run_preset(self, tmp_path, capsys):
        store = str(tmp_path / "s.sqlite")
        assert sweep_main(["run", "--preset", "ci-512", "--store", store,
                           "--limit", "2", "--no-progress"]) == 0
        assert "2 computed" in capsys.readouterr().out

    def test_run_without_spec_fails(self, tmp_path, capsys):
        assert sweep_main(["run", "--store", str(tmp_path / "s.sqlite")]) == 2
        assert "needs --spec" in capsys.readouterr().err

    def test_missing_source_store_fails(self, tmp_path, capsys):
        assert sweep_main(["merge", "--into", str(tmp_path / "m.sqlite"),
                           str(tmp_path / "nope.sqlite")]) == 2
        assert "not found" in capsys.readouterr().err

    def test_store_env_fallback(self, tmp_path, spec_file, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_SWEEP_STORE", str(tmp_path / "env.sqlite"))
        assert sweep_main(["run", "--spec", spec_file, "--limit", "1",
                           "--no-progress"]) == 0
        capsys.readouterr()
        assert (tmp_path / "env.sqlite").exists()


class TestUmbrella:
    def test_umbrella_dispatches_sweep(self, tmp_path, capsys, monkeypatch):
        from repro.__main__ import main as umbrella_main

        monkeypatch.setenv("REPRO_SWEEP_STORE", str(tmp_path / "s.sqlite"))
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(SMALL))
        assert umbrella_main(["sweep", "run", "--spec", str(spec_path),
                              "--limit", "1", "--no-progress"]) == 0
        assert "1 computed" in capsys.readouterr().out
