"""The parent's bookkeeping on units that could not measure everything."""

from bench import runner


def raised_in_compute():
    """A unit whose only pass raised before any phase spent time: what the
    child reports when ``src/`` breaks under a workload."""
    return dict(
        setup_s=0.2, environment=dict(dispatch="native"),
        passes=[dict(compute_cpu_s=0.0, compute_wall_s=0.0, store_wall_s=0.0,
                     events=0, points=0, steps=0)],
        warm=[dict(served=0, store_cpu_s=0.0)],
        events=0, sim_digest="", attempted=2, failed=2,
        failures=["pass 0: raised RuntimeError: boom", "store.put: 0 points stored"],
    )


def test_a_unit_without_timings_yields_no_rates():
    assert runner.unit_metrics(raised_in_compute(), 10.0) == {"peak_rss_mb": 10.0}


def test_suite_reports_the_failure_and_carries_on(monkeypatch):
    healthy = raised_in_compute()
    healthy["passes"][0].update(compute_cpu_s=1.0, compute_wall_s=1.0, events=100, points=2)
    healthy["warm"][0].update(served=50, store_cpu_s=0.1)
    healthy.update(events=100, sim_digest="d", attempted=5, failed=0, failures=[])
    units = {"fig7-paper": raised_in_compute(), "control-env": healthy}

    def run_child(mode, workload, *_args):
        assert mode == "unit"
        return units[workload], 10.0

    monkeypatch.setattr(runner, "run_child", run_child)
    suite = runner.Suite(list(units), seed=1, seconds=1.0, size="smoke", repeats=1,
                         log=lambda line: None)
    for workload in units:
        suite.run_unit(workload)
    payload = suite.payload()
    broken, fine = payload["fig7-paper"], payload["control-env"]
    assert broken["failed"] >= 2 and broken["fail_share"] > 0
    assert "pass 0: raised RuntimeError: boom" in broken["failures"]
    assert "wall_s: no sample" in broken["failures"]
    assert fine["metrics"]["warm_points_per_s"]["median"] == 500.0
    assert fine["metrics"]["events_per_s"]["median"] == 100.0
