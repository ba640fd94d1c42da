"""--compare verdicts on synthetic payloads (choosing-metrics sections 6 and 8)."""

import pytest

from bench.compare import Incomparable, compare, spread, verdict
from bench.metrics import EndToEnd
from bench.runner import summarize

# The verdict rules, on metrics with bounds of the tests' own (the registry's may move).
EVENTS = EndToEnd("events_per_s", "1/s", "higher", 0.10, "")
WALL = EndToEnd("wall_s", "s", "lower", 0.25, "")


def test_spread_is_interquartile_share_of_median():
    assert spread([100.0]) == 0.0
    assert spread([90.0, 100.0, 110.0]) == pytest.approx(0.2)


def test_ok_within_bound():
    assert verdict(EVENTS, [100, 101, 99], [95, 96, 94])[0] == "ok"
    assert verdict(WALL, [10.0, 10.1, 9.9], [11.0, 11.1, 10.9])[0] == "ok"


def test_worse_beyond_bound_with_delta_relative_to_a():
    outcome, delta = verdict(EVENTS, [100, 101, 99], [80, 81, 79])
    assert outcome == "worse" and delta == pytest.approx(0.20)
    assert verdict(WALL, [10.0, 10.1, 9.9], [13.0, 13.1, 12.9])[0] == "worse"


def test_better_is_never_worse():
    outcome, delta = verdict(EVENTS, [100, 101, 99], [150, 151, 149])
    assert outcome == "ok" and delta < 0


def test_unresolved_when_either_side_is_noisier_than_the_bound():
    assert verdict(EVENTS, [100, 130, 70], [100, 101, 99])[0] == "unresolved"
    assert verdict(EVENTS, [100, 101, 99], [60, 100, 140])[0] == "unresolved"
    # ... even when the medians are far apart: the spread decides, not the gap.
    assert verdict(EVENTS, [100, 130, 70], [60, 90, 30])[0] == "unresolved"


def test_noisy_but_every_run_of_b_beats_every_run_of_a():
    assert verdict(EVENTS, [100, 130, 70], [200, 260, 140])[0] == "ok"
    assert verdict(WALL, [10.0, 20.0, 15.0], [5.0, 9.0, 7.0])[0] == "ok"


def payload(values, dispatch="native", scale="full", failed=0, digest="d"):
    metric = dict(unit="1/s", better="higher", bound=0.1, **summarize(values))
    workload = dict(metrics={"events_per_s": metric}, environment=dict(dispatch=dispatch),
                    events=1, sim_digest=digest, failed=failed, attempted=10)
    return dict(manifest=dict(scale=scale), workloads={"fig7-paper": workload})


def test_compare_rows_and_refusals():
    rows = compare(payload([100, 101, 99]), payload([50, 51, 49]))
    assert [(r["metric"], r["verdict"]) for r in rows] == [("events_per_s", "worse")]
    with pytest.raises(Incomparable, match="dispatch"):
        compare(payload([100.0]), payload([100.0], dispatch="pure"))
    with pytest.raises(Incomparable, match="scales"):
        compare(payload([100.0]), payload([100.0], scale="smoke"))


def test_compare_reports_different_simulations_and_new_failures():
    rows = compare(payload([100.0]), payload([100.0], digest="other", failed=2))
    verdicts = {r["metric"]: r["verdict"] for r in rows}
    assert verdicts["sim_digest"] == "info" and verdicts["fail_share"] == "worse"
