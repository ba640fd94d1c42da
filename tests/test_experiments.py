"""Tests for the experiment drivers, registry and CLI plumbing."""

import pytest

from repro.experiments import figures
from repro.experiments.common import ExperimentResult, make_spec, run_incast_batch
from repro.experiments.registry import EXPERIMENTS, experiment_ids, get_runner
from repro.experiments.runner import build_parser, main


class TestRegistry:
    def test_all_paper_artifacts_registered(self):
        ids = experiment_ids()
        for required in ("fig1", "fig2", "table1", "fig6", "fig7", "fig8",
                         "fig9", "fig11", "fig12", "fig13", "fig14",
                         "ablations", "extensions"):
            assert required in ids

    def test_get_runner_unknown(self):
        with pytest.raises(KeyError):
            get_runner("fig99")

    def test_describe(self, capsys):
        assert main(["--list"]) == 0
        assert capsys.readouterr().out.startswith(f"fig1: {EXPERIMENTS['fig1'].title}\n")

    def test_runners_callable(self):
        for experiment_id in experiment_ids():
            assert callable(get_runner(experiment_id))


class TestExperimentResult:
    def _result(self):
        return ExperimentResult("figX", "Title", ["a", "b"], [[1, 2], [3, 4]], ["note"])

    def test_to_text(self):
        text = self._result().to_text()
        assert "figX: Title" in text
        assert "note: note" in text

    def test_to_csv(self):
        csv_text = self._result().to_csv()
        lines = csv_text.strip().splitlines()
        assert lines[0] == "a,b"
        assert lines[1] == "1,2"


class TestMakeSpec:
    def test_rto_override(self):
        spec = make_spec("dctcp", rto_min_ms=10.0)
        assert spec.tcp_config.rto_min_ns == 10_000_000

    def test_floor_override(self):
        spec = make_spec("tcp", min_cwnd_mss=1.0)
        assert spec.tcp_config.min_cwnd_mss == 1.0

    def test_plus_overrides(self):
        spec = make_spec("dctcp+", plus_overrides={"divisor_factor": 3.0})
        assert spec.plus_config.divisor_factor == 3.0


class TestRunIncastPoint:
    """Incast points measured through ``run_incast_batch``, the one batch path."""

    def test_point_aggregates_seeds(self):
        (point,) = run_incast_batch([dict(protocol="dctcp", n_flows=4, rounds=2, seeds=(1, 2))])
        assert point.rounds == 4  # 2 rounds x 2 seeds
        assert point.goodput_mbps > 0
        assert len(point.flow_stats) == 8  # 4 flows x 2 seeds

    def test_queue_sampling_collects(self):
        (point,) = run_incast_batch(
            [dict(protocol="dctcp", n_flows=2, rounds=1, sample_queue=True)]
        )
        assert len(point.queue_samples_bytes) > 0

    def test_background_attaches(self):
        (point,) = run_incast_batch(
            [dict(protocol="dctcp", n_flows=2, rounds=1, with_background=True)]
        )
        assert getattr(point, "bg_throughput_mbps", 0) > 0

    def test_sweep_shape(self):
        requests = [
            dict(protocol=protocol, n_flows=n, rounds=1, seeds=(1,))
            for protocol in ("dctcp", "tcp")
            for n in (2, 4)
        ]
        points = run_incast_batch(requests)
        # One point per request, in request order.
        assert [(p.protocol, p.n_flows) for p in points] == [
            (r["protocol"], r["n_flows"]) for r in requests
        ]


class TestCli:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["fig7"])
        assert args.experiment == "fig7"
        assert not args.paper

    def test_list_mode(self, capsys):
        assert main(["--list"]) == 0
        out = capsys.readouterr().out
        assert "fig7" in out

    def test_no_args_lists(self, capsys):
        assert main([]) == 0
        assert "fig1" in capsys.readouterr().out


class TestDriversSmoke:
    """Each driver runs end-to-end at minimal scale and emits a table."""

    def test_fig1(self):
        result = figures.fig1(n_values=(2, 4), rounds=1, seeds=(1,))
        assert len(result.rows) == 2
        assert result.to_text()

    def test_fig2(self):
        result = figures.fig2(n_values=(4,), rounds=1, seeds=(1,))
        assert result.headers[0] == "cwnd (MSS)"
        # frequencies within each column sum to ~1
        for col in range(1, len(result.headers)):
            total = sum(row[col] for row in result.rows)
            assert total == pytest.approx(1.0, abs=0.02)

    def test_table1(self):
        result = figures.table1(n_values=(4,), rounds=1, seeds=(1,))
        assert len(result.rows) == 1
        assert result.rows[0][0] == "N=4"

    def test_fig6(self):
        result = figures.fig6(n_values=(4,), rounds=1, seeds=(1,))
        assert len(result.rows) == 1

    def test_fig7(self):
        result = figures.fig7(n_values=(4,), rounds=1, seeds=(1,))
        assert len(result.rows) == 1
        assert len(result.headers) == 7

    def test_fig8(self):
        result = figures.fig8(n_values=(4,), rounds=1, seeds=(1,))
        assert len(result.rows) == 1

    def test_fig9(self):
        result = figures.fig9(n_values=(4,), rounds=1, seeds=(1,))
        # CDF columns are monotone non-decreasing in the threshold
        for col in range(1, len(result.headers)):
            probs = [row[col] for row in result.rows]
            assert probs == sorted(probs)

    def test_fig11(self):
        result = figures.fig11(n_values=(4,), rounds=1, seeds=(1,))
        assert len(result.rows) == 1

    def test_fig13(self):
        result = figures.fig13(n_queries=3, n_background=3, n_short=1, query_fanout=4)
        assert any(row[0] == "query" for row in result.rows)

    def test_fig14(self):
        result = figures.fig14(n_flows=4, bytes_per_flow=64 * 1024, rounds=1)
        assert result.rows  # time series emitted


def _by_first(result):
    return {row[0]: row for row in result.rows}


class TestPaperShapes:
    """The shape criteria of EXPERIMENTS.md, asserted on the registry
    drivers at the reduced scale that file quotes (seed 1).  Where a
    measurement contradicts the paper, the supported bound is asserted and
    the paper's claim rides along as a strict xfail."""

    def test_fig1_goodput_collapse(self):
        rows = _by_first(get_runner("fig1")(n_values=(10, 40, 60), rounds=8, seeds=(1,)))
        assert rows[10][1] > 500  # DCTCP healthy at N=10
        assert rows[60][1] < 200  # DCTCP collapsed
        assert rows[40][2] < 200  # TCP collapsed

    def test_fig2_cwnd_distribution(self):
        result = get_runner("fig2")(n_values=(10, 40), rounds=8, seeds=(1,))
        by_cwnd = _by_first(result)

        def low_mass(column):
            col = result.headers.index(column)
            return by_cwnd[1][col] + by_cwnd[2][col]

        # Paper: at N=40, 60%+ of DCTCP transmissions happen at cwnd 1-2 MSS,
        # and floor pinning grows with fan-in.
        assert low_mass("dctcp/N=40") > 0.6
        assert low_mass("dctcp/N=10") < low_mass("dctcp/N=40")

    def test_table1_incapable_state_and_both_timeout_kinds(self):
        result = get_runner("table1")(n_values=(20, 40), rounds=8, seeds=(1,))
        assert [row[0] for row in result.rows] == ["N=20", "N=40"]
        incapable, timeout, _, floss, lack = (
            float(cell.rstrip("%")) for cell in result.rows[1][1:]
        )
        # Paper N=40: the incapable state is common (50.2%) and timeouts
        # exist with both kinds present.
        assert incapable > 10
        assert timeout > 0
        assert 0 < floss <= 100 and floss + lack == pytest.approx(100, abs=0.02)

    def test_fig6_partial_dctcp_plus(self):
        rows = _by_first(get_runner("fig6")(n_values=(40, 80), rounds=8, seeds=(1,)))
        # Partial DCTCP+ clears DCTCP's wall at N=80 (where DCTCP is collapsed).
        assert rows[80][1] > rows[80][2]
        assert rows[40][1] > 400

    @pytest.fixture(scope="class")
    def fig7_rows(self):
        return _by_first(get_runner("fig7")(n_values=(40, 80, 120), rounds=8, seeds=(1,)))

    def test_fig7_full_dctcp_plus(self, fig7_rows):
        # With footnote 3's 1 MSS floor our DCTCP's knee sits at ~95 flows
        # (pipeline capacity / 1 MSS — see EXPERIMENTS.md), so the collapse
        # checks anchor at N=120.
        assert fig7_rows[80][1] > 400 and fig7_rows[120][1] > 400  # DCTCP+
        assert fig7_rows[120][2] < 200  # DCTCP collapsed
        assert fig7_rows[80][3] < 200  # TCP collapsed well before
        assert fig7_rows[120][4] < 200 < fig7_rows[120][5]  # FCT ms: DCTCP+ < DCTCP

    @pytest.mark.xfail(
        strict=True,
        reason="paper Fig. 7: DCTCP+ FCT stays in the tens of ms; at N=120 seed 1 we "
        "read 107 ms (131.8 / 58.1 for seeds 2 / 3) — ROADMAP item 1, fidelity",
    )
    def test_fig7_dctcp_plus_fct_below_100ms(self, fig7_rows):
        assert fig7_rows[120][4] < 100

    @pytest.fixture(scope="class")
    def fig8_row(self):
        # N=120: past DCTCP's collapse knee even with footnote 3's 1 MSS floor.
        return get_runner("fig8")(n_values=(120,), rounds=8, seeds=(1,)).rows[0]

    def test_fig8_rto_comparison(self, fig8_row):
        _, plus, dctcp10, tcp10 = fig8_row
        # The 10 ms RTO lifts DCTCP/TCP well above the 200 ms floor (~41 Mbps),
        # and un-tuned DCTCP+ sits far above that floor too.
        assert dctcp10 > 100 and tcp10 > 100
        assert plus > 300

    @pytest.mark.xfail(
        strict=True,
        reason="paper Fig. 8: DCTCP+ (200 ms RTO) beats DCTCP/TCP at 10 ms RTO; at N=120 "
        "we read 492.2 / 376.8 / 707.5 Mbps for seeds 1 / 2 / 3 against a "
        "seed-independent 563.8 / 564.4 — ROADMAP item 1, fidelity",
    )
    def test_fig8_dctcp_plus_beats_10ms_rto(self, fig8_row):
        _, plus, dctcp10, tcp10 = fig8_row
        assert plus > dctcp10 and plus > tcp10

    def test_fig9_queue_cdf(self):
        result = get_runner("fig9")(n_values=(50,), rounds=6, seeds=(1,))
        # Valid CDFs: monotone in the threshold and closed at the buffer size.
        for col in range(1, len(result.headers)):
            probs = [row[col] for row in result.rows]
            assert probs == sorted(probs)
            assert probs[-1] == 1.0
        # DCTCP+ keeps the regulated queue below ~96 KB for almost every
        # 100 us sample (the only excursions are the round-0 convergence
        # spike of Fig. 14).  Cross-protocol comparisons at low thresholds
        # are not meaningful here because collapsed protocols idle at zero
        # queue between RTOs; the drop-count comparison lives in
        # tests/test_integration.py.
        assert _by_first(result)[96][result.headers.index("dctcp+/N=50")] > 0.9

    @pytest.mark.slow
    def test_fig11_fig12_background_mix(self):
        rows = _by_first(get_runner("fig11")(n_values=(40, 80), rounds=4, seeds=(1,)))
        # With background traffic consuming buffer, DCTCP+ still beats DCTCP
        # and TCP on goodput and on FCT at high fan-in.
        assert rows[80][1] > rows[80][2]
        assert rows[80][1] > rows[80][3]
        assert rows[80][4] < rows[80][5]

    @pytest.mark.slow
    def test_fig13_benchmark_traffic(self):
        result = get_runner("fig13")(
            n_queries=120, n_background=120, n_short=24, query_fanout=120
        )
        by_key = {(row[0], row[1]): row for row in result.rows}
        plus, dctcp = by_key[("query", "dctcp+")], by_key[("query", "dctcp")]
        # DCTCP+ should not lose on mean query FCT, and takes fewer timeouts.
        assert plus[3] <= dctcp[3] * 1.15
        assert plus[6] <= dctcp[6]
        # Background traffic barely differs (< 35% at the mean).
        bg_plus, bg_dctcp = by_key[("background", "dctcp+")], by_key[("background", "dctcp")]
        assert abs(bg_plus[3] - bg_dctcp[3]) <= 0.35 * max(bg_plus[3], bg_dctcp[3])

    @pytest.mark.slow
    def test_fig14_initial_round_overflow(self):
        result = get_runner("fig14")(n_flows=50, bytes_per_flow=1024 * 1024, rounds=2)
        peaks = [row[1] for row in result.rows]
        # The first window(s) hit the buffer limit before slow_time converges...
        assert max(peaks[:4]) > 120.0
        # ...then the regulated queue stays clearly below it.
        steady = peaks[len(peaks) // 2 :]
        assert sum(steady) / len(steady) < 110.0


class TestAblations:
    """Rows of ``experiments ablations``, keyed by (knob, value, CC, N);
    column 4 is goodput in Mbps, column 6 the timeout count."""

    @pytest.fixture(scope="class")
    def rows(self):
        return {tuple(row[:4]): row for row in get_runner("ablations")().rows}

    @pytest.mark.parametrize("unit_us", (5, 10, 100, 1000))
    def test_backoff_unit_keeps_working(self, rows, unit_us):
        assert rows[("backoff unit (us)", unit_us, "DCTCP+", 80)][4] > 0

    def test_baseline_rtt_unit_beats_tiny_unit(self, rows):
        # A 5 us unit cannot relieve the fan-in congestion (paper's warning).
        rtt = rows[("backoff unit (us)", 100, "DCTCP+", 80)]
        tiny = rows[("backoff unit (us)", 5, "DCTCP+", 80)]
        assert rtt[4] > tiny[4]

    @pytest.mark.parametrize("divisor", (1.25, 2.0, 8.0))
    def test_divisor_factor_keeps_working(self, rows, divisor):
        assert rows[("divisor factor", divisor, "DCTCP+", 80)][4] > 0

    @pytest.mark.parametrize("threshold_us", (5, 25, 100))
    def test_threshold_t_is_not_brittle(self, rows, threshold_us):
        # The mechanism must keep working across a 20x threshold range.
        assert rows[("threshold_T (us)", threshold_us, "DCTCP+", 80)][4] > 300

    def test_floor_one_mss_for_plus(self, rows):
        assert rows[("cwnd floor (MSS)", 1.0, "DCTCP+", 80)][4] > 300

    def test_floor_one_mss_shifts_but_does_not_remove_dctcp_collapse(self, rows):
        # Footnote 3's control: a 1 MSS floor halves DCTCP's per-flow
        # footprint, so its knee moves from ~47 to ~95 flows — beyond that
        # the collapse is unchanged.
        collapsed = rows[("cwnd floor (MSS)", 1.0, "DCTCP", 120)]
        assert collapsed[4] < 200 and collapsed[6] > 0

    def test_desync_regulates_past_100_flows(self, rows):
        assert rows[("desync", "randomized", "DCTCP+", 120)][4] > 300


class TestExtensions:
    """Rows of ``experiments extensions`` (extension, variant, CC, N, Mbps,
    FCT, timeouts, rounds > 50 ms, drops)."""

    @pytest.fixture(scope="class")
    def rows(self):
        return {row[1]: row for row in get_runner("extensions")().rows}

    def test_tcp_plus_does_not_hurt_tcp(self, rows):
        assert rows["TCP+"][4] >= 0.8 * rows["TCP"][4]

    def test_d2tcp_plus_meets_deadlines(self, rows):
        # Un-enhanced D2TCP suffers DCTCP's incast timeouts -> late rounds;
        # the enhanced variant meets (nearly) all of its deadlines.
        late, late_plus, n_rounds = rows["D2TCP"][7], rows["D2TCP+"][7], 8
        assert late / n_rounds > 0.1
        assert late_plus / n_rounds < 0.05
        assert late_plus < late

    def test_shared_pool_absorbs_the_burst_a_static_port_drops(self, rows):
        assert rows["static 128 KB/port"][8] > 0
        assert rows["shared 512 KB pool"][8] == 0
