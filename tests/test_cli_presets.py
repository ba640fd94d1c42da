"""Pins of the ``python -m repro experiments`` surface that no refactor of
the figure drivers may move: each id's scale-preset kwargs and the
``--list`` listing."""

import pytest

from repro.experiments.runner import _kwargs_for, build_parser, main

_PAPER_SEEDS = (1, 2, 3, 4, 5, 6, 7, 8, 9, 10)
#: argv tail -> kwargs for every figure that takes the generic sweep kwargs.
_SWEEP_PRESETS = {
    "plain": {},
    "quick": {"rounds": 2, "seeds": (1,)},
    "paper": {"rounds": 100, "seeds": _PAPER_SEEDS},
    "sweep": {"rounds": 3, "seeds": (1, 2), "n_values": (4, 8)},
}
_NO_PRESETS = {"plain": {}, "quick": {}, "paper": {}, "sweep": {}}
_FLAGS = {
    "plain": [],
    "quick": ["--quick"],
    "paper": ["--paper"],
    "sweep": ["--rounds", "3", "--seeds", "2", "--n-values", "4,8"],
}
#: The literal kwargs ``_kwargs_for`` hands each registry id per flag set.
_PRESETS = {
    **{i: _SWEEP_PRESETS for i in
       ("fig1", "fig2", "table1", "fig6", "fig7", "fig8", "fig9", "fig11", "fig12")},
    "fig13": {**_NO_PRESETS,
              "paper": {"n_queries": 7000, "n_background": 7000, "max_flow_bytes": None}},
    "fig14": _NO_PRESETS,
    "ablations": _NO_PRESETS,
    "extensions": _NO_PRESETS,
    "arena": {
        "plain": {},
        "quick": {"n_values": (2, 8, 32), "rounds": 2, "seeds": (1,)},
        "paper": {"rounds": 100, "seeds": _PAPER_SEEDS,
                  "n_values": (2, 4, 8, 16, 32, 64, 128, 256)},
        "sweep": {"rounds": 3, "seeds": (1, 2), "n_values": (4, 8)},
    },
    "topo-matrix": {**_NO_PRESETS,
                    "quick": {"n_flows": 4, "rounds": 2, "seeds": (1,)},
                    "paper": {"n_flows": 32, "rounds": 10, "seeds": (1, 2, 3)}},
    "control-demo": {**_NO_PRESETS, "quick": {"n_flows": 16, "rounds": 2}},
}
_TAKES_CC = ("arena", "control-demo")


class TestScalePresets:
    """Every registry id's ``--quick``/``--paper``/sweep-flag kwargs, pinned
    literally, so moving where a figure declares them changes no run."""

    def test_every_id_is_pinned(self):
        from repro.experiments.registry import experiment_ids

        assert sorted(_PRESETS) == sorted(experiment_ids())

    @pytest.mark.parametrize("experiment", sorted(_PRESETS))
    @pytest.mark.parametrize("preset", sorted(_FLAGS))
    def test_kwargs(self, experiment, preset):
        args = build_parser().parse_args([experiment, *_FLAGS[preset]])
        assert _kwargs_for(experiment, args) == _PRESETS[experiment][preset]

    @pytest.mark.parametrize("experiment", sorted(_PRESETS))
    def test_cc_flag(self, experiment):
        args = build_parser().parse_args([experiment, "--cc", "dctcp"])
        if experiment in _TAKES_CC:
            assert _kwargs_for(experiment, args) == {"ccs": ("dctcp",)}
        else:
            with pytest.raises(SystemExit, match="does not take --cc"):
                _kwargs_for(experiment, args)


def test_list_output(capsys):
    """``experiments --list``: ids in paper order, one title each, and fig12
    marked as reported by the fig11 driver."""
    assert main(["--list"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "fig1: Goodput vs concurrent flows (DCTCP, TCP) — basic incast",
        "fig2: cwnd-size frequency distribution (share of transmissions)",
        "table1: Timeout taxonomy and the cwnd-floor 'incapable' state",
        "fig6: Partial DCTCP+ (no desync) vs DCTCP — goodput vs N",
        "fig7: Full DCTCP+ vs DCTCP vs TCP — goodput and FCT vs N",
        "fig8: DCTCP+ (RTO 200 ms) vs DCTCP/TCP with RTO_min = 10 ms",
        "fig9: CDF of bottleneck queue length (KB), 100 us samples",
        "fig11: Incast goodput and FCT with 2 persistent background flows",
        "fig12: Incast goodput and FCT with 2 persistent background flows"
        " (shares the fig11 driver)",
        "fig13: Benchmark traffic FCT statistics (ms), RTO_min = 10 ms",
        "fig14: Queue vs time: DCTCP+ convergence, N=50, 4 MB per flow",
        "ablations: DCTCP+ design-choice ablations (paper §V.D, footnote 3)",
        "extensions: Extensions: TCP+, D2TCP+ under deadlines, shared switch buffers",
        "arena: CC arena — goodput / p99 FCT / timeout taxonomy vs fan-in",
        "topo-matrix: topology x workload matrix — DCTCP vs DCTCP+ beyond the testbed",
        "control-demo: ControlEnv demo — autopilot / throttle agent / external policies",
    ]
