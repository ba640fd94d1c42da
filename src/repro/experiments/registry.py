"""Experiment registry: one table of every id ``python -m repro
experiments`` runs.

The CLI resolves ids, titles and scale presets through here, and so do
the tests that assert each artifact's shape (``tests/test_experiments.py``),
so a paper claim is regenerated and checked by the same code.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Mapping

from . import control_demo, figures
from .common import ExperimentResult


@dataclass(frozen=True)
class Experiment:
    """One registry entry: a figure function and how the CLI drives it."""

    run: Callable[..., ExperimentResult]
    title: str
    #: Takes the generic ``n_values``/``rounds``/``seeds`` sweep kwargs.
    sweep: bool = True
    #: Takes a ``ccs`` strategy field (the repeatable ``--cc`` flag).
    cc: bool = False
    #: Kwargs under ``--quick``; a sweep figure without them gets a generic
    #: rounds/seeds reduction.
    quick: Mapping[str, object] = field(default_factory=dict)
    #: Kwargs under ``--paper``, beyond a sweep figure's rounds/seeds scale-up.
    paper: Mapping[str, object] = field(default_factory=dict)


_FIG11 = Experiment(figures.fig11, "Incast goodput and FCT with 2 persistent background flows")

#: Every experiment id, in paper order.
EXPERIMENTS: Dict[str, Experiment] = {
    "fig1": Experiment(figures.fig1, "Goodput vs concurrent flows (DCTCP, TCP) — basic incast"),
    "fig2": Experiment(figures.fig2, "cwnd-size frequency distribution (share of transmissions)"),
    "table1": Experiment(
        figures.table1, "Timeout taxonomy and the cwnd-floor 'incapable' state"
    ),
    "fig6": Experiment(figures.fig6, "Partial DCTCP+ (no desync) vs DCTCP — goodput vs N"),
    "fig7": Experiment(figures.fig7, "Full DCTCP+ vs DCTCP vs TCP — goodput and FCT vs N"),
    "fig8": Experiment(figures.fig8, "DCTCP+ (RTO 200 ms) vs DCTCP/TCP with RTO_min = 10 ms"),
    "fig9": Experiment(figures.fig9, "CDF of bottleneck queue length (KB), 100 us samples"),
    "fig11": _FIG11,
    "fig12": _FIG11,  # the fig11 driver reports both panels
    "fig13": Experiment(
        figures.fig13,
        "Benchmark traffic FCT statistics (ms), RTO_min = 10 ms",
        sweep=False,
        paper=dict(n_queries=7000, n_background=7000, max_flow_bytes=None),
    ),
    "fig14": Experiment(
        figures.fig14, "Queue vs time: DCTCP+ convergence, N=50, 4 MB per flow", sweep=False
    ),
    "ablations": Experiment(
        figures.ablations, "DCTCP+ design-choice ablations (paper §V.D, footnote 3)", sweep=False
    ),
    "extensions": Experiment(
        figures.extensions,
        "Extensions: TCP+, D2TCP+ under deadlines, shared switch buffers",
        sweep=False,
    ),
    "arena": Experiment(
        figures.arena,
        "CC arena — goodput / p99 FCT / timeout taxonomy vs fan-in",
        cc=True,
        quick=dict(n_values=(2, 8, 32), rounds=2, seeds=(1,)),
        paper=dict(n_values=(2, 4, 8, 16, 32, 64, 128, 256)),
    ),
    "topo-matrix": Experiment(
        figures.topo_matrix,
        "topology x workload matrix — DCTCP vs DCTCP+ beyond the testbed",
        sweep=False,
        quick=dict(n_flows=4, rounds=2, seeds=(1,)),
        paper=dict(n_flows=32, rounds=10, seeds=(1, 2, 3)),
    ),
    "control-demo": Experiment(
        control_demo.run,
        "ControlEnv demo — autopilot / throttle agent / external policies",
        sweep=False,
        cc=True,
        quick=dict(n_flows=16, rounds=2),
    ),
}


def experiment_ids() -> list:
    """All registered experiment ids, in paper order."""
    return list(EXPERIMENTS)


def get_runner(experiment_id: str) -> Callable[..., ExperimentResult]:
    """The figure function for an experiment id."""
    try:
        return EXPERIMENTS[experiment_id].run
    except KeyError:
        raise KeyError(
            f"unknown experiment {experiment_id!r}; choose from {experiment_ids()}"
        ) from None
