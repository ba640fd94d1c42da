"""Experiment registry: id -> driver module.

``python -m repro experiments <id>`` resolves through here, and so do the
tests that assert each artifact's shape (``tests/test_experiments.py``),
so a paper claim is regenerated and checked by the same code.
"""

from __future__ import annotations

from typing import Callable

from . import (
    ablations,
    arena,
    control_demo,
    extensions,
    fig01_goodput_collapse,
    fig02_cwnd_distribution,
    fig06_partial_dctcp_plus,
    fig07_full_dctcp_plus,
    fig08_rto_10ms,
    fig09_queue_cdf,
    fig11_12_background,
    fig13_benchmark,
    fig14_initial_rounds,
    table1_timeout_taxonomy,
    topo_matrix,
)
from .common import ExperimentResult

_MODULES = {
    "fig1": fig01_goodput_collapse,
    "fig2": fig02_cwnd_distribution,
    "table1": table1_timeout_taxonomy,
    "fig6": fig06_partial_dctcp_plus,
    "fig7": fig07_full_dctcp_plus,
    "fig8": fig08_rto_10ms,
    "fig9": fig09_queue_cdf,
    "fig11": fig11_12_background,
    "fig12": fig11_12_background,  # same driver reports both panels
    "fig13": fig13_benchmark,
    "fig14": fig14_initial_rounds,
    "ablations": ablations,
    "extensions": extensions,
    "arena": arena,
    "topo-matrix": topo_matrix,
    "control-demo": control_demo,
}


def experiment_ids() -> list:
    """All registered experiment ids, in paper order."""
    return list(_MODULES.keys())


def get_runner(experiment_id: str) -> Callable[..., ExperimentResult]:
    """The ``run`` callable for an experiment id."""
    try:
        return _MODULES[experiment_id].run
    except KeyError:
        raise KeyError(
            f"unknown experiment {experiment_id!r}; choose from {experiment_ids()}"
        ) from None


def describe(experiment_id: str) -> str:
    module = _MODULES[experiment_id]
    suffix = (
        ""
        if experiment_id == module.EXPERIMENT_ID
        else f" (shares the {module.EXPERIMENT_ID} driver)"
    )
    return f"{experiment_id}: {module.TITLE}{suffix}"


def supports_sweep_kwargs(experiment_id: str) -> bool:
    """Whether the driver accepts the (n_values, rounds, seeds) sweep kwargs.

    Drivers opt out by setting ``SUPPORTS_SWEEP_KWARGS = False`` (fig13's
    benchmark mix and fig14's single time series have their own knobs);
    the CLI uses this instead of hard-coding experiment ids.
    """
    module = _MODULES[experiment_id]
    return getattr(module, "SUPPORTS_SWEEP_KWARGS", True)


def supports_cc_kwarg(experiment_id: str) -> bool:
    """Whether the driver takes a ``ccs`` strategy field (``--cc`` flags).

    Drivers opt in with ``SUPPORTS_CC_KWARG = True`` (the arena's
    competitor field, the control demo's policy set).
    """
    module = _MODULES[experiment_id]
    return getattr(module, "SUPPORTS_CC_KWARG", False)


def paper_scale_kwargs(experiment_id: str) -> dict:
    """Extra kwargs the driver wants under ``--paper`` (beyond the generic
    rounds/seeds scale-up), declared as ``PAPER_SCALE_KWARGS`` on the module."""
    module = _MODULES[experiment_id]
    return dict(getattr(module, "PAPER_SCALE_KWARGS", {}))


def quick_scale_kwargs(experiment_id: str) -> dict:
    """Kwargs for a smoke-scale run under ``--quick``, declared as
    ``QUICK_KWARGS`` on the module (empty when the driver declares none —
    the CLI then falls back to a generic rounds/seeds reduction)."""
    module = _MODULES[experiment_id]
    return dict(getattr(module, "QUICK_KWARGS", {}))
