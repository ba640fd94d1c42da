"""The paper's tables and figures (:mod:`.figures`), the registry that
names them (:mod:`.registry`) and the ``experiments`` command
(:mod:`.runner`)."""

from .common import ExperimentResult, make_spec, run_incast_batch

__all__ = ["ExperimentResult", "make_spec", "run_incast_batch"]
