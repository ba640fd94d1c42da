"""Runtime invariant checking and scenario fuzzing.

The paper's argument is an accounting argument — pipeline capacity,
per-port buffers, cwnd floors, timeout taxonomies — and this package is
the layer that proves our simulator's accounts balance on every run, not
just at the handful of points covered by golden digests.

Two entry points:

- :class:`InvariantChecker` — attached via ``Simulator(validate=True)``
  (or ``REPRO_VALIDATE=1``); components register themselves at
  construction and :meth:`Simulator.run` sweeps the conservation laws
  while the simulation runs.  Either dispatch loop, the native core or
  the Python one, sweeps it at the same events, so a validated run
  executes the code an unvalidated run does, plus the checks.
- ``python -m repro.validate.fuzz`` — a seeded scenario fuzzer that draws
  random topologies/protocols/workloads/faults and runs each under full
  checking plus differential (rerun and serial-vs-parallel) comparisons.
"""

from .checker import InvariantChecker, InvariantViolation

__all__ = ["InvariantChecker", "InvariantViolation"]
