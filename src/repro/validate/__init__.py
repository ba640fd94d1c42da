"""Runtime invariant checking and scenario fuzzing.

The paper's argument is an accounting argument — pipeline capacity,
per-port buffers, cwnd floors, timeout taxonomies — and this package is
the layer that proves our simulator's accounts balance on every run, not
just at the handful of points covered by golden digests.

Two entry points:

- :class:`InvariantChecker` — attached via ``Simulator(validate=True)``
  (or ``REPRO_VALIDATE=1``); components register themselves at
  construction and :meth:`Simulator.run` sweeps the conservation laws
  while the simulation runs.  It pins dispatch to the engine's Python
  loop — the one loop there is, so a validated run executes the code an
  unvalidated pure run does, plus the checks.
- ``python -m repro.validate.fuzz`` — a seeded scenario fuzzer that draws
  random topologies/protocols/workloads/faults and runs each under full
  checking plus differential (rerun and serial-vs-parallel) comparisons.
"""

from .checker import InvariantChecker, InvariantViolation

__all__ = ["InvariantChecker", "InvariantViolation"]
