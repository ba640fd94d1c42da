"""Seeded randomness with per-component streams.

Reproducibility rule: every stochastic component (each DCTCP+ pacer, each
workload generator) draws from its **own** named stream derived from the
experiment's master seed.  Adding a new consumer therefore never perturbs
the draws seen by existing components, so experiments stay comparable
across code revisions.  A stream's name is fixed where the component is
built, its generator where it first draws: a name derived from
construction order (``"dctcp+/<seq>"``) must be taken at construction,
but the ``random.Random`` behind it (2.5 KiB, ~6 µs to seed) may be opened
by the first draw — the draws depend on the name alone, and a component
that never draws never pays for the generator.
"""

from __future__ import annotations

import random
import zlib


class RngRegistry:
    """Factory for named, independently seeded ``random.Random`` streams."""

    __slots__ = ("master_seed",)

    def __init__(self, master_seed: int = 0):
        self.master_seed = master_seed

    def stream(self, name: str) -> random.Random:
        """Return a fresh ``random.Random`` for ``name``.

        The stream seed mixes the master seed with a CRC of the name, so the
        mapping is stable across processes and Python versions (unlike
        ``hash()``, which is salted).
        """
        mixed = (self.master_seed * 0x9E3779B1 + zlib.crc32(name.encode())) & 0xFFFFFFFFFFFFFFFF
        return random.Random(mixed)



def uniform_time(rng: random.Random, upper_ns: int) -> int:
    """Draw an integer duration uniformly from ``(0, upper_ns]``.

    This is the paper's ``random(backoff_time_unit)``: a strictly positive
    jitter bounded by the backoff unit, used to desynchronize senders.
    """
    if upper_ns <= 0:
        raise ValueError(f"upper bound must be positive, got {upper_ns}")
    return rng.randrange(upper_ns) + 1
