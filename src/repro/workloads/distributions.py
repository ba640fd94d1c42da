"""Traffic distributions for the production-cluster benchmark.

The paper generates its Section VI.D benchmark "based on statistics from
the production cluster [1]" — the flow-size and inter-arrival
distributions published in the DCTCP paper (Alizadeh et al., SIGCOMM'10,
Fig. 4).  The exact CDF tables were never released; the point sets below
are read off the published figures and preserve the features the
benchmark depends on: most background flows are small (the median is well
under 100 KB) while most *bytes* come from the 1-50 MB tail, and query
responses are a fixed 2 KB.

Each distribution is an :class:`EmpiricalCDF` sampled by inverse-transform
with log-linear interpolation between knots (flow sizes span five orders
of magnitude, so interpolating in log-space avoids biasing mass toward
the large end of each segment).
"""

from __future__ import annotations

import math
import random
from bisect import bisect_right
from typing import Sequence, Tuple

from ..sim.units import KB, MB, MS


class EmpiricalCDF:
    """Inverse-transform sampler over a piecewise CDF.

    Parameters
    ----------
    points:
        ``(value, cumulative_probability)`` knots, strictly increasing in
        both coordinates, with the last probability equal to 1.0.
    log_interp:
        Interpolate values geometrically between knots (appropriate for
        heavy-tailed sizes); linear otherwise.
    """

    def __init__(self, points: Sequence[Tuple[float, float]], log_interp: bool = True):
        if len(points) < 2:
            raise ValueError("need at least two CDF points")
        values = [p[0] for p in points]
        probs = [p[1] for p in points]
        if any(b <= a for a, b in zip(values, values[1:])):
            raise ValueError("CDF values must be strictly increasing")
        if any(b < a for a, b in zip(probs, probs[1:])):
            raise ValueError("CDF probabilities must be non-decreasing")
        if not math.isclose(probs[-1], 1.0):
            raise ValueError(f"last CDF probability must be 1.0, got {probs[-1]}")
        if probs[0] < 0.0:
            raise ValueError("probabilities must be non-negative")
        if log_interp and values[0] <= 0:
            raise ValueError("log interpolation requires positive values")
        self._values = values
        self._probs = probs
        self._log = log_interp

    def sample(self, rng: random.Random) -> float:
        """Draw one value by inverse transform."""
        u = rng.random()
        return self.quantile(u)

    def quantile(self, u: float) -> float:
        """Value at cumulative probability ``u``."""
        if not 0.0 <= u <= 1.0:
            raise ValueError(f"u must be in [0, 1], got {u}")
        probs, values = self._probs, self._values
        if u <= probs[0]:
            return values[0]
        if u >= probs[-1]:
            return values[-1]
        i = bisect_right(probs, u)
        p0, p1 = probs[i - 1], probs[i]
        v0, v1 = values[i - 1], values[i]
        frac = 0.0 if p1 == p0 else (u - p0) / (p1 - p0)
        if self._log:
            return math.exp(math.log(v0) + frac * (math.log(v1) - math.log(v0)))
        return v0 + frac * (v1 - v0)


#: Background flow sizes (bytes), after DCTCP-paper Fig. 4(b): median a few
#: tens of KB, ~80th percentile around 1 MB, a 1-50 MB byte-dominant tail.
BACKGROUND_FLOW_SIZE_CDF = EmpiricalCDF(
    [
        (1 * KB, 0.00),
        (5 * KB, 0.20),
        (20 * KB, 0.40),
        (50 * KB, 0.53),
        (100 * KB, 0.60),
        (300 * KB, 0.68),
        (1 * MB, 0.78),
        (3 * MB, 0.87),
        (10 * MB, 0.95),
        (30 * MB, 0.99),
        (50 * MB, 1.00),
    ]
)

#: Short-message sizes (bytes): the 50 KB - 1 MB "message" band the DCTCP
#: paper distinguishes from queries and large background transfers.
SHORT_MESSAGE_SIZE_CDF = EmpiricalCDF(
    [
        (50 * KB, 0.00),
        (100 * KB, 0.35),
        (200 * KB, 0.60),
        (500 * KB, 0.85),
        (1 * MB, 1.00),
    ]
)

#: Background-flow inter-arrival times (ns), after DCTCP-paper Fig. 4(a):
#: bursty arrivals with a ~10 ms median and a long tail.
BACKGROUND_INTERARRIVAL_CDF = EmpiricalCDF(
    [
        (1 * MS, 0.00),
        (3 * MS, 0.20),
        (10 * MS, 0.50),
        (30 * MS, 0.75),
        (100 * MS, 0.95),
        (300 * MS, 1.00),
    ]
)


def exponential_interarrival_ns(rng: random.Random, mean_ns: float) -> int:
    """Poisson-process gap (the paper's query arrivals)."""
    if mean_ns <= 0:
        raise ValueError(f"mean inter-arrival must be positive, got {mean_ns}")
    return max(1, int(rng.expovariate(1.0 / mean_ns)))


def sample_flow_size_bytes(rng: random.Random, cdf: EmpiricalCDF) -> int:
    """Integer byte count from a size CDF (at least 1)."""
    return max(1, int(cdf.sample(rng)))
