"""Time and data-size units for the simulator.

All simulation timestamps are **integer nanoseconds**.  Integer time keeps
event ordering exact (no float-comparison hazards in the event heap) and is
cheap to add/compare in the hot path.  Durations are written as
multiples of the constants here (``200 * MS``, ``100 * US``); the helpers
convert between data sizes, rates and transmission times.
"""

from __future__ import annotations

# --- time constants (nanoseconds) -------------------------------------------
NANOSECOND: int = 1
MICROSECOND: int = 1_000
MILLISECOND: int = 1_000_000
SECOND: int = 1_000_000_000

#: Alias matching the paper's notation (RTTs are quoted in microseconds).
US = MICROSECOND
MS = MILLISECOND
NS = NANOSECOND
SEC = SECOND


# --- data-size constants (bytes) ---------------------------------------------
BYTE: int = 1
KB: int = 1024
MB: int = 1024 * 1024

# --- rate helpers -------------------------------------------------------------
GBPS: int = 1_000_000_000
MBPS: int = 1_000_000


def transmission_time_ns(size_bytes: int, rate_bps: int) -> int:
    """Serialization delay of ``size_bytes`` on a link of ``rate_bps``.

    Rounds up to a whole nanosecond so that back-to-back transmissions can
    never overlap on a link.
    """
    if rate_bps <= 0:
        raise ValueError(f"link rate must be positive, got {rate_bps}")
    if size_bytes < 0:
        raise ValueError(f"size must be non-negative, got {size_bytes}")
    bits = size_bytes * 8
    return -(-bits * SECOND // rate_bps)  # ceil division


def bits_per_second(bytes_transferred: int, duration_ns: int) -> float:
    """Throughput in bits/second over ``duration_ns`` (reporting helper)."""
    if duration_ns <= 0:
        return 0.0
    return bytes_transferred * 8 * SECOND / duration_ns
