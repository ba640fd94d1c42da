"""Declarative sweep specifications: grid point sets.

A :class:`SweepSpec` describes a whole parameter study — which axes vary
(N, RTOmin, the ECN marking threshold K, the switch buffer, the CC
strategy, the seed) and how — as pure data.  ``points()`` expands it to a
deterministic, ordered list of :class:`~repro.exec.ScenarioSpec`, so the
same spec file names the same million points on every host, every run.

A spec expands to the cartesian product of every axis's value list, in
a fixed axis order (the order of :data:`AXES`), values in listed order.

Sharding partitions points by **content key**, not position:
``shard_index(spec, n)`` buckets each point by its
:meth:`~repro.exec.ScenarioSpec.cache_key` hash.  The buckets are
disjoint and exhaustive by construction, and stable under reordering,
resumption, or renumbering the shard count — every property
``tests/test_sweep_spec.py`` pins.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

from ..exec.scenario import ScenarioSpec

#: Bumped whenever the expansion semantics change shape, so a sweep-spec
#: digest never collides across incompatible expansions.  2: grids only
#: (the random-draw keys left the spec and its ``to_dict()``).
SWEEP_SCHEMA_VERSION = 2

#: The axes a sweep may vary, in the fixed order grids expand them.
#: Each maps a declarative name onto :meth:`ScenarioSpec.create` knobs.
AXES: Tuple[str, ...] = (
    "protocol",
    "cc",
    "topology",
    "workload",
    "n_flows",
    "rto_min_ms",
    "min_cwnd_mss",
    "ecn_threshold_bytes",
    "buffer_bytes",
    "seed",
)

#: Axes whose values must be integers (floats are rejected, not truncated).
_INT_AXES = frozenset({"n_flows", "ecn_threshold_bytes", "buffer_bytes", "seed"})

#: Axes whose values are names rather than numbers.
_STR_AXES = frozenset({"protocol", "cc", "topology", "workload"})

class SweepSpecError(ValueError):
    """A sweep spec that cannot be expanded (unknown axis or key, bad values...)."""


def _check_values(axis: str, values: Sequence[object]) -> None:
    if not values:
        raise SweepSpecError(f"axis {axis!r}: empty value list")
    for v in values:
        if axis in _STR_AXES:
            if not isinstance(v, str):
                raise SweepSpecError(f"axis {axis!r}: expected strings, got {v!r}")
        elif isinstance(v, bool) or not isinstance(v, (int, float)):
            raise SweepSpecError(f"axis {axis!r}: expected numbers, got {v!r}")
        elif axis in _INT_AXES and not isinstance(v, int):
            raise SweepSpecError(f"axis {axis!r}: expected integers, got {v!r}")


@dataclass(frozen=True)
class SweepSpec:
    """A declarative parameter study over :data:`AXES`.

    ``axes`` maps axis names to value lists.  Axes that are absent keep
    the :class:`ScenarioSpec` default (``protocol`` falls back to the
    spec-level ``protocol`` field, ``seed`` to 1).
    """

    name: str
    protocol: str = "dctcp+"
    rounds: int = 20
    axes: Mapping[str, Sequence[object]] = field(default_factory=dict)

    def __post_init__(self):
        if self.rounds < 1:
            raise SweepSpecError(f"rounds must be >= 1, got {self.rounds}")
        unknown = set(self.axes) - set(AXES)
        if unknown:
            raise SweepSpecError(f"unknown axes {sorted(unknown)}; valid: {list(AXES)}")
        for axis, values in self.axes.items():
            if isinstance(values, Mapping):
                raise SweepSpecError(f"axis {axis!r}: expected a value list, got {values!r}")
            _check_values(axis, list(values))

    # -- codec -----------------------------------------------------------------
    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "SweepSpec":
        known = {"name", "protocol", "rounds", "axes"}
        unknown = set(data) - known
        if unknown:
            raise SweepSpecError(f"unknown sweep-spec keys {sorted(unknown)}")
        if "name" not in data:
            raise SweepSpecError("a sweep spec needs a 'name'")
        return cls(
            name=str(data["name"]),
            protocol=str(data.get("protocol", "dctcp+")),
            rounds=int(data.get("rounds", 20)),
            axes=dict(data.get("axes", {})),
        )

    @classmethod
    def from_file(cls, path: Union[str, Path]) -> "SweepSpec":
        with open(path, "r", encoding="utf-8") as fh:
            try:
                data = json.load(fh)
            except json.JSONDecodeError as exc:
                raise SweepSpecError(f"{path}: not valid JSON ({exc})") from None
        if not isinstance(data, Mapping):
            raise SweepSpecError(f"{path}: expected a JSON object")
        return cls.from_dict(data)

    def to_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "protocol": self.protocol,
            "rounds": self.rounds,
            "axes": {k: list(v) for k, v in self.axes.items()},
        }

    def digest(self) -> str:
        """Stable content digest of the spec + expansion schema version.

        Two processes (or hosts) holding the same spec file must agree on
        this digest — ``tests/test_sweep_spec.py`` pins it across a
        subprocess the same way the golden digests are pinned.
        """
        payload = self.to_dict()
        payload["__sweep_schema__"] = SWEEP_SCHEMA_VERSION
        blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()

    # -- expansion -------------------------------------------------------------
    def _make_point(self, assignment: Mapping[str, object]) -> ScenarioSpec:
        topo: Dict[str, object] = {}
        if "ecn_threshold_bytes" in assignment:
            topo["ecn_threshold_bytes"] = assignment["ecn_threshold_bytes"]
        if "buffer_bytes" in assignment:
            topo["buffer_bytes"] = assignment["buffer_bytes"]
        return ScenarioSpec.create(
            protocol=str(assignment.get("protocol", self.protocol)),
            n_flows=int(assignment.get("n_flows", 16)),
            rounds=self.rounds,
            seed=int(assignment.get("seed", 1)),
            rto_min_ms=assignment.get("rto_min_ms"),
            min_cwnd_mss=assignment.get("min_cwnd_mss"),
            topo=topo or None,
            cc=str(assignment.get("cc", "")),
            topology=str(assignment.get("topology", "two-tier")),
            workload=str(assignment.get("workload", "incast")),
        )

    def points(self) -> List[ScenarioSpec]:
        """Expand to scenario points, deterministically ordered."""
        varying = [axis for axis in AXES if axis in self.axes]
        assignments: List[Dict[str, object]] = [{}]
        for axis in varying:
            values = list(self.axes[axis])
            assignments = [
                dict(a, **{axis: v}) for a in assignments for v in values
            ]
        return [self._make_point(a) for a in assignments]

    def point_count(self) -> int:
        """Number of points ``points()`` will produce, without expanding."""
        count = 1
        for axis in self.axes:
            count *= len(self.axes[axis])
        return count


# -- shard partitioning ------------------------------------------------------------
def shard_index(point: ScenarioSpec, n_shards: int) -> int:
    """Which of ``n_shards`` buckets owns this point.

    Buckets by the point's content key, so the partition is a pure
    function of (point, n): disjoint, exhaustive, independent of the
    order points are enumerated in and of which process asks.
    """
    if n_shards < 1:
        raise SweepSpecError(f"shard count must be >= 1, got {n_shards}")
    return int(point.cache_key(), 16) % n_shards


def shard_points(
    points: Sequence[ScenarioSpec], shard: Optional[Tuple[int, int]]
) -> List[ScenarioSpec]:
    """Filter ``points`` down to one shard; ``None`` keeps everything."""
    if shard is None:
        return list(points)
    index, total = shard
    if not 0 <= index < total:
        raise SweepSpecError(f"shard index {index} outside 0..{total - 1}")
    return [p for p in points if shard_index(p, total) == index]


def parse_shard(text: str) -> Tuple[int, int]:
    """Parse the CLI's ``i/n`` shard syntax (0-based index)."""
    try:
        index_text, total_text = text.split("/", 1)
        index, total = int(index_text), int(total_text)
    except ValueError:
        raise SweepSpecError(f"expected shard as 'i/n' (e.g. 0/4), got {text!r}") from None
    if total < 1 or not 0 <= index < total:
        raise SweepSpecError(f"shard {text!r} out of range (need 0 <= i < n)")
    return index, total


# -- presets -----------------------------------------------------------------------
#: Named sweeps usable without a spec file (``--preset``).  ``ci-512`` is
#: the CI smoke grid (512 tiny points, ~10 s serial); ``phase-1m`` is the
#: ROADMAP item-3 target — a 1,036,800-point DCTCP+ phase-boundary study.
PRESETS: Dict[str, Dict[str, object]] = {
    "ci-512": {
        "name": "ci-512",
        "protocol": "dctcp+",
        "rounds": 1,
        "axes": {
            "protocol": ["dctcp", "dctcp+"],
            "n_flows": [2, 3, 4, 6],
            "rto_min_ms": [10.0, 200.0],
            "ecn_threshold_bytes": [16384, 32768],
            "buffer_bytes": [65536, 131072],
            "seed": [1, 2, 3, 4, 5, 6, 7, 8],
        },
    },
    # 2 x 27 x 12 x 10 x 10 x 16 = 1,036,800 points: where does DCTCP+
    # collapse begin as N x RTOmin x K x buffer vary (Figs. 9-13 pushed
    # to a full phase-boundary map)?
    "phase-1m": {
        "name": "phase-1m",
        "protocol": "dctcp+",
        "rounds": 20,
        "axes": {
            "protocol": ["dctcp", "dctcp+"],
            "n_flows": [
                8, 12, 16, 24, 32, 48, 64, 80, 96, 112, 128, 160, 192, 224, 256,
                320, 384, 448, 512, 640, 768, 896, 1024, 1280, 1536, 1792, 2048,
            ],
            "rto_min_ms": [
                1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 150.0, 200.0, 250.0, 300.0, 400.0,
            ],
            "ecn_threshold_bytes": [
                4096, 8192, 16384, 24576, 32768, 40960, 49152, 65536, 81920, 98304,
            ],
            "buffer_bytes": [
                32768, 65536, 98304, 131072, 163840, 196608, 262144, 327680, 393216, 524288,
            ],
            "seed": [1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16],
        },
    },
}


def preset(name: str) -> SweepSpec:
    """Look up a named built-in sweep."""
    try:
        return SweepSpec.from_dict(PRESETS[name])
    except KeyError:
        raise SweepSpecError(
            f"unknown preset {name!r}; available: {', '.join(sorted(PRESETS))}"
        ) from None
