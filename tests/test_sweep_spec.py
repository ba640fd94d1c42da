"""Sweep-spec expansion, hashing, and shard-partition properties.

The partition guarantees carry the whole sharding story: two hosts
given ``--shard 0/4`` and ``--shard 1/4`` must never duplicate or drop a
point, no matter which order either enumerates the sweep in — so the
properties here are pinned the same way the golden digests pin results,
including a cross-process determinism check.
"""

import json
import random
import subprocess
import sys

import pytest

from repro.sweep import (
    AXES,
    PRESETS,
    SweepSpec,
    SweepSpecError,
    parse_shard,
    preset,
    shard_index,
    shard_points,
)

SMALL = {
    "name": "small",
    "rounds": 1,
    "axes": {
        "protocol": ["dctcp", "dctcp+"],
        "n_flows": [2, 4],
        "rto_min_ms": [10.0, 200.0],
        "seed": [1, 2, 3],
    },
}


def small_spec(**overrides):
    data = dict(SMALL, **overrides)
    return SweepSpec.from_dict(data)


class TestGridExpansion:
    def test_point_count_is_the_axis_product(self):
        spec = small_spec()
        assert spec.point_count() == 2 * 2 * 2 * 3
        assert len(spec.points()) == spec.point_count()

    def test_expansion_is_deterministic_and_ordered(self):
        a = [p.cache_key() for p in small_spec().points()]
        b = [p.cache_key() for p in small_spec().points()]
        assert a == b
        assert len(set(a)) == len(a)  # no duplicate points

    def test_axes_map_onto_scenario_knobs(self):
        spec = SweepSpec.from_dict(
            {
                "name": "knobs",
                "rounds": 3,
                "axes": {
                    "n_flows": [7],
                    "rto_min_ms": [10.0],
                    "ecn_threshold_bytes": [16384],
                    "buffer_bytes": [65536],
                    "cc": ["dctcp"],
                    "seed": [5],
                },
            }
        )
        (point,) = spec.points()
        assert point.n_flows == 7
        assert point.rounds == 3
        assert point.seed == 5
        assert point.cc == "dctcp"
        assert dict(point.tcp_overrides)["rto_min_ns"] == 10_000_000
        topo = dict(point.topo_overrides)
        assert topo == {"ecn_threshold_bytes": 16384, "buffer_bytes": 65536}

    def test_absent_axes_fall_back_to_spec_defaults(self):
        spec = SweepSpec.from_dict({"name": "d", "protocol": "tcp", "axes": {"n_flows": [3]}})
        (point,) = spec.points()
        assert point.protocol == "tcp"
        assert point.seed == 1
        assert point.topo_overrides == ()
        assert point.topology == "two-tier"
        assert point.workload == "incast"

    def test_topology_and_workload_axes(self):
        spec = SweepSpec.from_dict(
            {
                "name": "shapes",
                "axes": {
                    "topology": ["two-tier", "dumbbell", "fat-tree"],
                    "workload": ["incast", "http"],
                    "n_flows": [2],
                    "seed": [1],
                },
            }
        )
        points = spec.points()
        assert len(points) == 3 * 2
        assert {(p.topology, p.workload) for p in points} == {
            (t, w)
            for t in ("two-tier", "dumbbell", "fat-tree")
            for w in ("incast", "http")
        }
        assert len({p.cache_key() for p in points}) == 6


class TestValidation:
    def test_unknown_axis_rejected(self):
        with pytest.raises(SweepSpecError, match="unknown axes"):
            SweepSpec.from_dict({"name": "x", "axes": {"flows": [2]}})

    def test_unknown_top_level_key_rejected(self):
        with pytest.raises(SweepSpecError, match="unknown sweep-spec keys"):
            SweepSpec.from_dict({"name": "x", "shards": 4})

    def test_grid_rejects_ranges(self):
        with pytest.raises(SweepSpecError, match="expected a value list"):
            SweepSpec.from_dict({"name": "x", "axes": {"n_flows": {"min": 2, "max": 4}}})

    def test_random_mode_keys_are_refused(self):
        # Sweeps are grids only: a spec written for the old seeded-random
        # mode gets the typed error naming every key it may no longer carry.
        random_spec = {"name": "r", "mode": "random", "samples": 64, "axes": {"n_flows": [2]}}
        with pytest.raises(SweepSpecError, match=r"unknown sweep-spec keys \['mode', 'samples'\]"):
            SweepSpec.from_dict(random_spec)
        with pytest.raises(SweepSpecError, match=r"unknown sweep-spec keys \['mode'\]"):
            SweepSpec.from_dict({"name": "g", "mode": "grid", "axes": {"n_flows": [2]}})
        assert "mode" not in small_spec().to_dict()

    def test_non_integer_values_on_integer_axes_rejected(self):
        with pytest.raises(SweepSpecError, match="expected integers"):
            SweepSpec.from_dict({"name": "x", "axes": {"n_flows": [2.5]}})

    def test_empty_value_list_rejected(self):
        with pytest.raises(SweepSpecError, match="empty value list"):
            SweepSpec.from_dict({"name": "x", "axes": {"seed": []}})


class TestDigest:
    def test_digest_is_stable_and_content_addressed(self):
        assert small_spec().digest() == small_spec().digest()
        assert small_spec().digest() != small_spec(rounds=2).digest()
        assert small_spec().digest() != small_spec(name="other").digest()

    def test_digest_deterministic_across_processes(self):
        """Same discipline as tests/test_golden_digests.py: no per-process
        state (hash randomization, dict order) may leak into the digest."""
        code = (
            "import json;from repro.sweep import SweepSpec;"
            f"print(SweepSpec.from_dict(json.loads({json.dumps(SMALL)!r})).digest())"
        )
        out = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            env={"PYTHONPATH": "src", "PYTHONHASHSEED": "random"},
        )
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == small_spec().digest()

    def test_file_roundtrip_preserves_digest(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(SMALL))
        assert SweepSpec.from_file(path).digest() == small_spec().digest()


class TestShardPartition:
    POINTS = small_spec().points()

    def test_disjoint_and_exhaustive(self):
        for n in (1, 2, 3, 7):
            shards = [shard_points(self.POINTS, (i, n)) for i in range(n)]
            keys = [{p.cache_key() for p in shard} for shard in shards]
            for i in range(n):
                for j in range(i + 1, n):
                    assert not keys[i] & keys[j], f"shards {i}/{n} and {j}/{n} overlap"
            assert set.union(*keys) == {p.cache_key() for p in self.POINTS}

    def test_stable_under_iteration_order(self):
        shuffled = list(self.POINTS)
        random.Random(7).shuffle(shuffled)
        straight = {p.cache_key() for p in shard_points(self.POINTS, (1, 3))}
        reordered = {p.cache_key() for p in shard_points(shuffled, (1, 3))}
        assert straight == reordered

    def test_membership_is_a_pure_function_of_point_and_n(self):
        # Renumbering i/n (running 0/4 today, 2/4 tomorrow) re-derives the
        # same partition: membership never depends on which process asks.
        for point in self.POINTS:
            owner = shard_index(point, 4)
            for i in range(4):
                assert (point in shard_points(self.POINTS, (i, 4))) == (i == owner)

    def test_none_keeps_everything(self):
        assert shard_points(self.POINTS, None) == list(self.POINTS)

    def test_parse_shard(self):
        assert parse_shard("0/2") == (0, 2)
        assert parse_shard("3/4") == (3, 4)
        for bad in ("2/2", "-1/2", "0", "a/b", "1/0"):
            with pytest.raises(SweepSpecError):
                parse_shard(bad)


class TestPresets:
    def test_every_preset_expands(self):
        for name in PRESETS:
            spec = preset(name)
            assert spec.name == name
            assert spec.point_count() >= 1

    def test_ci_512_is_exactly_512_points(self):
        assert preset("ci-512").point_count() == 512
        assert len(preset("ci-512").points()) == 512

    def test_phase_1m_is_a_million_point_study(self):
        # ROADMAP item 3's target; expansion is lazy so counting is cheap.
        assert preset("phase-1m").point_count() > 1_000_000

    def test_unknown_preset_rejected(self):
        with pytest.raises(SweepSpecError, match="unknown preset"):
            preset("nope")

    def test_axis_order_is_fixed(self):
        # Grid expansion order is part of the determinism contract.
        assert AXES.index("protocol") < AXES.index("n_flows") < AXES.index("seed")
