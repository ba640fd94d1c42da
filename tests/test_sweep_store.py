"""The content-addressed columnar store (:mod:`repro.sweep.store`).

The store is the executor cache (every failure is one counted miss or
one counted write error, including the spec-mismatch collision guard),
and its *content identity* must be order-free: stores filled by resumed
or sharded runs of the same points agree on ``content_digest()`` and
export byte-identical canonical snapshots.
"""

import json
import sqlite3

import pytest

from repro.exec import PointResult, ScenarioSpec, SerialExecutor
from repro.__main__ import main as umbrella_main
from repro.exec.scenario import canonical_json
from repro.sweep import COLUMNS, StoreError, SweepStore


def tiny_spec(protocol="dctcp", n_flows=2, seed=1, **kwargs):
    return ScenarioSpec.create(protocol, n_flows, rounds=1, seed=seed, **kwargs)


BATCH = [
    tiny_spec("dctcp", 2, seed=1),
    tiny_spec("dctcp", 2, seed=2),
    tiny_spec("dctcp+", 3, seed=1),
    tiny_spec("tcp", 2, seed=1),
]

#: A spec with a tuple *inside* an override value (the dumbbell's per-pair leg delays).
NESTED_TUPLE_SPEC = tiny_spec(topology="dumbbell", topo={"leg_delays_ns": (6000, 12000)})


@pytest.fixture(scope="module")
def computed():
    """The batch's results, computed once for the whole module."""
    return list(zip(BATCH, SerialExecutor().map(BATCH)))


# Ways to corrupt a stored result's columnar ``flow_stats`` (each must be one miss).
def short_scalar_column(flows):
    flows["acks_received"].pop()


def run_lengths_do_not_add_up(flows):
    flows["snapshots_len"][0] += 1


def unknown_timeout_kind(flows):
    flows["timeouts_len"][0] = 1
    flows["timeouts_ns"].append(5)
    flows["timeouts_kind"].append("NoSuchKind")


def missing_column(flows):
    del flows["flow_id"]


class TestCacheProtocol:
    def test_cold_then_warm_run_identical(self, tmp_path):
        specs = BATCH[:2] + [NESTED_TUPLE_SPEC]
        with SweepStore(tmp_path / "s.sqlite") as store:
            cold = SerialExecutor(cache=store).map(specs)
            assert (store.hits, store.misses) == (0, 3)
            assert len(store) == 3
        with SweepStore(tmp_path / "s.sqlite") as store:
            events = []
            warm = SerialExecutor(cache=store, progress=events.append).map(specs)
            assert (store.hits, store.misses) == (3, 0)
            assert warm == cold
            assert all(e.cached for e in events)

    def test_hit_rebinds_measured_wall_time(self, tmp_path, computed):
        spec, result = computed[0]
        with SweepStore(tmp_path / "s.sqlite") as store:
            store.put(spec, result)
            hit = store.get(spec)
        assert hit == result
        assert hit.wall_time_s == result.wall_time_s

    def test_absent_key_is_a_counted_miss(self, tmp_path):
        with SweepStore(tmp_path / "s.sqlite") as store:
            assert store.get(BATCH[0]) is None
            assert (store.hits, store.misses) == (0, 1)

    def test_spec_collision_is_a_miss(self, tmp_path, computed):
        # Same key, different embedded spec (hand-edited/corrupt row) must miss.
        spec, result = computed[0]
        with SweepStore(tmp_path / "s.sqlite") as store:
            store.put(spec, result)
            store._conn.execute(
                "UPDATE points SET spec=? WHERE key=?", ('{"forged":1}', spec.cache_key())
            )
            assert store.get(spec) is None
            assert (store.hits, store.misses) == (0, 1)

    def test_corrupt_result_json_is_a_miss(self, tmp_path, computed):
        spec, result = computed[0]
        with SweepStore(tmp_path / "s.sqlite") as store:
            store.put(spec, result)
            store._conn.execute(
                "UPDATE points SET result='not json{' WHERE key=?", (spec.cache_key(),)
            )
            assert store.get(spec) is None
            assert store.misses == 1

    @pytest.mark.parametrize(
        "damage",
        [short_scalar_column, run_lengths_do_not_add_up, unknown_timeout_kind, missing_column],
        ids=lambda damage: damage.__name__,
    )
    def test_corrupt_result_columns_are_a_miss(self, tmp_path, computed, damage):
        spec, result = computed[0]
        payload = result.to_dict()
        damage(payload["flow_stats"])
        with SweepStore(tmp_path / "s.sqlite") as store:
            store.put(spec, result)
            store._conn.execute(
                "UPDATE points SET result=? WHERE key=?",
                (canonical_json(payload), spec.cache_key()),
            )
            assert store.get(spec) is None
            assert (store.hits, store.misses) == (0, 1)

    def test_put_counts_write_errors_instead_of_raising(self, tmp_path, computed):
        spec, result = computed[0]
        store = SweepStore(tmp_path / "s.sqlite")
        store._conn.close()  # simulate a dead backend (full disk, etc.)
        store.put(spec, result)
        assert store.write_errors == 1

    def test_executor_progress_line_carries_write_errors(self, tmp_path):
        store = SweepStore(tmp_path / "s.sqlite")
        store._conn.close()
        events = []
        SerialExecutor(cache=store, progress=events.append).map(BATCH[:1])
        assert events[-1].cache_write_errors == 1

    def test_format_mismatch_refuses_to_open(self, tmp_path):
        path = tmp_path / "old.sqlite"
        conn = sqlite3.connect(path)
        conn.executescript(
            "CREATE TABLE points (key TEXT PRIMARY KEY);"
            "CREATE TABLE meta (k TEXT PRIMARY KEY, v TEXT NOT NULL);"
            "INSERT INTO meta VALUES ('format', '999');"
        )
        conn.commit()
        conn.close()
        with pytest.raises(StoreError, match="format"):
            SweepStore(path)

    def test_format_1_store_fails_loudly_and_typed(self, tmp_path, capsys, monkeypatch):
        path = tmp_path / "results.sqlite"
        conn = sqlite3.connect(path)
        conn.executescript(
            "CREATE TABLE points (key TEXT PRIMARY KEY, spec TEXT, result TEXT);"
            "CREATE TABLE meta (k TEXT PRIMARY KEY, v TEXT NOT NULL);"
            "INSERT INTO meta VALUES ('format', '1');"
        )
        conn.commit()
        conn.close()
        with pytest.raises(StoreError) as raised:
            SweepStore(path)
        message = str(raised.value)
        for part in (str(path), "format 1 found", "reads format 2", "re-run", "export"):
            assert part in message
        # The CLI turns it into that one line and a non-zero exit, not a traceback.
        assert umbrella_main(["sweep", "status", "--store", str(path)]) != 0
        assert capsys.readouterr().err.splitlines() == [f"repro-sweep: {message}"]
        # So do the two commands that meet it as their --cache-dir store.
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))  # restored after the test
        for command, tail in (
            ("experiments", ["table1", "--rounds", "1", "--seeds", "1", "--n-values", "4"]),
            ("trace", ["--quick"]),
        ):
            assert umbrella_main(["--cache-dir", str(tmp_path), command, *tail]) == 2
            captured = capsys.readouterr()
            assert captured.err.splitlines() == [f"python -m repro {command}: {message}"]


class TestContentIdentity:
    def test_digest_is_insertion_order_free(self, tmp_path, computed):
        with SweepStore(tmp_path / "a.sqlite") as a, SweepStore(tmp_path / "b.sqlite") as b:
            for spec, result in computed:
                a.put(spec, result)
            for spec, result in reversed(computed):
                b.put(spec, result)
            assert a.content_digest() == b.content_digest()

    def test_digest_sees_content_changes(self, tmp_path, computed):
        with SweepStore(tmp_path / "a.sqlite") as a:
            a.put(*computed[0])
            one = a.content_digest()
            a.put(*computed[1])
            assert a.content_digest() != one

    def test_canonical_export_is_byte_identical_for_equal_content(self, tmp_path, computed):
        with SweepStore(tmp_path / "a.sqlite") as a, SweepStore(tmp_path / "b.sqlite") as b:
            for spec, result in computed:
                a.put(spec, result)
            for spec, result in reversed(computed):
                b.put(spec, result)
            a.export_canonical(tmp_path / "a-canon.sqlite")
            b.export_canonical(tmp_path / "b-canon.sqlite")
        assert (tmp_path / "a-canon.sqlite").read_bytes() == (
            tmp_path / "b-canon.sqlite"
        ).read_bytes()

    def test_canonical_export_reopens_as_a_store(self, tmp_path, computed):
        with SweepStore(tmp_path / "a.sqlite") as a:
            for spec, result in computed:
                a.put(spec, result)
            a.export_canonical(tmp_path / "canon.sqlite")
            digest = a.content_digest()
        with SweepStore(tmp_path / "canon.sqlite") as canon:
            assert canon.content_digest() == digest
            assert canon.get(computed[0][0]) == computed[0][1]


class TestColumnarReads:
    def test_to_rows_orders_by_key_and_matches_results(self, tmp_path, computed):
        with SweepStore(tmp_path / "s.sqlite") as store:
            for spec, result in computed:
                store.put(spec, result)
            rows = store.to_rows(("key", "protocol", "n_flows", "goodput_mbps"))
            assert [r[0] for r in rows] == store.keys() == sorted(store.keys())
            by_key = {s.cache_key(): (s, r) for s, r in computed}
            for key, protocol, n_flows, goodput in rows:
                spec, result = by_key[key]
                assert (protocol, n_flows) == (spec.protocol, spec.n_flows)
                assert goodput == pytest.approx(result.goodput_mbps)

    def test_to_csv_has_header_and_every_point(self, tmp_path, computed):
        with SweepStore(tmp_path / "s.sqlite") as store:
            for spec, result in computed:
                store.put(spec, result)
            lines = store.to_csv().strip().splitlines()
        assert lines[0] == ",".join(COLUMNS)
        assert len(lines) == 1 + len(computed)

    def test_unknown_column_rejected(self, tmp_path):
        with SweepStore(tmp_path / "s.sqlite") as store:
            with pytest.raises(StoreError, match="unknown columns"):
                store.to_rows(("key", "nope"))

    def test_iter_points_round_trips(self, tmp_path, computed):
        with SweepStore(tmp_path / "s.sqlite") as store:
            for spec, result in computed:
                store.put(spec, result)
            decoded = {key: result for key, _, result in store.iter_points()}
        for spec, result in computed:
            assert decoded[spec.cache_key()] == result

    def test_export_jsonl_lines_decode(self, tmp_path, computed):
        with SweepStore(tmp_path / "s.sqlite") as store:
            for spec, result in computed:
                store.put(spec, result)
            assert store.export_jsonl(tmp_path / "points.jsonl") == len(computed)
        by_key = {spec.cache_key(): (spec, result) for spec, result in computed}
        for line in (tmp_path / "points.jsonl").read_text().splitlines():
            point = json.loads(line)
            spec, result = by_key.pop(point["key"])
            assert point["spec"] == spec.to_dict()
            assert PointResult.from_dict(point["result"]) == result
        assert not by_key


class TestMerge:
    def test_merge_of_disjoint_stores(self, tmp_path, computed):
        with SweepStore(tmp_path / "a.sqlite") as a, SweepStore(tmp_path / "b.sqlite") as b:
            for spec, result in computed[:2]:
                a.put(spec, result)
            for spec, result in computed[2:]:
                b.put(spec, result)
            with SweepStore(tmp_path / "m.sqlite") as merged:
                assert merged.merge_from(a) == (2, 0)
                assert merged.merge_from(b) == (2, 0)
                assert len(merged) == len(computed)

    def test_merge_equals_single_store(self, tmp_path, computed):
        with SweepStore(tmp_path / "full.sqlite") as full:
            for spec, result in computed:
                full.put(spec, result)
            digest = full.content_digest()
        with SweepStore(tmp_path / "a.sqlite") as a, SweepStore(tmp_path / "b.sqlite") as b:
            for spec, result in computed[:2]:
                a.put(spec, result)
            for spec, result in computed[2:]:
                b.put(spec, result)
            with SweepStore(tmp_path / "m.sqlite") as merged:
                merged.merge_from(a)
                merged.merge_from(b)
                assert merged.content_digest() == digest

    def test_overlapping_identical_rows_are_counted_not_conflicts(self, tmp_path, computed):
        with SweepStore(tmp_path / "a.sqlite") as a, SweepStore(tmp_path / "m.sqlite") as m:
            for spec, result in computed:
                a.put(spec, result)
                m.put(spec, result)
            assert m.merge_from(a) == (0, len(computed))

    def test_conflicting_rows_refuse_to_merge(self, tmp_path, computed):
        with SweepStore(tmp_path / "a.sqlite") as a, SweepStore(tmp_path / "m.sqlite") as m:
            for spec, result in computed:
                a.put(spec, result)
                m.put(spec, result)
            m._conn.execute("UPDATE points SET result='{}' WHERE key=?",
                            (computed[0][0].cache_key(),))
            with pytest.raises(StoreError, match="merge conflict"):
                m.merge_from(a)
