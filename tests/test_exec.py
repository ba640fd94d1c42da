"""Tests for the scenario/execution layer (:mod:`repro.exec`).

The load-bearing guarantees:

- a :class:`ScenarioSpec` is frozen, hashable and fully describes one
  simulation point, with a cache key that changes whenever any field does;
- ``SerialExecutor`` and ``ParallelExecutor`` produce **identical**
  aggregates for the same batch (process fan-out must not perturb results);
- a cache-hit run returns results equal to the cold run, and a damaged
  or unwritable cache costs one counted miss or write error, never a crash.
"""

import dataclasses
import functools
import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.exec import (
    CACHE_DIR_ENV,
    ParallelExecutor,
    PointResult,
    ScenarioSpec,
    SerialExecutor,
    WORKERS_ENV,
    get_executor,
    make_executor,
    run_scenario,
    using_executor,
)
from repro.exec.scenario import canonical_json
from repro.tcp.flowstats import FlowStats
from repro.tcp.timeouts import TimeoutKind
from repro.telemetry import TraceRecord


def tiny_spec(protocol="dctcp", n_flows=2, seed=1, **kwargs):
    return ScenarioSpec.create(protocol, n_flows, rounds=1, seed=seed, **kwargs)


TINY_BATCH = [
    tiny_spec("dctcp", 2, seed=1),
    tiny_spec("dctcp", 2, seed=2),
    tiny_spec("dctcp+", 3, seed=1),
    tiny_spec("tcp", 2, seed=1),
]

#: A spec with a tuple *inside* an override value (the dumbbell's per-pair leg delays).
NESTED_TUPLE_SPEC = tiny_spec(topology="dumbbell", topo={"leg_delays_ns": (6000, 12000)})


class TestScenarioSpec:
    def test_frozen_and_hashable(self):
        spec = tiny_spec()
        assert spec == tiny_spec()
        assert len({spec, tiny_spec(), tiny_spec(seed=2)}) == 2
        with pytest.raises(dataclasses.FrozenInstanceError):
            spec.n_flows = 99

    def test_cache_key_is_stable(self):
        assert tiny_spec().cache_key() == tiny_spec().cache_key()

    def test_cache_key_changes_with_every_field(self):
        base = tiny_spec()
        variants = [
            tiny_spec("dctcp+"),
            tiny_spec(n_flows=3),
            tiny_spec(seed=2),
            ScenarioSpec.create("dctcp", 2, rounds=2, seed=1),
            tiny_spec(rto_min_ms=10.0),
            tiny_spec(min_cwnd_mss=1.0),
            tiny_spec(plus_overrides={"divisor_factor": 8.0}),
            tiny_spec(with_background=True),
            tiny_spec(sample_queue=True),
        ]
        keys = {base.cache_key()} | {v.cache_key() for v in variants}
        assert len(keys) == len(variants) + 1

    def test_create_maps_convenience_knobs_to_tcp_overrides(self):
        spec = tiny_spec(rto_min_ms=10.0, min_cwnd_mss=1.0)
        overrides = dict(spec.tcp_overrides)
        assert overrides["rto_min_ns"] == 10_000_000
        assert overrides["min_cwnd_mss"] == 1.0

    def test_to_dict_is_json_serializable(self):
        for spec in (tiny_spec(plus_overrides={"divisor_factor": 8.0}), NESTED_TUPLE_SPEC):
            roundtrip = json.loads(json.dumps(spec.to_dict()))
            assert roundtrip == spec.to_dict()

    def test_cache_key_of_a_nested_tuple_spec_is_pinned(self, monkeypatch):
        # to_dict() once left nested tuples as tuples; listifying them must
        # not move any key (JSON writes both the same).  Regenerate the
        # literal only together with a SCHEMA_VERSION bump.  The patched
        # version differs from the real one on a module-level spec other
        # tests have hashed already, so a memoised key would fail here.
        import repro

        monkeypatch.setattr(repro, "__version__", "1.4.0")
        assert NESTED_TUPLE_SPEC.cache_key() == (
            "9e55f158c9937adc3721218937ac5bf6a26b99fcdd851877cebeab20b2eff855"
        )

    def test_cache_key_follows_the_package_version(self, monkeypatch):
        import repro

        spec = tiny_spec()
        before = spec.cache_key()
        monkeypatch.setattr(repro, "__version__", repro.__version__ + ".post1")
        assert spec.cache_key() != before

    def test_memoised_text_stays_out_of_identity(self):
        spec = tiny_spec()
        assert spec.canonical_text == canonical_json(spec.to_dict())
        assert spec == tiny_spec() and hash(spec) == hash(tiny_spec())
        assert "canonical_text" not in spec.to_dict()
        assert dataclasses.replace(spec, seed=2).canonical_text != spec.canonical_text

    def test_label_names_the_point(self):
        assert tiny_spec("dctcp+", 40, seed=3).label() == "dctcp+ N=40 seed=3"


class TestRunScenario:
    def test_smoke_and_telemetry(self):
        result = run_scenario(tiny_spec())
        assert result.protocol == "dctcp"
        assert result.n_flows == 2
        assert result.seeds == (1,)
        assert result.goodput_mbps > 0
        assert result.events_processed > 0
        assert result.wall_time_s >= 0
        assert result.bg_throughput_mbps is None

    def test_flow_ids_renumbered_per_scenario(self):
        # next_flow_id() is process-global; run_scenario must renumber so
        # the same spec yields the same stats in any worker process.
        first = run_scenario(tiny_spec())
        second = run_scenario(tiny_spec())
        assert sorted({fs.flow_id for fs in first.flow_stats}) == [0, 1]
        assert first == second

    def test_background_scenario_reports_bg_throughput(self):
        result = run_scenario(tiny_spec(with_background=True))
        assert result.bg_throughput_mbps is not None
        assert result.bg_throughput_mbps > 0


class TestExecutors:
    def test_serial_and_parallel_agree(self):
        serial = SerialExecutor().map(TINY_BATCH)
        parallel = ParallelExecutor(workers=2).map(TINY_BATCH)
        assert serial == parallel

    def test_results_preserve_submission_order(self):
        results = ParallelExecutor(workers=2).map(TINY_BATCH)
        labels = [(r.protocol, r.n_flows, r.seeds) for r in results]
        assert labels == [(s.protocol, s.n_flows, (s.seed,)) for s in TINY_BATCH]

    def test_progress_callback_sees_every_point(self):
        events = []
        SerialExecutor(progress=events.append).map(TINY_BATCH[:2])
        assert [(e.done, e.total) for e in events] == [(1, 2), (2, 2)]
        assert all(not e.cached for e in events)
        assert events[0].result.goodput_mbps > 0

    def test_parallel_rejects_bad_worker_count(self):
        with pytest.raises(ValueError):
            ParallelExecutor(workers=0)


class TestResultCache:
    """The ``--cache-dir`` cache through its real entry:
    ``make_executor(cache_dir=D)`` opens the store ``D/results.sqlite``."""

    @pytest.fixture
    def executor(self, tmp_path):
        executor = make_executor(workers=1, cache_dir=tmp_path)
        yield executor
        executor.close()

    @staticmethod
    def _filled(executor, spec):
        """Run ``spec`` into the executor's cache; (cache, stored result text)."""
        cache = executor.cache
        executor.map([spec])
        (text,) = cache._conn.execute("SELECT result FROM points").fetchone()
        return cache, text

    @staticmethod
    def _assert_one_miss(cache, spec, column, text):
        cache._conn.execute(f"UPDATE points SET {column}=?", (text,))
        cache.hits = cache.misses = 0
        assert cache.get(spec) is None
        assert (cache.hits, cache.misses) == (0, 1)

    def test_cold_then_warm_run_identical(self, tmp_path):
        specs = TINY_BATCH[:2] + [NESTED_TUPLE_SPEC]
        cold_executor = make_executor(workers=1, cache_dir=tmp_path / "c")
        cold = cold_executor.map(specs)
        cold_cache = cold_executor.cache
        assert cold_cache.misses == 3 and cold_cache.hits == 0
        assert len(cold_cache) == 3
        cold_executor.close()
        # One database file, its WAL folded in: nothing else to copy or clean.
        assert [p.name for p in (tmp_path / "c").iterdir()] == ["results.sqlite"]

        events = []
        warm_executor = make_executor(workers=1, cache_dir=tmp_path / "c", progress=events.append)
        warm = warm_executor.map(specs)
        assert warm_executor.cache.hits == 3 and warm_executor.cache.misses == 0
        assert warm == cold
        assert all(e.cached for e in events)
        warm_executor.close()

    def test_old_json_entries_in_the_directory_are_ignored(self, tmp_path):
        # A directory left behind by the one-JSON-file-per-point cache this
        # store replaced: its files are neither read nor an error.
        spec = TINY_BATCH[0]
        stale = tmp_path / f"{spec.cache_key()}.json"
        stale.write_text("not json{")
        executor = make_executor(workers=1, cache_dir=tmp_path)
        result = executor.map([spec])[0]
        assert (executor.cache.hits, executor.cache.misses) == (0, 1)
        assert executor.cache.get(spec) == result
        executor.close()
        assert stale.read_text() == "not json{"

    def test_corrupt_entry_is_a_miss(self, executor):
        spec = TINY_BATCH[0]
        cache, _ = self._filled(executor, spec)
        self._assert_one_miss(cache, spec, "result", "not json{")
        result = executor.map([spec])[0]  # recomputed and stored over the corrupt row
        assert cache.get(spec) == result

    def test_truncated_entry_counts_exactly_one_miss(self, executor):
        spec = TINY_BATCH[0]
        cache, full = self._filled(executor, spec)
        self._assert_one_miss(cache, spec, "result", full[: len(full) // 2])

    def test_non_object_entry_counts_exactly_one_miss(self, executor):
        # Valid-but-wrong JSON ("null", a bare list) must be a counted miss,
        # not an executor crash.
        spec = TINY_BATCH[0]
        cache, _ = self._filled(executor, spec)
        for blob in ("null", "[]", '"entry"'):
            self._assert_one_miss(cache, spec, "result", blob)

    def test_entry_with_mismatched_spec_is_a_miss(self, executor):
        spec = TINY_BATCH[0]
        cache, _ = self._filled(executor, spec)
        forged = dict(spec.to_dict(), n_flows=999)
        self._assert_one_miss(cache, spec, "spec", json.dumps(forged))

    def test_failed_writes_are_counted_and_surfaced(self, tmp_path):
        # "Best effort" must not mean silent: a store that cannot be written
        # (read-only: stand-in for a full disk) or has gone away (closed)
        # gives one counted miss and one counted failed put, and the
        # executor's progress events carry the counter so the stderr
        # progress line can show it.
        spec = TINY_BATCH[0]
        breakers = {
            "read-only": lambda cache: cache._conn.execute("PRAGMA query_only=ON"),
            "vanished": lambda cache: cache.close(),
        }
        for name, break_store in breakers.items():
            events = []
            executor = make_executor(
                workers=1, cache_dir=tmp_path / name, progress=events.append
            )
            break_store(executor.cache)
            executor.map([spec])
            assert (executor.cache.misses, executor.cache.write_errors) == (1, 1), name
            assert events[-1].cache_write_errors == 1, name
            executor.close()

    def test_progress_reports_zero_write_errors_without_a_cache(self):
        events = []
        SerialExecutor(progress=events.append).map([TINY_BATCH[0]])
        assert events[-1].cache_write_errors == 0


@functools.cache
def simulated_result():
    """A real traced, queue-sampled run of the point ``generated_results`` share."""
    return run_scenario(tiny_spec(sample_queue=True, trace=True))


counts = st.integers(0, 2**40)
generated_flows = st.builds(
    FlowStats,
    flow_id=st.integers(0, 3),
    total_bytes=counts,
    start_time_ns=st.integers(-1, 2**50),
    completion_time_ns=st.integers(-1, 2**50),
    data_packets_sent=counts,
    retransmitted_packets=counts,
    fast_retransmits=counts,
    timeouts=st.lists(st.tuples(counts, st.sampled_from(TimeoutKind)), max_size=4),
    acks_received=counts,
    dupacks_received=counts,
    ece_acks_received=counts,
    send_snapshots=st.dictionaries(
        st.tuples(st.integers(0, 64), st.booleans()), st.integers(1, 10_000), max_size=8
    ),
)
finite = st.floats(-1e9, 1e9)
generated_records = st.builds(
    TraceRecord,
    time_ns=counts,
    kind=st.sampled_from(["rto", "cwnd", "slow_time"]),
    subject=st.text(max_size=6),
    value=st.one_of(counts, finite),
    detail=st.text(max_size=6),
)
generated_results = st.builds(
    PointResult,
    protocol=st.just("dctcp"),
    n_flows=st.just(2),
    seeds=st.tuples(st.integers(0, 99)),
    goodput_mbps=finite,
    fct_ms=finite,
    timeouts=counts,
    rounds=counts,
    bad_rounds=counts,
    flow_stats=st.lists(generated_flows, max_size=5),
    queue_samples_bytes=st.lists(counts, max_size=4),
    round_durations_ns=st.lists(counts, max_size=4),
    trace_events=st.lists(generated_records, max_size=5),
    bg_throughput_mbps=st.none() | finite,
    events_processed=counts,
)


class TestPointResult:
    def test_aggregate_means_and_sums(self):
        a, b = SerialExecutor().map(TINY_BATCH[:2])
        merged = PointResult.aggregate([a, b])
        assert merged.seeds == (1, 2)
        assert merged.goodput_mbps == pytest.approx((a.goodput_mbps + b.goodput_mbps) / 2)
        assert merged.timeouts == a.timeouts + b.timeouts
        assert merged.rounds == a.rounds + b.rounds
        assert len(merged.flow_stats) == len(a.flow_stats) + len(b.flow_stats)
        assert merged.events_processed == a.events_processed + b.events_processed

    def test_aggregate_rejects_mixed_points(self):
        a = run_scenario(tiny_spec("dctcp", 2))
        b = run_scenario(tiny_spec("dctcp", 3))
        with pytest.raises(ValueError):
            PointResult.aggregate([a, b])

    @settings(deadline=None)  # the first draw of simulated_result runs a simulation
    @given(
        st.lists(
            st.one_of(st.builds(simulated_result), generated_results), min_size=1, max_size=3
        )
    )
    def test_json_roundtrip_is_lossless(self, parts):
        # Several parts make a multi-seed aggregate, whose flow_ids repeat.
        result = PointResult.aggregate(parts)
        text = canonical_json(result.to_dict())
        decoded = PointResult.from_dict(json.loads(text))
        assert decoded == result
        # The store's "equal content => equal bytes" contract: dict equality
        # ignores send_snapshots insertion order, the re-encoded text does not.
        assert canonical_json(decoded.to_dict()) == text


class TestExecutorContext:
    def test_default_is_serial(self, monkeypatch):
        monkeypatch.delenv(WORKERS_ENV, raising=False)
        monkeypatch.delenv(CACHE_DIR_ENV, raising=False)
        executor = make_executor()
        assert isinstance(executor, SerialExecutor)
        assert executor.cache is None

    def test_workers_argument_selects_parallel(self):
        executor = make_executor(workers=3)
        assert isinstance(executor, ParallelExecutor)
        assert executor.workers == 3

    def test_env_fallbacks(self, monkeypatch, tmp_path):
        monkeypatch.setenv(WORKERS_ENV, "4")
        monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path / "env-cache"))
        executor = make_executor()
        assert isinstance(executor, ParallelExecutor)
        assert executor.workers == 4
        assert executor.cache.path == tmp_path / "env-cache" / "results.sqlite"
        executor.close()

    def test_using_executor_restores_previous(self):
        outer = SerialExecutor()
        inner = SerialExecutor()
        with using_executor(outer):
            assert get_executor() is outer
            with using_executor(inner):
                assert get_executor() is inner
            assert get_executor() is outer
