"""Content-addressed columnar result store (SQLite, WAL mode).

The one result store: a single ``points`` table keyed by
:meth:`ScenarioSpec.cache_key`, holding the canonical spec/result JSON
*plus* flat scalar columns (protocol, N, seed, goodput, FCT, timeouts,
...) so a million-point study is one indexed ``SELECT`` away from
analysis.

The store is the executor cache (``get``/``put`` with
``hits``/``misses``/``write_errors`` counters):
:class:`~repro.exec.SerialExecutor`/:class:`~repro.exec.ParallelExecutor`
take one in their cache slot, ``--cache-dir DIR`` opens
``DIR/results.sqlite``, and ``python -m repro sweep`` runs into one
directly.

Durability + identity model:

- every ``put`` is its own committed transaction (WAL journal), so a run
  killed mid-flight loses at most the in-flight point, and a resumed run
  continues from the store alone;
- the stored spec/result text is **canonical JSON** (sorted keys, no
  whitespace), so the logical content of two stores is comparable as
  bytes: :meth:`content_digest` hashes rows in key order, independent of
  insertion order, and :meth:`export_canonical` rebuilds a fresh database
  by inserting rows in key order — two stores with equal content export
  byte-identical files (what the ``sweep-smoke`` CI job asserts for
  interrupted-vs-uninterrupted and sharded-vs-merged runs).
"""

from __future__ import annotations

import hashlib
import json
import sqlite3
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

from ..exec.scenario import PointResult, ScenarioSpec, canonical_json

#: Bumped whenever the table layout or the stored result encoding changes; a
#: store carrying a different format refuses to open rather than misreading.
#: 2: columnar ``flow_stats`` / ``trace_events`` in the ``result`` text.
STORE_FORMAT = 2

#: The flat analysis columns, in schema order.  ``key`` addresses content;
#: ``spec``/``result`` carry the lossless canonical JSON; the rest are
#: denormalized scalars for bulk reads (:meth:`SweepStore.to_rows`).
COLUMNS = (
    "key",
    "protocol",
    "cc",
    "n_flows",
    "seed",
    "rounds",
    "goodput_mbps",
    "fct_ms",
    "fct_p99_ms",
    "timeouts",
    "bad_rounds",
    "events_processed",
    "wall_time_s",
)

_SCHEMA = f"""
CREATE TABLE IF NOT EXISTS points (
    key TEXT PRIMARY KEY,
    protocol TEXT NOT NULL,
    cc TEXT NOT NULL,
    n_flows INTEGER NOT NULL,
    seed INTEGER NOT NULL,
    rounds INTEGER NOT NULL,
    goodput_mbps REAL NOT NULL,
    fct_ms REAL NOT NULL,
    fct_p99_ms REAL NOT NULL,
    timeouts INTEGER NOT NULL,
    bad_rounds INTEGER NOT NULL,
    events_processed INTEGER NOT NULL,
    wall_time_s REAL NOT NULL,
    spec TEXT NOT NULL,
    result TEXT NOT NULL
) WITHOUT ROWID;
CREATE TABLE IF NOT EXISTS meta (k TEXT PRIMARY KEY, v TEXT NOT NULL) WITHOUT ROWID;
INSERT OR IGNORE INTO meta VALUES ('format', '{STORE_FORMAT}');
"""


class StoreError(RuntimeError):
    """A store that cannot be used (wrong format, conflicting merge...)."""


def _point_row(spec: ScenarioSpec, result: PointResult) -> Tuple[object, ...]:
    # wall_time_s is host metadata, not simulation output (PointResult
    # already excludes it from equality).  It lives only in its own
    # column; the canonical result JSON zeroes it so two stores filled by
    # different runs of the same points agree byte-for-byte.
    result_dict = result.to_dict()
    result_dict["wall_time_s"] = 0.0
    return (
        spec.cache_key(),
        spec.protocol,
        spec.cc,
        spec.n_flows,
        spec.seed,
        spec.rounds,
        result.goodput_mbps,
        result.fct_ms,
        result.fct_p99_ms,
        result.timeouts,
        result.bad_rounds,
        result.events_processed,
        result.wall_time_s,
        spec.canonical_text,
        canonical_json(result_dict),
    )


_INSERT = "INSERT OR REPLACE INTO points VALUES (" + ",".join("?" * 15) + ")"


class SweepStore:
    """SQLite-backed result store, drop-in for the executor cache slot."""

    def __init__(self, path: Union[str, Path], wal: bool = True):
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self.hits = 0
        self.misses = 0
        self.write_errors = 0
        # Autocommit connection; each put wraps its own BEGIN IMMEDIATE /
        # COMMIT so a kill -9 can only ever lose the in-flight point.
        self._conn = sqlite3.connect(self.path, isolation_level=None, timeout=60.0)
        if wal:
            self._conn.execute("PRAGMA journal_mode=WAL")
            self._conn.execute("PRAGMA synchronous=NORMAL")
        self._conn.executescript(_SCHEMA)
        fmt = self._conn.execute("SELECT v FROM meta WHERE k='format'").fetchone()
        if fmt is None or fmt[0] != str(STORE_FORMAT):
            self._conn.close()
            raise StoreError(
                f"{self.path}: store format {fmt[0] if fmt else '?'} found, this version "
                f"reads format {STORE_FORMAT}: re-run into a new store, or export this one "
                "with the repro version that wrote it"
            )

    # -- executor cache protocol ----------------------------------------------
    def get(self, spec: ScenarioSpec) -> Optional[PointResult]:
        """Decode the stored result for ``spec``, or None on any miss.

        Any failure — absent key, spec collision, corrupt row, dead
        backend — degrades to exactly one counted miss.
        """
        try:
            row = self._conn.execute(
                "SELECT spec, result, wall_time_s FROM points WHERE key=?",
                (spec.cache_key(),),
            ).fetchone()
            if row is None or row[0] != spec.canonical_text:
                raise ValueError("store miss or spec mismatch")
            result = PointResult.from_dict(json.loads(row[1]))
            # The canonical JSON zeroes wall time; rebind the measured
            # value from its column so hits still report their cost.
            result.wall_time_s = row[2]
        except (sqlite3.Error, ValueError, KeyError, IndexError, TypeError, AttributeError):
            self.misses += 1
            return None
        self.hits += 1
        return result

    def put(self, spec: ScenarioSpec, result: PointResult) -> None:
        """Insert one point in its own committed transaction (best effort).

        Failure degrades to "no cache" — but it is *counted* in
        ``write_errors``, which the executors surface on their stderr
        progress line, so a full disk cannot masquerade as a 0% hit rate.
        """
        try:
            self._conn.execute("BEGIN IMMEDIATE")
            try:
                self._conn.execute(_INSERT, _point_row(spec, result))
                self._conn.execute("COMMIT")
            except BaseException:
                self._conn.execute("ROLLBACK")
                raise
        except (sqlite3.Error, OSError):
            self.write_errors += 1

    def __len__(self) -> int:
        return self._conn.execute("SELECT COUNT(*) FROM points").fetchone()[0]

    # -- addressing ------------------------------------------------------------
    def keys(self) -> List[str]:
        """Every stored content key, sorted."""
        return [r[0] for r in self._conn.execute("SELECT key FROM points ORDER BY key")]

    def has_key(self, key: str) -> bool:
        return (
            self._conn.execute("SELECT 1 FROM points WHERE key=?", (key,)).fetchone()
            is not None
        )

    def missing(self, specs: Sequence[ScenarioSpec]) -> List[ScenarioSpec]:
        """The subset of ``specs`` not yet stored (the orchestrator's work list)."""
        return [s for s in specs if not self.has_key(s.cache_key())]

    # -- bulk columnar reads ----------------------------------------------------
    def to_rows(self, columns: Sequence[str] = COLUMNS) -> List[Tuple[object, ...]]:
        """Bulk-read the flat analysis columns, ordered by key."""
        unknown = set(columns) - set(COLUMNS)
        if unknown:
            raise StoreError(f"unknown columns {sorted(unknown)}; valid: {list(COLUMNS)}")
        sql = f"SELECT {', '.join(columns)} FROM points ORDER BY key"
        return list(self._conn.execute(sql))

    def to_csv(self, columns: Sequence[str] = COLUMNS) -> str:
        """The flat columns as CSV text (header + one line per point)."""
        lines = [",".join(columns)]
        for row in self.to_rows(columns):
            lines.append(",".join(repr(c) if isinstance(c, float) else str(c) for c in row))
        return "\n".join(lines) + "\n"

    def iter_points(self) -> Iterator[Tuple[str, Dict[str, object], PointResult]]:
        """Yield ``(key, spec_dict, result)`` in key order (lossless decode)."""
        for key, spec_text, result_text in self._conn.execute(
            "SELECT key, spec, result FROM points ORDER BY key"
        ):
            yield key, json.loads(spec_text), PointResult.from_dict(json.loads(result_text))

    # -- identity ---------------------------------------------------------------
    def content_digest(self) -> str:
        """SHA-256 over ``key\\nspec\\nresult`` rows in key order.

        A pure function of the stored *content*: two stores filled in any
        order (resumed, sharded-and-merged) with the same points
        agree, regardless of SQLite page layout.
        """
        digest = hashlib.sha256()
        for key, spec_text, result_text in self._conn.execute(
            "SELECT key, spec, result FROM points ORDER BY key"
        ):
            digest.update(f"{key}\n{spec_text}\n{result_text}\n".encode())
        return digest.hexdigest()

    # -- merge -------------------------------------------------------------------
    def merge_from(self, other: "SweepStore") -> Tuple[int, int]:
        """Copy every point of ``other`` into this store; (added, present).

        A key held by both stores must carry identical content — sharded
        runs partition disjointly and reruns are deterministic, so a
        conflicting row means corruption or mixed code versions, and the
        merge refuses rather than guessing.
        """
        added = present = 0
        rows = other._conn.execute(
            "SELECT " + ", ".join(COLUMNS) + ", spec, result FROM points ORDER BY key"
        )
        for row in rows:
            key, spec_text, result_text = row[0], row[-2], row[-1]
            mine = self._conn.execute(
                "SELECT spec, result FROM points WHERE key=?", (key,)
            ).fetchone()
            if mine is not None:
                if mine != (spec_text, result_text):
                    raise StoreError(f"merge conflict on key {key[:16]}…: content differs")
                present += 1
                continue
            self._conn.execute("BEGIN IMMEDIATE")
            try:
                self._conn.execute(_INSERT, row)
                self._conn.execute("COMMIT")
            except BaseException:
                self._conn.execute("ROLLBACK")
                raise
            added += 1
        return added, present

    # -- canonical export ---------------------------------------------------------
    def export_canonical(self, path: Union[str, Path]) -> None:
        """Write a byte-deterministic snapshot database to ``path``.

        Rows are inserted in key order into a fresh non-WAL database with
        a fixed page size, then the connection closes cleanly — so the
        output bytes are a function of content alone.  Two stores whose
        :meth:`content_digest` agree export identical files (CI ``cmp``'s
        them).
        """
        path = Path(path)
        if path.exists():
            path.unlink()
        out = sqlite3.connect(path, isolation_level=None)
        try:
            out.execute("PRAGMA page_size=4096")
            out.execute("PRAGMA journal_mode=MEMORY")
            out.executescript(_SCHEMA)
            out.execute("BEGIN")
            for row in self._conn.execute(
                "SELECT " + ", ".join(COLUMNS) + ", spec, result FROM points ORDER BY key"
            ):
                # Zero the wall_time_s column (index 12): it is the one
                # run-dependent cell, and the snapshot's contract is
                # "equal content => equal bytes".
                row = row[:12] + (0.0,) + row[13:]
                out.execute(_INSERT, row)
            out.execute("COMMIT")
        finally:
            out.close()

    def export_jsonl(self, path: Union[str, Path]) -> int:
        """One ``{"key":…,"spec":…,"result":…}`` line per point, key order."""
        count = 0
        with open(path, "w", encoding="utf-8") as fh:
            for key, spec_text, result_text in self._conn.execute(
                "SELECT key, spec, result FROM points ORDER BY key"
            ):
                fh.write(f'{{"key":"{key}","spec":{spec_text},"result":{result_text}}}\n')
                count += 1
        return count

    # -- lifecycle ----------------------------------------------------------------
    def checkpoint(self) -> None:
        """Fold the WAL back into the main database file."""
        self._conn.execute("PRAGMA wal_checkpoint(TRUNCATE)")

    def close(self) -> None:
        try:
            self.checkpoint()
        except sqlite3.Error:
            pass
        self._conn.close()

    def __enter__(self) -> "SweepStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"SweepStore({str(self.path)!r}, points={len(self)}, "
            f"hits={self.hits}, misses={self.misses}, write_errors={self.write_errors})"
        )
