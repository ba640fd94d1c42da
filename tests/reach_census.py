"""Reach census: every function under ``src/repro`` runs on a path that matters.

Drives the user-facing paths in one process under a call-only recorder
(``sys.setprofile`` / ``threading.setprofile``, which records the code
object of each Python call and nothing else):

- ``experiments <id> --quick --no-progress`` for every registered id;
- ``trace --quick``;
- ``fuzz --seeds 3 --budget 20s``;
- ``sweep run --preset ci-512`` into a temporary store, then ``sweep
  status``, ``sweep export`` (CSV, JSONL, canonical snapshot, digest) and
  ``sweep merge`` on it: the store lifecycle the bench's ``sweep-ci512``
  workload times.

It then compiles every file under ``src/repro`` and lists each named
function (comprehensions, generator expressions and lambdas are left
out, as are class and module bodies) that never ran.  Each one must be
covered by ``tests/reach_allowlist.txt``; the script exits 1 if one is not,
or if an allowlist entry is malformed or names nothing.

Allowlist lines are ``path[::qualname] reason``: the path is relative to
``src/repro``, a qualname covers everything nested under it (a class
covers its methods), a bare path covers the whole file, and the reason
(an open ROADMAP item that will read the code, or a public-API promise)
is required.  ``#`` starts a comment line.

Run it from the repo root (it puts ``src`` on ``sys.path`` itself)::

    python tests/reach_census.py    # about 15 min on 2 vCPUs
"""

from __future__ import annotations

import contextlib
import io
import os
import sys
import tempfile
import threading
from pathlib import Path
from typing import Dict, Iterator, List, Set, Tuple

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "repro"
ALLOWLIST = Path(__file__).resolve().parent / "reach_allowlist.txt"

#: Code flag of a function body (absent on module and class bodies).
CO_OPTIMIZED = 0x0001

#: (path relative to src/repro, qualname, first line) of one function.
Key = Tuple[str, str, int]


def _functions(code, rel: str) -> Iterator[Key]:
    for const in code.co_consts:
        if hasattr(const, "co_code"):
            name = const.co_name
            if const.co_flags & CO_OPTIMIZED and not name.startswith("<"):
                yield rel, const.co_qualname, const.co_firstlineno
            yield from _functions(const, rel)


def all_functions() -> Set[Key]:
    """Every named function compiled from ``src/repro``."""
    found: Set[Key] = set()
    for path in sorted(PACKAGE.rglob("*.py")):
        rel = path.relative_to(PACKAGE).as_posix()
        found.update(_functions(compile(path.read_text(), str(path), "exec"), rel))
    return found


def run_paths(store_dir: str) -> Tuple[Set[Key], List[str]]:
    """Run every census path under the recorder; returns (reached, failures)."""
    seen: Set[object] = set()

    def record(frame, event, arg):
        if event == "call":
            seen.add(frame.f_code)

    # Worker count, cache and validation come from the environment; the
    # census runs serial, uncached and unvalidated, as a plain user would.
    for name in ("REPRO_WORKERS", "REPRO_CACHE_DIR", "REPRO_VALIDATE"):
        os.environ.pop(name, None)
    sys.path.insert(0, str(ROOT / "src"))
    paths = [["experiments", "--list"]]
    threading.setprofile(record)
    sys.setprofile(record)
    try:
        from repro.__main__ import main
        from repro.experiments.registry import experiment_ids

        paths += [["experiments", i, "--quick", "--no-progress"] for i in experiment_ids()]
        store = os.path.join(store_dir, "ci-512.sqlite")
        out = os.path.join(store_dir, "export")
        paths += [
            ["trace", "--quick"],
            ["fuzz", "--seeds", "3", "--budget", "20s"],
            ["sweep", "run", "--preset", "ci-512", "--store", store],
            ["sweep", "status", "--preset", "ci-512", "--store", store],
            ["sweep", "export", "--store", store, "--digest", "--csv", out + ".csv",
             "--jsonl", out + ".jsonl", "--db", out + ".sqlite"],
            ["sweep", "merge", "--into", os.path.join(store_dir, "merged.sqlite"), store],
        ]
        failures = []
        for argv in paths:
            print("census:", " ".join(argv), file=sys.stderr, flush=True)
            sink = io.StringIO()
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                code = main(argv)
            if code != 0:
                failures.append(f"{' '.join(argv)} exited {code}")
    finally:
        sys.setprofile(None)
        threading.setprofile(None)

    package = str(PACKAGE) + os.sep
    reached: Set[Key] = set()
    for code in seen:
        filename = os.path.realpath(code.co_filename)
        if filename.startswith(package):
            rel = Path(filename).relative_to(PACKAGE).as_posix()
            reached.add((rel, code.co_qualname, code.co_firstlineno))
    return reached, failures


def read_allowlist() -> Tuple[Dict[Tuple[str, str], str], List[str]]:
    """Allowlist entries as {(path, qualname or ""): reason}, plus format errors."""
    entries: Dict[Tuple[str, str], str] = {}
    errors = []
    for n, line in enumerate(ALLOWLIST.read_text().splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        target, _, reason = line.partition(" ")
        if not reason.strip():
            errors.append(f"{ALLOWLIST.name}:{n}: entry {target!r} has no reason")
            continue
        path, _, qualname = target.partition("::")
        entries[(path, qualname)] = reason.strip()
    return entries, errors


def covers(entry: Tuple[str, str], key: Key) -> bool:
    path, qualname = entry
    return key[0] == path and (
        not qualname or key[1] == qualname or key[1].startswith(qualname + ".")
    )


def main() -> int:
    functions = all_functions()
    entries, errors = read_allowlist()
    for entry in entries:
        if not any(covers(entry, key) for key in functions):
            errors.append(f"allowlist entry {'::'.join(filter(None, entry))} names no function")
    with tempfile.TemporaryDirectory() as store_dir:
        reached, failures = run_paths(store_dir)
    unreached = sorted(functions - reached)
    missing = [key for key in unreached if not any(covers(e, key) for e in entries)]

    print(f"{len(functions)} functions, {len(reached & functions)} reached, "
          f"{len(unreached)} unreached, {len(missing)} not allowlisted")
    for key in missing:
        print(f"  {key[0]}::{key[1]} (line {key[2]})")
    for entry in entries:
        hits = [key for key in functions if covers(entry, key)]
        if hits and all(key in reached for key in hits):
            print(f"note: every function under {'::'.join(filter(None, entry))} ran; "
                  "the entry can go")
    for message in failures + errors:
        print(f"error: {message}")
    return 1 if missing or failures or errors else 0


if __name__ == "__main__":
    sys.exit(main())
