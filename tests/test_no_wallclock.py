"""Lint-style test: determinism hygiene for the simulator source tree.

Every result the repo produces must be a pure function of (spec, seed):
that is what makes the golden digests, the result cache, and the fuzzer's
rerun-differential sound.  Wall-clock reads and unseeded randomness break
that silently, so this test forbids them at the AST level across all of
``src/repro``:

* ``time.time()`` / ``time.time_ns()`` — wall clock.  (``time.monotonic``
  and ``time.perf_counter`` are fine: they only ever feed wall-time
  *metadata* such as ``wall_time_s`` and bench timings, never results.)
* ``datetime.now()`` / ``datetime.utcnow()`` in any spelling.
* The module-level ``random.<fn>()`` API (``random.random``,
  ``random.randint``, ...) — it draws from the shared unseeded global
  generator.  Constructing a **seeded** ``random.Random(seed)`` instance
  is allowed anywhere; ``random.Random()`` without a seed is not.

``sim/rng.py`` is the one designated owner of RNG construction and is
exempt from the module-level-API rule (not from the wall-clock rules).
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"

#: the one module allowed to touch the ``random`` module API directly
RNG_OWNER = SRC / "sim" / "rng.py"

WALLCLOCK_TIME_FNS = {"time", "time_ns"}
WALLCLOCK_DATETIME_FNS = {"now", "utcnow", "today"}


def _dotted(node):
    """Flatten an attribute chain like ``datetime.datetime.now`` to a list."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
    return list(reversed(parts))


def _violations(path, tree=None):
    """Lint findings in ``tree`` (default: all of ``path``), located in ``path``."""
    if tree is None:
        tree = ast.parse(path.read_text(), filename=str(path))
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        parts = _dotted(node.func)
        if not parts:
            continue
        head, tail = parts[0], parts[-1]
        shown = path.relative_to(SRC.parent) if path.is_relative_to(SRC.parent) else path
        where = f"{shown}:{node.lineno}"
        if head == "time" and tail in WALLCLOCK_TIME_FNS and len(parts) == 2:
            found.append(f"{where}: wall-clock read time.{tail}()")
        elif head == "datetime" and tail in WALLCLOCK_DATETIME_FNS:
            found.append(f"{where}: wall-clock read {'.'.join(parts)}()")
        elif head == "random" and len(parts) == 2:
            if tail == "Random":
                if not node.args and not node.keywords:
                    found.append(f"{where}: unseeded random.Random()")
            elif path != RNG_OWNER:
                found.append(f"{where}: module-level random.{tail}() "
                             "(unseeded global generator)")
    return found


def all_source_files():
    files = sorted(SRC.rglob("*.py"))
    assert len(files) > 20  # the glob is really covering the tree
    return files


FIGURES = SRC / "experiments" / "figures.py"

#: Each figure function of ``experiments/figures.py`` is also linted on its
#: own, under the path of the module it had when every figure lived in a file
#: of its own, so each figure keeps its own case id and a finding names the
#: figure it sits in.
FIGURE_MODULES = {
    "experiments/fig01_goodput_collapse.py": "fig1",
    "experiments/fig02_cwnd_distribution.py": "fig2",
    "experiments/table1_timeout_taxonomy.py": "table1",
    "experiments/fig06_partial_dctcp_plus.py": "fig6",
    "experiments/fig07_full_dctcp_plus.py": "fig7",
    "experiments/fig08_rto_10ms.py": "fig8",
    "experiments/fig09_queue_cdf.py": "fig9",
    "experiments/fig11_12_background.py": "fig11",
    "experiments/fig13_benchmark.py": "fig13",
    "experiments/fig14_initial_rounds.py": "fig14",
    "experiments/ablations.py": "ablations",
    "experiments/extensions.py": "extensions",
    "experiments/arena.py": "arena",
    "experiments/topo_matrix.py": "topo_matrix",
}


def lint_cases():
    """(path, figure function or None for the whole file) with its case id."""
    cases = [pytest.param(p, None, id=str(p.relative_to(SRC))) for p in all_source_files()]
    cases += [pytest.param(FIGURES, fn, id=old) for old, fn in FIGURE_MODULES.items()]
    return cases


@pytest.mark.parametrize("path,figure", lint_cases())
def test_no_wallclock_or_unseeded_randomness(path, figure):
    tree = None
    if figure is not None:
        module = ast.parse(path.read_text(), filename=str(path))
        defs = {n.name: n for n in module.body if isinstance(n, ast.FunctionDef)}
        assert figure in defs, f"{path.name} has no figure function {figure}()"
        tree = defs[figure]
    violations = _violations(path, tree)
    assert not violations, "\n".join(violations)


class TestLintDetects:
    """The lint itself must catch what it claims to (meta-tests)."""

    def _check(self, code, tmp_path):
        f = tmp_path / "mod.py"
        f.write_text(code)
        # place it logically outside the rng owner
        return _violations(f)

    def test_flags_time_time(self, tmp_path):
        assert self._check("import time\nx = time.time()\n", tmp_path)

    def test_flags_datetime_now(self, tmp_path):
        assert self._check(
            "import datetime\nx = datetime.datetime.now()\n", tmp_path
        )

    def test_flags_global_random(self, tmp_path):
        assert self._check("import random\nx = random.randint(0, 5)\n", tmp_path)

    def test_flags_unseeded_random_instance(self, tmp_path):
        assert self._check("import random\nr = random.Random()\n", tmp_path)

    def test_allows_seeded_random_instance(self, tmp_path):
        assert not self._check("import random\nr = random.Random(42)\n", tmp_path)

    def test_allows_monotonic_and_perf_counter(self, tmp_path):
        assert not self._check(
            "import time\na = time.monotonic()\nb = time.perf_counter()\n", tmp_path
        )
