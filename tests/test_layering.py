"""Package layering: what importing the simulator core is allowed to pull in.

The four lower packages (``sim``, ``net``, ``tcp``, ``core``) are the
simulated system; everything else (workloads, telemetry, exec, control,
experiments) observes or drives it.  Their module-level imports may name
only each other and the standard library, so no import cycle can run
through an observer.  A function-local import upward (``tcp/cc.py`` ->
``control``, ``sim/engine.py`` -> ``telemetry.hooks``) is allowed: it runs
after every package has finished initialising.

numpy is a post-processing dependency: it is imported inside the functions
that build arrays, so ``import repro`` does not pay for it.
"""

from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
REPRO = SRC / "repro"
LOWER = ("sim", "net", "tcp", "core")


def test_import_repro_does_not_load_numpy():
    code = "import sys, repro; print('numpy' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        timeout=120,
        check=True,
    )
    assert out.stdout.strip() == "False"


def _module_level_imports(path: Path):
    """Absolute names imported by ``path``'s top level (``if``/``try`` included)."""
    parts = ["repro", *path.relative_to(REPRO).with_suffix("").parts]
    package = parts[:-1]  # an __init__'s "module" part is __init__, so this is its package
    stack = list(ast.parse(path.read_text(), filename=str(path)).body)
    while stack:
        node = stack.pop()
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                base = package[: len(package) - node.level + 1]
                yield ".".join(base + ([node.module] if node.module else []))
            else:
                yield node.module
        elif isinstance(node, (ast.If, ast.Try)):
            stack.extend(node.body + node.orelse + getattr(node, "finalbody", []))
            for handler in getattr(node, "handlers", []):
                stack.extend(handler.body)


def test_lower_packages_import_only_each_other():
    allowed = {f"repro.{pkg}" for pkg in LOWER}
    bad = []
    for path in sorted(p for pkg in LOWER for p in (REPRO / pkg).rglob("*.py")):
        for name in _module_level_imports(path):
            top = name.split(".")[0]
            if top == "repro":
                ok = ".".join(name.split(".")[:2]) in allowed
            else:
                ok = top == "__future__" or top in sys.stdlib_module_names
            if not ok:
                bad.append(f"{path.relative_to(REPRO)} -> {name}")
    assert not bad, "module-level imports outside sim/net/tcp/core + stdlib: " + ", ".join(bad)
