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


def _imported(node, path: Path):
    """Absolute module names an ``import`` node of ``path`` names, or ()."""
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    if not isinstance(node, ast.ImportFrom):
        return []
    if not node.level:
        return [node.module]
    parts = ["repro", *path.relative_to(REPRO).with_suffix("").parts]
    package = parts[:-1]  # an __init__'s "module" part is __init__, so this is its package
    base = package[: len(package) - node.level + 1]
    return [".".join(base + ([node.module] if node.module else []))]


def _module_level_imports(path: Path):
    """Absolute names imported by ``path``'s top level (``if``/``try`` included)."""
    stack = list(ast.parse(path.read_text(), filename=str(path)).body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield from _imported(node, path)
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


def test_only_the_parked_surface_imports_control():
    """``repro.control`` (ControlEnv, external policies) is parked: nothing on
    the paper path may import it, at module level or inside a function.
    Its readers are itself, the control-demo experiment, the package's
    public surface, and ``tcp/cc.py``'s function-local resolution of
    ``external:`` strategy names."""
    allowed = {Path("experiments/control_demo.py"), Path("__init__.py")}
    bad = []
    for path in sorted(REPRO.rglob("*.py")):
        rel = path.relative_to(REPRO)
        if rel.parts[0] == "control" or rel in allowed:
            continue
        top_level = set(_module_level_imports(path))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            names = _imported(node, path)
            if isinstance(node, ast.ImportFrom):  # ``from repro import control``
                names += [f"{names[0]}.{alias.name}" for alias in node.names]
            for name in names:
                if name != "repro.control" and not name.startswith("repro.control."):
                    continue
                if rel == Path("tcp/cc.py") and name not in top_level:
                    continue
                bad.append(f"{rel} -> {name}")
    assert not bad, "imports of the parked repro.control: " + ", ".join(bad)
