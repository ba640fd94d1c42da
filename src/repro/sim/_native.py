"""Build/load shim for the optional ``_evcore`` C extension.

The native event core (see ``_evcore.c``) is a pure accelerator: it owns
the light-event heap, the fused dispatch loop and a copy of the plain
packet hop (the methods registered with :func:`register_hop`), with event
ordering bit-for-bit identical to the pure-Python engine.  Because this repo ships
as source, the extension is compiled **on demand** with the host C
toolchain the first time a :class:`~repro.sim.engine.Simulator` wants it,
and cached under ``_build/`` keyed by a hash of the C source (so editing
``_evcore.c`` transparently rebuilds).

Everything here fails *soft*: no compiler, no headers, a build error, or
``REPRO_NATIVE=0`` in the environment all yield ``core_factory() ->
None`` and the engine silently runs the pure-Python loop.  ``status()``
reports what happened, for debugging.
"""

from __future__ import annotations

import hashlib
import importlib.util
import os
import subprocess
import sysconfig
import tempfile
from pathlib import Path
from typing import Optional

#: Environment opt-out: set to ``0``/``false``/``off``/``no`` to force the
#: pure-Python engine (checked per call, so tests can flip it at runtime).
NATIVE_ENV = "REPRO_NATIVE"

_factory = None  # the EventCore type once loaded
_build_attempted = False
_status = "not attempted"

#: The Python methods the core's dispatch loop runs itself when their gates
#: hold (``_evcore.c``, "The plain packet hop"), by role, in ``set_hop``
#: order.  net/port.py and net/host.py register theirs at import.
_hop = {"finish_tx": None, "send": None, "receive": None}
_module = None  # the loaded _evcore module


def register_hop(role: str, function) -> None:
    """Hand the core ``function``, whose body it copies (keep the two in sync).

    Never builds or loads the core: a core loaded later receives every
    function registered by then.
    """
    if role not in _hop:
        raise ValueError(f"unknown hop role {role!r}")
    _hop[role] = function
    if _module is not None:
        _module.set_hop(*_hop.values())


def _enabled() -> bool:
    return os.environ.get(NATIVE_ENV, "").strip().lower() not in ("0", "false", "off", "no")


def _build_dir() -> Path:
    """Writable cache directory for the compiled extension.

    Prefers ``_build/`` next to the source (gitignored, shared across
    processes and test runs); falls back to a per-user temp directory when
    the tree is read-only (e.g. an installed package).
    """
    local = Path(__file__).resolve().parent / "_build"
    try:
        local.mkdir(exist_ok=True)
        probe = local / ".write-probe"
        probe.touch()
        probe.unlink()
        return local
    except OSError:
        fallback = Path(tempfile.gettempdir()) / f"repro-evcore-{os.getuid()}"
        fallback.mkdir(exist_ok=True)
        return fallback


def _compile_and_load():
    global _module
    source = Path(__file__).with_name("_evcore.c")
    code = source.read_bytes()
    tag = hashlib.sha256(code).hexdigest()[:16]
    suffix = sysconfig.get_config_var("EXT_SUFFIX") or ".so"
    out = _build_dir() / f"_evcore-{tag}{suffix}"
    if not out.exists():
        cc = os.environ.get("CC", "cc")
        include = sysconfig.get_paths()["include"]
        # Compile to a private name, then atomically publish: concurrent
        # test workers may race to build the same cache entry.
        tmp = out.with_name(out.name + f".tmp-{os.getpid()}")
        cmd = [cc, "-O2", "-fPIC", "-shared", f"-I{include}", str(source), "-o", str(tmp)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=180)
        if proc.returncode != 0:
            raise RuntimeError(f"cc failed: {proc.stderr.strip()[:500]}")
        os.replace(tmp, out)
    spec = importlib.util.spec_from_file_location("repro.sim._evcore", out)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    _module = module
    module.set_hop(*_hop.values())
    return module.EventCore


def core_factory() -> Optional[type]:
    """The ``EventCore`` type, or ``None`` when native mode is unavailable.

    The build is attempted at most once per process; the ``REPRO_NATIVE``
    opt-out is honoured on every call.
    """
    global _factory, _build_attempted, _status
    if not _enabled():
        return None
    if not _build_attempted:
        _build_attempted = True
        try:
            _factory = _compile_and_load()
            _status = "loaded"
        except Exception as exc:  # noqa: BLE001 - any failure means fallback
            _factory = None
            _status = f"unavailable ({type(exc).__name__}: {exc})"
    return _factory


def status() -> str:
    """Human-readable outcome of the last load attempt."""
    if not _enabled():
        return f"disabled ({NATIVE_ENV})"
    return _status
