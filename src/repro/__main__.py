"""``python -m repro`` — the umbrella command-line interface.

One front door over the package's tools::

    python -m repro experiments fig7           # paper experiments
    python -m repro fuzz --seeds 20            # invariant fuzzer
    python -m repro trace --quick              # telemetry trace report

Shared flags may be given *before* the command and apply to any of them:

- ``--workers N``     parallel scenario workers (``REPRO_WORKERS``)
- ``--cache-dir P``   on-disk result cache (``REPRO_CACHE_DIR``)
- ``--validate``      attach the invariant checker (``REPRO_VALIDATE=1``)
- ``--seed N``        forwarded to commands that take a single seed
  (``trace``, ``fuzz``); experiments take ``--seeds`` after the command.

The shared flags travel as environment variables, which is exactly how
worker processes already inherit them — so ``--workers 8`` before the
command and ``--workers 8`` after it (where a command defines its own)
behave identically.  Each command declares its own subset of the shared
flags through :mod:`repro.cli`, so the wording and environment plumbing
are identical everywhere.  This umbrella is the only entry point: the
old per-module ones (``python -m repro.experiments``,
``python -m repro.validate.fuzz``) are gone.
"""

from __future__ import annotations

import os
import sys
from typing import List, Optional, Sequence

from .sweep.store import StoreError

USAGE = """\
usage: python -m repro [--workers N] [--cache-dir PATH] [--validate] [--seed N]
                       {experiments,fuzz,trace,sweep} [args...]

commands:
  experiments   run paper experiments (figures and tables)
  fuzz          seeded scenario fuzzer under full invariant checking
  trace         run one scenario with telemetry and print the trace report
  sweep         million-point sweep service: run/status/merge/export

shared flags (before the command):
  --workers N       parallel scenario workers (sets REPRO_WORKERS)
  --cache-dir PATH  on-disk result cache (sets REPRO_CACHE_DIR)
  --validate        attach the invariant checker (sets REPRO_VALIDATE=1)
  --seed N          forwarded to commands taking a single seed (trace, fuzz)
  --version         print the package version and exit
  -h, --help        show this message and exit

run 'python -m repro <command> --help' for command-specific options.
"""

COMMANDS = ("experiments", "fuzz", "trace", "sweep")

#: Commands whose own CLI accepts ``--seed N`` for the umbrella flag to
#: forward to.  ``experiments`` deliberately isn't here: it takes a seed
#: *count* (``--seeds``), not a single seed.
SEED_COMMANDS = ("trace", "fuzz")


def _fail(message: str) -> int:
    print(f"python -m repro: {message}", file=sys.stderr)
    print(USAGE, file=sys.stderr, end="")
    return 2


def main(argv: Optional[Sequence[str]] = None) -> int:
    args: List[str] = list(sys.argv[1:] if argv is None else argv)

    # Hand-rolled leading-flag scan: everything before the first known
    # command name is an umbrella flag; everything after belongs verbatim
    # to the command (argparse's REMAINDER handling of interleaved options
    # is unreliable, so we never let argparse see the command tail).
    seed: Optional[str] = None
    i = 0
    while i < len(args):
        arg = args[i]
        if arg in ("-h", "--help"):
            print(USAGE, end="")
            return 0
        if arg == "--version":
            from . import __version__

            print(f"repro {__version__}")
            return 0
        if arg == "--validate":
            os.environ["REPRO_VALIDATE"] = "1"
            del args[i]
            continue
        if arg in ("--workers", "--cache-dir", "--seed") or arg.startswith(
            ("--workers=", "--cache-dir=", "--seed=")
        ):
            if "=" in arg:
                name, value = arg.split("=", 1)
                del args[i]
            else:
                name = arg
                if i + 1 >= len(args):
                    return _fail(f"{name} requires a value")
                value = args[i + 1]
                del args[i : i + 2]
            if name == "--workers":
                if not value.isdigit() or int(value) < 1:
                    return _fail(f"--workers must be a positive integer, got {value!r}")
                os.environ["REPRO_WORKERS"] = value
            elif name == "--cache-dir":
                os.environ["REPRO_CACHE_DIR"] = value
            else:
                seed = value
            continue
        break

    if not args:
        return _fail("missing command")
    command, tail = args[0], args[1:]
    if command not in COMMANDS:
        return _fail(f"unknown command {command!r}")

    if (
        seed is not None
        and command in SEED_COMMANDS
        and not any(t == "--seed" or t.startswith("--seed=") for t in tail)
    ):
        tail = ["--seed", seed] + tail

    if command == "experiments":
        from .experiments.runner import main as run

    elif command == "fuzz":
        from .validate.fuzz import main as run

    elif command == "sweep":
        from .sweep.cli import main as run

    else:
        from .telemetry.cli import main as run

    try:
        return run(tail)
    except StoreError as exc:
        # Any command may open a store (--cache-dir); one that cannot be
        # used (an old format, say) is one line and exit 2, not a traceback.
        print(f"python -m repro {command}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
