"""Shared command-line plumbing for the ``python -m repro`` subcommands.

Every subcommand used to declare its own ``--workers`` / ``--cache-dir`` /
``--validate`` / ``--quick`` / ``--seed`` flags, with the help strings and
environment-variable plumbing drifting apart.  This module is the single
definition: :func:`add_common_arguments` installs the requested subset
into an argparse parser (one "common options" group, identical wording
everywhere) and :func:`apply_common_arguments` performs the shared side
effects — exporting ``--validate`` / ``--workers`` / ``--cache-dir`` to
the environment variables worker processes inherit
(``REPRO_VALIDATE`` / ``REPRO_WORKERS`` / ``REPRO_CACHE_DIR``).

Flags stay ordinary attributes on the parsed namespace (``args.workers``,
``args.quick``, ...), so subcommands keep consuming them exactly as
before; only the declaration and the env export are centralized.
"""

from __future__ import annotations

import argparse
import os
from typing import Optional

from .exec.context import CACHE_DIR_ENV, WORKERS_ENV

VALIDATE_ENV = "REPRO_VALIDATE"


def add_common_arguments(
    parser: argparse.ArgumentParser,
    *,
    seed: bool = False,
    seed_default: Optional[int] = 1,
    seed_help: str = "scenario seed (default: %(default)s)",
    quick: bool = False,
    quick_help: str = "reduced smoke-scale configuration (what CI runs)",
    workers: bool = False,
    cache_dir: bool = False,
    validate: bool = True,
) -> argparse._ArgumentGroup:
    """Install the shared flags this subcommand supports; returns the group.

    The group is returned so a subcommand can append its own related flags
    (e.g. ``experiments`` adds ``--paper`` next to ``--quick``).
    """
    group = parser.add_argument_group("common options")
    if seed:
        group.add_argument("--seed", type=int, default=seed_default, help=seed_help)
    if quick:
        group.add_argument("--quick", action="store_true", help=quick_help)
    if workers:
        group.add_argument(
            "--workers",
            type=int,
            default=None,
            metavar="N",
            help=f"parallel scenario workers (default: ${WORKERS_ENV} or serial)",
        )
    if cache_dir:
        group.add_argument(
            "--cache-dir",
            default=None,
            metavar="DIR",
            help=f"cache finished points in DIR/results.sqlite (default: ${CACHE_DIR_ENV})",
        )
    if validate:
        group.add_argument(
            "--validate",
            action="store_true",
            help="attach the repro.validate invariant checker to every "
            f"simulation (slower; sets {VALIDATE_ENV}=1 so workers inherit it)",
        )
    return group


def apply_common_arguments(args: argparse.Namespace) -> None:
    """Export the parsed common flags to the worker-inherited environment.

    Safe on any namespace: flags the subcommand didn't request are simply
    absent and skipped.  ``--workers`` / ``--cache-dir`` are exported *and*
    left on the namespace — subcommands that build their own executor keep
    passing them explicitly; everything else (and worker processes) reads
    the environment.
    """
    if getattr(args, "validate", False):
        os.environ[VALIDATE_ENV] = "1"
    workers = getattr(args, "workers", None)
    if workers is not None:
        os.environ[WORKERS_ENV] = str(workers)
    cache_dir = getattr(args, "cache_dir", None)
    if cache_dir is not None:
        os.environ[CACHE_DIR_ENV] = str(cache_dir)
