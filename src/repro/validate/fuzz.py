"""Seeded scenario fuzzer: random experiments under full invariant checking.

Each fuzz seed deterministically draws one :class:`ScenarioSpec` — random
topology (dumbbell size, link rate/delay, static vs shared buffers),
protocol (DCTCP, DCTCP+, TCP+, D2TCP), workload (incast fan-in, background
mix) and optional fault injection — and subjects it to:

1. a full run with the :class:`~repro.validate.checker.InvariantChecker`
   attached (every conservation law swept continuously);
2. differential checks: the validated run, an unvalidated run, and a
   rerun of the same seed must produce byte-identical results;
3. after all seeds pass, a serial-vs-:class:`ParallelExecutor` batch
   comparison (the exec layer must not perturb results).

On any failure the fuzzer prints a one-line repro command that replays
exactly the failing seed.  All randomness is drawn from ``random.Random``
instances seeded by the fuzz seed — never wall-clock, never process
state — so the repro is deterministic.

Mutation testing (``--mutate NAME``) deliberately breaks an accounting
law (e.g. counting a drop twice) to prove the checker catches real bugs;
the CI smoke job runs one such mutation alongside the clean sweep.

Usage::

    PYTHONPATH=src python -m repro fuzz --seeds 20 --budget 60s
    PYTHONPATH=src python -m repro fuzz --seed 7          # replay
    PYTHONPATH=src python -m repro fuzz --seeds 20 --mutate double-drop
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import time
from contextlib import contextmanager, nullcontext
from typing import Dict, Iterator, List, Optional, Tuple

from ..exec.executors import ParallelExecutor
from ..exec.scenario import PointResult, ScenarioSpec, run_scenario
from ..net.topology import WiringError
from ..sim.units import KB, MB, SEC
from ..tcp.cc import get_cc
from .checker import InvariantViolation

#: Protocols the fuzzer samples (the full implemented matrix minus the
#: plain-TCP baseline, which exercises no code the others miss; the
#: ``external:`` names route through the repro.control policy adapter).
FUZZ_PROTOCOLS = (
    "dctcp", "dctcp+", "dctcp+norand", "tcp+", "d2tcp", "d2tcp+", "pulser", "tbtcp",
    "external:dctcp-plus-scripted", "external:deadline-greedy",
)


class FuzzFailure(AssertionError):
    """A differential check failed (results not deterministic/equal)."""


#: Topology kinds the fuzzer samples (two-tier twice: it remains the
#: paper's shape and carries the most protocol surface).
FUZZ_TOPOLOGIES = ("two-tier", "two-tier", "dumbbell", "fat-tree")

#: Workload kinds the fuzzer samples (incast twice, same reasoning).
FUZZ_WORKLOADS = ("incast", "incast", "http", "swarm")


# -- spec drawing ---------------------------------------------------------------
def draw_spec(seed: int) -> ScenarioSpec:
    """Deterministically draw one random scenario for a fuzz seed."""
    rng = random.Random(0x5EED ^ (seed * 0x9E3779B1))
    protocol = rng.choice(FUZZ_PROTOCOLS)
    # A fifth of draws route the strategy through the spec's explicit ``cc``
    # dimension instead of the protocol label, so the differentials cover
    # the cc-resolution path (and its cache-key contribution) too.
    cc = rng.choice(FUZZ_PROTOCOLS) if rng.random() < 0.2 else ""
    # Registry flags, not name patterns, decide what a draw may vary, so
    # ``external:`` policies take the same branches as the builtins.
    strategy = get_cc(cc or protocol)
    topology = rng.choice(FUZZ_TOPOLOGIES)
    workload = rng.choice(FUZZ_WORKLOADS)

    topo: Dict[str, object] = {
        "link_rate_bps": rng.choice([10 ** 9, 10 ** 10]),
        "prop_delay_ns": rng.choice([5_000, 12_000, 25_000]),
        "buffer_bytes": rng.choice([64 * KB, 128 * KB]),
        "ecn_threshold_bytes": rng.choice([16 * KB, 32 * KB]),
        "n_servers": rng.randint(3, 9),
        "n_leaf_switches": rng.randint(1, 3),
    }
    if topology == "dumbbell":
        topo["n_pairs"] = rng.randint(2, 6)
        if rng.random() < 0.5:
            topo["leg_delays_ns"] = tuple(
                rng.choice([5_000, 12_000, 25_000, 50_000])
                for _ in range(topo["n_pairs"])
            )
    elif topology == "fat-tree":
        topo["fat_tree_k"] = 4
        topo["hosts_per_edge"] = rng.randint(1, 2)
        # Packet spray feeds the receiver's reorder buffer + reordering
        # counter into the differentials; flow mode keeps paths pinned.
        topo["ecmp_mode"] = rng.choice(["flow", "flow", "packet"])
    if rng.random() < 0.3:
        topo["shared_pool_bytes"] = rng.choice([256 * KB, 512 * KB])

    incast: Dict[str, object] = {
        "total_bytes": rng.choice([64 * KB, 128 * KB, 256 * KB, 1 * MB]),
        "request_spacing_ns": rng.choice([0, 30_000]),
        "start_jitter_ns": rng.choice([0, 20_000]),
        # Small deadline so fault-heavy draws cannot stall a round for the
        # default 60 simulated seconds.
        "round_deadline_ns": 2 * SEC,
    }
    if strategy.deadline_aware and rng.random() < 0.5:
        incast["flow_deadline_ns"] = rng.choice([5_000_000, 20_000_000])

    workload_overrides: Optional[Dict[str, object]] = None
    if workload == "http":
        workload_overrides = {
            "response_size": rng.choice([16 * KB, 64 * KB, "short-message"]),
            "think_mode": rng.choice(["none", "fixed", "cdf"]),
            "think_scale": 0.01,
            "think_ns": 200_000,
            "request_deadline_ns": 2 * SEC,
        }
    elif workload == "swarm":
        workload_overrides = {
            "piece_bytes": rng.choice([32 * KB, 128 * KB]),
            "fetch_deadline_ns": 2 * SEC,
        }

    plus: Dict[str, object] = {}
    if strategy.slow_time:
        plus["backoff_unit_mode"] = rng.choice(["fixed", "srtt"])

    fault: Optional[Dict[str, object]] = None
    roll = rng.random()
    if roll < 0.2:
        fault = {"kind": "random_loss", "rate": rng.choice([0.005, 0.02])}
    elif roll < 0.3:
        fault = {"kind": "drop_nth", "indices": tuple(sorted(rng.sample(range(400), 3)))}

    return ScenarioSpec.create(
        protocol=protocol,
        n_flows=rng.randint(2, 16),
        rounds=rng.randint(1, 3),
        seed=seed,
        rto_min_ms=rng.choice([1.0, 10.0]),
        plus_overrides=plus or None,
        incast_overrides=incast,
        topo=topo,
        fault_overrides=fault,
        with_background=rng.random() < 0.25,
        # A quarter of draws run with the telemetry tracer attached; the
        # differential checks then prove tracing never perturbs results
        # (the tracer schedules no events and draws no randomness).
        trace=rng.random() < 0.25,
        cc=cc,
        topology=topology,
        workload=workload,
        workload_overrides=workload_overrides,
    )


# -- result digests -------------------------------------------------------------
def result_digest(result: PointResult) -> str:
    """Content hash of a result, excluding host wall-clock telemetry."""
    payload = result.to_dict()
    payload.pop("wall_time_s", None)
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


# -- mutation testing -----------------------------------------------------------
@contextmanager
def _mutate_double_drop() -> Iterator[None]:
    """Bug: a rejected packet bumps the drop counter twice."""
    from ..net.queues import DropTailQueue

    orig = DropTailQueue.enqueue

    def enqueue(self, packet):
        admitted = orig(self, packet)
        if not admitted:
            self.dropped_packets += 1
        return admitted

    DropTailQueue.enqueue = enqueue
    try:
        yield
    finally:
        DropTailQueue.enqueue = orig


@contextmanager
def _mutate_leak_dequeue() -> Iterator[None]:
    """Bug: each departure leaks a byte of occupancy accounting."""
    from ..net.queues import DropTailQueue

    orig = DropTailQueue.dequeue

    def dequeue(self):
        packet = orig(self)
        if packet is not None:
            self.occupancy_bytes -= 1
        return packet

    DropTailQueue.dequeue = dequeue
    try:
        yield
    finally:
        DropTailQueue.dequeue = orig


@contextmanager
def _mutate_phantom_mark() -> Iterator[None]:
    """Bug: the mark counter advances on unmarked enqueues."""
    from ..net.queues import DropTailQueue

    orig = DropTailQueue.enqueue

    def enqueue(self, packet):
        admitted = orig(self, packet)
        if admitted and self.enqueued_packets % 97 == 0:
            self.marked_packets += 1
        return admitted

    DropTailQueue.enqueue = enqueue
    try:
        yield
    finally:
        DropTailQueue.enqueue = orig


@contextmanager
def _mutate_miswire_uplink() -> Iterator[None]:
    """Bug: one fat-tree edge switch fans an ECMP group over a host port.

    Every fat-tree the fuzzer builds while this is active has one edge
    switch whose uplink candidate set includes a host-facing port, so one
    "equal-cost" alternative delivers to the wrong host / has a different
    hop count — exactly what :func:`repro.net.topology.check_wiring`
    (attached to every validated run) must flag as a
    :class:`~repro.net.topology.WiringError`.
    """
    from ..net import topology as topo_mod

    orig = topo_mod.build_fat_tree

    def build_miswired(sim, params=None):
        net = orig(sim, params)
        edge = net.edges[0][0]
        # Rewire the first remote-host ECMP entry: swap one true uplink for
        # the switch's host-facing port 0 (ports beyond the uplinks).
        half = net.k // 2
        uplinks = edge.ports[-half:]
        host_port = edge.ports[0]
        for host in net.hosts:
            if edge.ecmp_candidates(host.node_id) is not None:
                edge.add_ecmp_group(host.node_id, (uplinks[0], host_port), salt=0)
                break
        return net

    topo_mod.build_fat_tree = build_miswired
    topo_mod.TOPOLOGIES["fat-tree"] = build_miswired
    try:
        yield
    finally:
        topo_mod.build_fat_tree = orig
        topo_mod.TOPOLOGIES["fat-tree"] = orig


MUTATIONS = {
    "double-drop": _mutate_double_drop,
    "leak-dequeue": _mutate_leak_dequeue,
    "phantom-mark": _mutate_phantom_mark,
    "miswire-uplink": _mutate_miswire_uplink,
}


# -- per-seed checks -------------------------------------------------------------
def check_seed(seed: int) -> Tuple[ScenarioSpec, str, int]:
    """Run one fuzz seed under validation + differential checks.

    Returns ``(spec, unvalidated_digest, events)``; raises
    :class:`InvariantViolation` or :class:`FuzzFailure` on any defect.
    """
    spec = draw_spec(seed)
    validated = run_scenario(spec, validate=True)
    d_validated = result_digest(validated)
    plain = run_scenario(spec, validate=False)
    d_plain = result_digest(plain)
    if d_validated != d_plain:
        raise FuzzFailure(
            f"validation perturbed the result: validated={d_validated} "
            f"unvalidated={d_plain}"
        )
    rerun = run_scenario(spec, validate=True)
    if result_digest(rerun) != d_validated:
        raise FuzzFailure(
            f"rerun of the same seed diverged: {result_digest(rerun)} != {d_validated}"
        )
    return spec, d_plain, validated.events_processed


def check_parallel_batch(specs: List[ScenarioSpec], serial_digests: List[str]) -> None:
    """Serial-vs-ParallelExecutor differential over all passing specs."""
    results = ParallelExecutor(workers=2).map(specs)
    for spec, serial_digest, result in zip(specs, serial_digests, results):
        parallel_digest = result_digest(result)
        if parallel_digest != serial_digest:
            raise FuzzFailure(
                f"seed {spec.seed}: parallel executor diverged from serial "
                f"({parallel_digest} != {serial_digest})"
            )


# -- CLI --------------------------------------------------------------------------
def _parse_budget(text: str) -> float:
    text = text.strip().lower()
    if text.endswith("ms"):
        return float(text[:-2]) / 1e3
    if text.endswith("s"):
        return float(text[:-1])
    if text.endswith("m"):
        return float(text[:-1]) * 60.0
    return float(text)


def _repro_command(seed: int, mutate: Optional[str]) -> str:
    cmd = f"PYTHONPATH=src python -m repro fuzz --seed {seed}"
    if mutate:
        cmd += f" --mutate {mutate}"
    return cmd


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro fuzz",
        description="Fuzz random scenarios under full invariant checking.",
    )
    parser.add_argument("--seeds", type=int, default=20, help="number of fuzz seeds to run")
    parser.add_argument("--start-seed", type=int, default=1, help="first fuzz seed")
    parser.add_argument("--seed", type=int, default=None, help="replay exactly one fuzz seed")
    parser.add_argument(
        "--budget",
        type=str,
        default=None,
        help="wall-clock budget (e.g. 60s, 2m); stops drawing new seeds when exhausted",
    )
    parser.add_argument(
        "--mutate",
        choices=sorted(MUTATIONS),
        default=None,
        help="inject a known accounting bug (the fuzzer is expected to catch it)",
    )
    parser.add_argument(
        "--no-parallel",
        action="store_true",
        help="skip the serial-vs-parallel executor differential",
    )
    args = parser.parse_args(argv)

    if args.seed is not None:
        seeds = [args.seed]
    else:
        seeds = list(range(args.start_seed, args.start_seed + args.seeds))
    budget_s = _parse_budget(args.budget) if args.budget else None
    started = time.monotonic()

    mutation = MUTATIONS[args.mutate]() if args.mutate else nullcontext()
    passed_specs: List[ScenarioSpec] = []
    serial_digests: List[str] = []
    with mutation:
        for seed in seeds:
            if budget_s is not None and time.monotonic() - started > budget_s:
                print(f"budget exhausted after {len(passed_specs)}/{len(seeds)} seeds")
                break
            try:
                spec, digest, events = check_seed(seed)
            except (InvariantViolation, FuzzFailure, WiringError) as exc:
                print(f"seed {seed}: FAIL — {exc}")
                print(f"repro: {_repro_command(seed, args.mutate)}")
                return 1
            passed_specs.append(spec)
            serial_digests.append(digest)
            print(
                f"seed {seed}: ok  {spec.label()} rounds={spec.rounds} "
                f"digest={digest} events={events}"
            )

    if (
        not args.no_parallel
        and args.mutate is None  # worker processes would run unmutated code
        and len(passed_specs) >= 2
    ):
        try:
            check_parallel_batch(passed_specs, serial_digests)
        except FuzzFailure as exc:
            print(f"parallel differential: FAIL — {exc}")
            print(f"repro: PYTHONPATH=src python -m repro fuzz --seeds {len(seeds)}")
            return 1
        print(f"parallel differential: ok ({len(passed_specs)} specs)")

    elapsed = time.monotonic() - started
    print(f"all checks passed: {len(passed_specs)} seeds in {elapsed:.1f}s")
    return 0
