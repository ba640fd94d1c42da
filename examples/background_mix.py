#!/usr/bin/env python3
"""Short/long flow isolation: incast sharing a bottleneck with long flows.

Reproduces the paper's Fig. 10 scenario at example scale: two persistent
background flows stream through the aggregator's link while incast rounds
run.  Shows that DCTCP+ keeps its incast goodput near the no-background
level while the long flows still share the leftover bandwidth fairly.

Run:  python examples/background_mix.py [--flows 80] [--rounds 10]
"""

import argparse

from repro import (
    BackgroundTraffic,
    IncastConfig,
    IncastWorkload,
    Simulator,
    build_two_tier,
    spec_for,
)
from repro.telemetry import format_table


def parse_args() -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--flows", type=int, default=80)
    parser.add_argument("--rounds", type=int, default=10)
    parser.add_argument("--seed", type=int, default=3)
    return parser.parse_args()


def run_one(protocol: str, n_flows: int, rounds: int, seed: int, background: bool):
    sim = Simulator(seed=seed)
    tree = build_two_tier(sim)
    bg = None
    if background:
        bg = BackgroundTraffic(sim, tree, spec_for(protocol))
        bg.start()
    workload = IncastWorkload(
        sim, tree, spec_for(protocol), IncastConfig(n_flows=n_flows, n_rounds=rounds)
    )
    workload.run_to_completion()
    goodput = workload.mean_goodput_bps / 1e6
    fct = workload.mean_fct_ns / 1e6
    long_tput = bg.mean_throughput_bps() / 1e6 if bg else 0.0
    if bg:
        bg.stop()
    workload.close()
    return goodput, fct, long_tput


def main() -> None:
    args = parse_args()
    rows = []
    for protocol in ("dctcp+", "dctcp", "tcp"):
        g0, f0, _ = run_one(protocol, args.flows, args.rounds, args.seed, background=False)
        g1, f1, lt = run_one(protocol, args.flows, args.rounds, args.seed, background=True)
        rows.append(
            [
                protocol,
                round(g0, 1),
                round(g1, 1),
                round(f0, 2),
                round(f1, 2),
                round(lt, 1),
            ]
        )
    print(
        format_table(
            [
                "protocol",
                "incast Mbps (no bg)",
                "incast Mbps (with bg)",
                "FCT ms (no bg)",
                "FCT ms (with bg)",
                "long-flow Mbps",
            ],
            rows,
            title=f"Incast (N={args.flows}) with 2 persistent background flows",
        )
    )


if __name__ == "__main__":
    main()
