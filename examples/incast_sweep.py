#!/usr/bin/env python3
"""Incast sweep: goodput vs concurrent-flow count for chosen protocols.

The programmable version of the paper's Fig. 1 / Fig. 7 axes — pick
protocols, flow counts and repetition counts from the command line.

Run:  python examples/incast_sweep.py --protocols dctcp dctcp+ --flows 20 60 120 --rounds 10
"""

import argparse

from repro import IncastConfig, IncastWorkload, Simulator, build_two_tier, spec_for
from repro.telemetry import format_table


def parse_args() -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--protocols",
        nargs="+",
        default=["tcp", "dctcp", "dctcp+"],
        choices=["tcp", "dctcp", "dctcp+", "dctcp+norand"],
    )
    parser.add_argument("--flows", nargs="+", type=int, default=[10, 40, 80, 160])
    parser.add_argument("--rounds", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    return parser.parse_args()


def main() -> None:
    args = parse_args()
    rows = []
    for n in args.flows:
        row: list = [n]
        for protocol in args.protocols:
            sim = Simulator(seed=args.seed)
            tree = build_two_tier(sim)
            workload = IncastWorkload(
                sim,
                tree,
                spec_for(protocol),
                IncastConfig(n_flows=n, n_rounds=args.rounds),
            )
            workload.run_to_completion()
            row.append(round(workload.mean_goodput_bps / 1e6, 1))
            row.append(workload.total_timeouts)
            workload.close()
        rows.append(row)
    headers = ["N"]
    for protocol in args.protocols:
        headers += [f"{protocol} Mbps", f"{protocol} TOs"]
    print(format_table(headers, rows, title="Incast goodput sweep"))


if __name__ == "__main__":
    main()
