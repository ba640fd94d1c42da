#!/usr/bin/env python3
"""Deadline-aware transport: D²TCP and D²TCP⁺ under incast (Section VII).

The paper proposes coalescing the slow_time enhancement with D²TCP.  This
example runs a deadline-bound incast (every response must arrive within a
budget) and reports the missed-deadline fraction for DCTCP, DCTCP⁺, D²TCP
and D²TCP⁺ — showing that the enhancement, not just deadline awareness,
is what rescues tight deadlines at high fan-in (a 200 ms timeout blows
any tens-of-ms budget).

Run:  python examples/deadline_flows.py [--flows 60] [--deadline-ms 40]
"""

import argparse

from repro import IncastConfig, IncastWorkload, Simulator, build_two_tier, spec_for
from repro.telemetry import format_table


def parse_args() -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--flows", type=int, default=60)
    parser.add_argument("--deadline-ms", type=float, default=40.0)
    parser.add_argument("--rounds", type=int, default=10)
    parser.add_argument("--seed", type=int, default=5)
    return parser.parse_args()


def main() -> None:
    args = parse_args()
    deadline_ns = int(args.deadline_ms * 1e6)
    rows = []
    for protocol in ("dctcp", "d2tcp", "dctcp+", "d2tcp+"):
        sim = Simulator(seed=args.seed)
        tree = build_two_tier(sim)
        config = IncastConfig(
            n_flows=args.flows,
            n_rounds=args.rounds,
            flow_deadline_ns=deadline_ns,
        )
        workload = IncastWorkload(sim, tree, spec_for(protocol), config)
        workload.run_to_completion()
        rows.append(
            [
                protocol,
                round(workload.mean_goodput_bps / 1e6, 1),
                round(workload.mean_fct_ns / 1e6, 2),
                workload.total_missed_deadlines,
                f"{workload.missed_deadline_fraction * 100:.1f}%",
            ]
        )
        workload.close()
    print(
        format_table(
            ["protocol", "goodput (Mbps)", "mean FCT (ms)", "missed", "miss rate"],
            rows,
            title=(
                f"Deadline incast: N={args.flows}, "
                f"deadline={args.deadline_ms:.0f} ms per round"
            ),
        )
    )


if __name__ == "__main__":
    main()
