#!/usr/bin/env python3
"""Quickstart: run one incast experiment and compare DCTCP vs DCTCP+.

Builds the paper's two-tier testbed, points 80 concurrent response flows
at one aggregator (the regime where DCTCP collapses), and prints goodput,
flow-completion time and timeout counts for both protocols.

Run:  python examples/quickstart.py
"""

from repro import IncastConfig, IncastWorkload, Simulator, build_two_tier, spec_for
from repro.telemetry import format_table

N_FLOWS = 80
ROUNDS = 15


def run_protocol(protocol: str) -> list:
    sim = Simulator(seed=7)
    tree = build_two_tier(sim)
    spec = spec_for(protocol)
    workload = IncastWorkload(
        sim, tree, spec, IncastConfig(n_flows=N_FLOWS, n_rounds=ROUNDS)
    )
    workload.run_to_completion()
    row = [
        spec.label,
        round(workload.mean_goodput_bps / 1e6, 1),
        round(workload.mean_fct_ns / 1e6, 2),
        workload.total_timeouts,
        sum(1 for r in workload.rounds if r.timeouts > 0),
    ]
    workload.close()
    return row


def main() -> None:
    print(f"Basic incast: {N_FLOWS} concurrent flows, 1 MB per round, {ROUNDS} rounds\n")
    rows = [run_protocol(p) for p in ("tcp", "dctcp", "dctcp+")]
    print(
        format_table(
            ["protocol", "goodput (Mbps)", "mean FCT (ms)", "timeouts", "bad rounds"],
            rows,
        )
    )
    print(
        "\nDCTCP+ regulates the sending interval once cwnd pins at its floor,\n"
        "so the fan-in burst no longer overflows the 128 KB switch buffer."
    )


if __name__ == "__main__":
    main()
