#!/usr/bin/env python3
"""Partition/aggregate service under realistic datacenter traffic.

Models a web-search-style tier: Poisson query arrivals fan out over 200
persistent worker connections (2 KB responses each) while heavy-tailed
background flows share the fabric — the paper's Section VI.D benchmark at
a laptop-friendly scale.  Prints the query and background FCT statistics
(mean / 95th / 99th percentile), the metric Fig. 13 reports.

Run:  python examples/partition_aggregate.py [--queries 200] [--fanout 200]
"""

import argparse

from repro import BenchmarkConfig, BenchmarkWorkload, Simulator, build_two_tier
from repro.experiments.common import make_spec
from repro.telemetry import format_table


def parse_args() -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--queries", type=int, default=200)
    parser.add_argument("--background", type=int, default=200)
    parser.add_argument("--fanout", type=int, default=200)
    parser.add_argument("--seed", type=int, default=1)
    return parser.parse_args()


def main() -> None:
    args = parse_args()
    rows = []
    for protocol in ("dctcp+", "dctcp"):
        sim = Simulator(seed=args.seed)
        tree = build_two_tier(sim)
        # Paper setup for this benchmark: RTO_min = 10 ms on both stacks.
        spec = make_spec(protocol, rto_min_ms=10.0, min_cwnd_mss=1.0)
        config = BenchmarkConfig(
            n_queries=args.queries,
            n_background=args.background,
            n_short_messages=args.background // 5,
            query_fanout=args.fanout,
            max_flow_bytes=4 * 1024 * 1024,
        )
        workload = BenchmarkWorkload(sim, tree, spec, config)
        workload.run_to_completion()
        for category in ("query", "background"):
            s = workload.fct_summary_ms(category)
            rows.append(
                [
                    protocol,
                    category,
                    s.count,
                    round(s.mean, 2),
                    round(s.p95, 2),
                    round(s.p99, 2),
                    workload.timeout_total(category),
                ]
            )
        workload.close()
    print(
        format_table(
            ["protocol", "category", "flows", "mean ms", "p95 ms", "p99 ms", "timeouts"],
            rows,
            title="Partition/aggregate benchmark (RTO_min = 10 ms)",
        )
    )
    print(
        "\nEach query is a micro-incast over the fan-out connections; DCTCP+\n"
        "pays hundreds of microseconds of pacing to avoid 10 ms timeouts —\n"
        "'slowing little quickens more'."
    )


if __name__ == "__main__":
    main()
