#!/usr/bin/env python3
"""Anatomy of the DCTCP+ state machine (Fig. 4 / Algorithm 1).

Drives a :class:`SlowTimeStateMachine` directly with a scripted sequence
of congestion signals and prints every transition, so you can see the
AIMD law without running a network: additive, randomized growth per
ECE/retrans event; multiplicative decay per clean period; return to
DCTCP_NORMAL once slow_time falls below threshold_T.

Run:  python examples/state_machine_demo.py
"""

import random

from repro import DctcpPlusConfig, SlowTimeStateMachine
from repro.sim.units import US


def main() -> None:
    config = DctcpPlusConfig(
        backoff_time_unit_ns=100 * US,
        divisor_factor=2.0,
        threshold_t_ns=25 * US,
        decay_interval_ns=0,  # decay on every clean ACK, for readability
    )
    machine = SlowTimeStateMachine(config, random.Random(2015))

    script = (
        [("ECE", True)] * 6  # sustained congestion at the cwnd floor
        + [("clean", False)] * 2  # queue dips below K
        + [("ECE", True)] * 3  # congestion returns
        + [("clean", False)] * 8  # flow drains, recovery to NORMAL
    )

    print(f"{'event':>7} | {'state':<16} | slow_time (us)")
    print("-" * 45)
    now = 0
    for label, congested in script:
        if congested:
            machine.on_congestion_event()
        else:
            machine.on_clean_ack(now)
        now += 100_000  # one ACK per ~100 us
        print(f"{label:>7} | {machine.state.value:<16} | {machine.slow_time_ns / 1000:.1f}")

    print(
        f"\npeak slow_time: {machine.peak_slow_time_ns / 1000:.1f} us; "
        f"transitions to Inc/Des/Normal: "
        f"{machine.transitions_to_inc}/{machine.transitions_to_des}/{machine.transitions_to_normal}"
    )
    print(
        "\nEach ECE event adds random(backoff_time_unit) — different flows draw\n"
        "different increments, which is what desynchronizes the fan-in burst."
    )


if __name__ == "__main__":
    main()
