"""Tests for the scenario fuzzer (repro.validate.fuzz)."""

import re

import pytest

from repro.validate.fuzz import (
    MUTATIONS,
    _parse_budget,
    check_seed,
    draw_spec,
    main,
    result_digest,
)


class TestDrawSpec:
    def test_deterministic(self):
        assert draw_spec(5) == draw_spec(5)

    def test_distinct_seeds_distinct_specs(self):
        specs = {draw_spec(s) for s in range(1, 30)}
        assert len(specs) > 20  # drawing actually varies

    def test_spec_seed_matches_fuzz_seed(self):
        assert draw_spec(9).seed == 9

    def test_specs_are_runnable_descriptions(self):
        spec = draw_spec(1)
        assert spec.protocol
        assert spec.n_flows >= 2
        # small round deadline: fault-heavy draws must not run 60 sim-sec
        assert dict(spec.incast_overrides)["round_deadline_ns"] <= 5_000_000_000

    def test_draws_cover_the_cc_dimension(self):
        from repro.validate.fuzz import FUZZ_PROTOCOLS

        assert "pulser" in FUZZ_PROTOCOLS and "tbtcp" in FUZZ_PROTOCOLS
        specs = [draw_spec(s) for s in range(1, 60)]
        routed = [s for s in specs if s.cc]
        # ~a fifth of draws set the explicit cc dimension
        assert 3 <= len(routed) <= 30
        assert all(s.cc_name == s.cc for s in routed)
        assert all(s.cc_name == s.protocol for s in specs if not s.cc)

    def test_draws_follow_registry_flags_not_name_patterns(self):
        from repro.tcp.cc import get_cc

        specs = [draw_spec(s) for s in range(1, 120)]
        srtt = {s.cc_name for s in specs if dict(s.plus_overrides).get("backoff_unit_mode") == "srtt"}
        deadlines = {s.cc_name for s in specs if "flow_deadline_ns" in dict(s.incast_overrides)}
        assert all(get_cc(name).slow_time for name in srtt)
        assert all(get_cc(name).deadline_aware for name in deadlines)
        # external: policies take the same branches as the builtins they mirror
        assert "external:dctcp-plus-scripted" in srtt
        assert "external:deadline-greedy" in deadlines

    def test_draws_cover_topologies_and_workloads(self):
        from repro.validate.fuzz import FUZZ_TOPOLOGIES, FUZZ_WORKLOADS

        assert set(FUZZ_TOPOLOGIES) == {"two-tier", "dumbbell", "fat-tree"}
        assert set(FUZZ_WORKLOADS) == {"incast", "http", "swarm"}
        specs = [draw_spec(s) for s in range(1, 60)]
        assert {s.topology for s in specs} == set(FUZZ_TOPOLOGIES)
        assert {s.workload for s in specs} == set(FUZZ_WORKLOADS)

    def test_fat_tree_draws_carry_topology_overrides(self):
        specs = [draw_spec(s) for s in range(1, 80)]
        fat_trees = [s for s in specs if s.topology == "fat-tree"]
        assert fat_trees, "no fat-tree drawn in 80 seeds"
        for spec in fat_trees:
            topo = dict(spec.topo_overrides)
            assert topo["fat_tree_k"] % 2 == 0
            assert topo["ecmp_mode"] in ("flow", "packet")
        dumbbells = [s for s in specs if s.topology == "dumbbell"]
        assert dumbbells, "no dumbbell drawn in 80 seeds"
        assert any(dict(s.topo_overrides).get("leg_delays_ns") for s in dumbbells)

    def test_workload_overrides_only_on_non_incast_draws(self):
        specs = [draw_spec(s) for s in range(1, 80)]
        for spec in specs:
            if spec.workload == "incast":
                assert spec.workload_overrides == ()
            else:
                # Closed-loop draws cap their give-up deadline so a
                # fault-heavy scenario cannot burn 60 sim-seconds.
                overrides = dict(spec.workload_overrides)
                deadline_key = (
                    "request_deadline_ns" if spec.workload == "http" else "fetch_deadline_ns"
                )
                assert overrides[deadline_key] <= 5_000_000_000


class TestBudgetParsing:
    @pytest.mark.parametrize(
        "text,expected",
        [("60s", 60.0), ("500ms", 0.5), ("2m", 120.0), ("45", 45.0)],
    )
    def test_parse(self, text, expected):
        assert _parse_budget(text) == expected


class TestCleanSeeds:
    def test_clean_seed_passes_all_differentials(self):
        spec, digest, events = check_seed(2)
        assert spec == draw_spec(2)
        assert len(digest) == 16
        assert events > 0

    def test_main_clean(self, capsys):
        assert main(["--seeds", "2", "--no-parallel"]) == 0
        out = capsys.readouterr().out
        assert "seed 1: ok" in out
        assert "seed 2: ok" in out
        assert "all checks passed" in out


class TestMutationDetection:
    """Acceptance: an injected accounting bug is found within 20 seeds and
    the printed repro command reproduces it deterministically."""

    @pytest.mark.parametrize("mutation", sorted(MUTATIONS))
    def test_mutation_found_within_20_seeds(self, mutation, capsys):
        assert main(["--seeds", "20", "--mutate", mutation]) == 1
        out = capsys.readouterr().out
        match = re.search(r"repro: PYTHONPATH=src python -m repro fuzz "
                          r"--seed (\d+) --mutate " + mutation, out)
        assert match, f"no repro command printed:\n{out}"
        first_failure = out.splitlines()[-2]

        # The repro command replays deterministically: same seed, same
        # mutation, same failure line.
        seed = match.group(1)
        assert main(["--seed", seed, "--mutate", mutation]) == 1
        replay = capsys.readouterr().out
        assert first_failure in replay

    def test_mutation_invisible_without_validation(self):
        """The injected bugs corrupt accounting, not behaviour — scenario
        results stay identical, which is exactly why only the invariant
        checker can catch them."""
        from repro.exec.scenario import run_scenario

        spec = draw_spec(1)
        clean = result_digest(run_scenario(spec, validate=False))
        with MUTATIONS["double-drop"]():
            mutated = result_digest(run_scenario(spec, validate=False))
        assert mutated == clean

    def test_miswired_fat_tree_caught_by_wiring_check(self):
        """A mis-wired fat-tree uplink is a *structural* defect: any
        validated run of any fat-tree scenario must refuse to start."""
        from repro.exec.scenario import ScenarioSpec, run_scenario
        from repro.net.topology import WiringError

        spec = ScenarioSpec.create(
            "dctcp", 2, rounds=1, seed=1, topology="fat-tree", workload="incast"
        )
        run_scenario(spec, validate=True)  # sanity: clean build passes
        with MUTATIONS["miswire-uplink"]():
            with pytest.raises(WiringError, match="wrong host"):
                run_scenario(spec, validate=True)
