"""Tests for seeded RNG streams."""

import random

import pytest
from hypothesis import given, strategies as st

from repro.sim.rng import RngRegistry, uniform_time


class TestRegistry:
    def test_same_name_same_stream(self):
        reg = RngRegistry(42)
        assert reg.stream("a").random() == reg.stream("a").random()

    def test_different_names_differ(self):
        reg = RngRegistry(42)
        assert reg.stream("a").random() != reg.stream("b").random()

    def test_different_seeds_differ(self):
        assert RngRegistry(1).stream("a").random() != RngRegistry(2).stream("a").random()

    def test_stable_across_instances(self):
        # The mapping must not depend on interpreter hash salting.
        assert RngRegistry(7).stream("flow/1").random() == RngRegistry(7).stream("flow/1").random()

    def test_adding_consumer_does_not_perturb_existing(self):
        reg1 = RngRegistry(9)
        seq_before = [reg1.stream("flow/1").random() for _ in range(3)]
        reg2 = RngRegistry(9)
        reg2.stream("flow/0")  # a new consumer
        seq_after = [reg2.stream("flow/1").random() for _ in range(3)]
        assert seq_before == seq_after


class TestUniformTime:
    def test_rejects_nonpositive_bound(self):
        with pytest.raises(ValueError):
            uniform_time(random.Random(1), 0)
        with pytest.raises(ValueError):
            uniform_time(random.Random(1), -10)

    @given(st.integers(min_value=1, max_value=10**9), st.integers(min_value=0, max_value=2**31))
    def test_in_half_open_interval(self, upper, seed):
        value = uniform_time(random.Random(seed), upper)
        assert 0 < value <= upper

    def test_uses_full_range(self):
        rng = random.Random(0)
        draws = {uniform_time(rng, 4) for _ in range(200)}
        assert draws == {1, 2, 3, 4}
