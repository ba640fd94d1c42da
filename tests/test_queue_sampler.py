"""Tests for the 100 us queue sampler."""

import pytest

from repro.net.topology import build_star
from repro.sim.engine import Simulator
from repro.sim.units import US
from repro.telemetry.collector import QueueSampler
from repro.telemetry.taxonomy import Summary, cdf_at

from .helpers import data


def setup():
    sim = Simulator()
    tree = build_star(sim, n_senders=1)
    return sim, tree, tree.bottleneck_port


class TestSampling:
    def test_cadence(self):
        sim, tree, port = setup()
        sampler = QueueSampler(sim, port, interval_ns=100 * US)
        sampler.start()
        sim.run(until=1_000 * US)
        sampler.stop()
        # t = 0, 100us, ..., 1000us inclusive
        assert len(sampler.times_ns) == 11
        assert sampler.times_ns[1] - sampler.times_ns[0] == 100 * US

    def test_records_occupancy(self):
        sim, tree, port = setup()
        sampler = QueueSampler(sim, port)
        # park packets in the queue (one serializes, the rest wait)
        for i in range(5):
            port.send(data(sim, 1, 0, tree.aggregator.node_id, i, 1460))
        sampler.start()
        sim.run(max_events=1)  # take the t=0 sample only
        assert sampler.occupancy_bytes[0] == 4 * 1500

    def test_stop_halts_sampling(self):
        sim, tree, port = setup()
        sampler = QueueSampler(sim, port)
        sampler.start()
        sim.run(until=300 * US)
        sampler.stop()
        count = len(sampler.times_ns)
        sim.run(until=600 * US)
        assert len(sampler.times_ns) == count

    def test_start_idempotent(self):
        sim, tree, port = setup()
        sampler = QueueSampler(sim, port)
        sampler.start()
        sampler.start()
        sim.run(until=200 * US)
        # one sampling chain, not two
        assert len(sampler.times_ns) == 3

    def test_stop_after_a_stopped_tick_cannot_cancel_recycled_event(self):
        # Regression: a tick that finds the sampler stopped returns early.
        # Its event has fired and goes to the engine freelist, so a stale
        # handle to it must not let a later stop() cancel whatever
        # unrelated event reuses the carcass.
        sim, tree, port = setup()
        sampler = QueueSampler(sim, port, interval_ns=100 * US)
        sampler.start()
        sim.run(until=200 * US)
        sampler.running = False  # the next tick finds the sampler stopped
        sim.run_until_idle()
        assert len(sampler.times_ns) == 3
        seen = []
        sim.schedule(1_000, seen.append, "alive")  # reuses the tick carcass
        sampler.stop()
        sim.run_until_idle()
        assert seen == ["alive"]

    def test_rejects_bad_interval(self):
        sim, tree, port = setup()
        with pytest.raises(ValueError):
            QueueSampler(sim, port, interval_ns=0)


class TestPostProcessing:
    def _sampled(self):
        sim, tree, port = setup()
        sampler = QueueSampler(sim, port)
        sampler.occupancy_bytes = [0, 1024, 2048, 4096]
        sampler.times_ns = [0, 100_000, 200_000, 300_000]
        return sampler

    def test_cdf(self):
        samples = self._sampled().samples
        probs = cdf_at(samples, sorted(samples))
        assert probs == [0.25, 0.5, 0.75, 1.0]
        assert cdf_at(samples, [-1])[0] == 0.0

    def test_time_series_kb(self):
        t, q = self._sampled().time_series_kb()
        assert q[1] == pytest.approx(1.0)
        assert t[1] == pytest.approx(0.1)

    def test_mean_and_percentile(self):
        s = Summary.of(self._sampled().samples)
        assert s.mean == pytest.approx(1792.0)
        assert s.maximum == 4096

    def test_empty(self):
        sim, tree, port = setup()
        sampler = QueueSampler(sim, port)
        assert sampler.samples.size == 0
        assert sampler.rows() == []
        t, q = sampler.time_series_kb()
        assert t.size == 0 and q.size == 0
