"""Tests for the metrics primitives: histograms, series, registry."""

from __future__ import annotations

import numpy as np
import pytest

from repro.obs.decision import Observability
from repro.obs.metrics import Histogram, MetricsRegistry, TimeSeries


class TestHistogram:
    def test_quantiles_match_numpy_within_bucket_error(self):
        """Log buckets (10/decade) bound the quantile error at ~±13%."""
        rng = np.random.default_rng(42)
        samples = rng.lognormal(mean=0.0, sigma=1.5, size=5000)
        h = Histogram()
        for s in samples:
            h.observe(float(s))
        for q in (0.50, 0.90, 0.95, 0.99):
            exact = float(np.percentile(samples, q * 100))
            approx = h.quantile(q)
            assert approx == pytest.approx(exact, rel=0.13), f"q={q}"

    def test_quantiles_clamped_to_observed_range(self):
        h = Histogram()
        for v in (3.0, 4.0, 5.0):
            h.observe(v)
        assert 3.0 <= h.quantile(0.0) <= 5.0
        assert h.quantile(1.0) <= 5.0

    def test_zero_values_report_zero_not_bucket_floor(self):
        """Sub-resolution waits (0.0s) must not inflate to the 1e-6 clamp."""
        h = Histogram()
        for _ in range(10):
            h.observe(0.0)
        h.observe(2.0)
        assert h.quantile(0.50) == 0.0
        assert h.min == 0.0 and h.max == 2.0

    def test_summary_fields(self):
        h = Histogram()
        for v in (1.0, 2.0, 3.0, 4.0):
            h.observe(v)
        s = h.summary()
        assert s["count"] == 4
        assert s["mean"] == pytest.approx(2.5)
        assert s["min"] == 1.0 and s["max"] == 4.0
        assert s["p50"] <= s["p95"] <= s["p99"]

    def test_empty_summary_is_all_zero(self):
        s = Histogram().summary()
        assert s["count"] == 0 and s["p99"] == 0.0 and s["min"] == 0.0

    def test_empty_histogram_quantiles_are_zero(self):
        h = Histogram()
        for q in (0.0, 0.5, 0.99, 1.0):
            assert h.quantile(q) == 0.0

    def test_single_value_histogram_every_quantile_is_that_value(self):
        h = Histogram()
        h.observe(3.7)
        for q in (0.0, 0.5, 0.99, 1.0):
            assert h.quantile(q) == pytest.approx(3.7)

    def test_q0_and_q1_hit_observed_extremes(self):
        h = Histogram()
        for v in (0.2, 1.0, 7.0, 55.0):
            h.observe(v)
        # q=0 lands in the min's bucket (±13% resolution, never below min);
        # q=1 clamps exactly to the observed max.
        assert h.quantile(0.0) == pytest.approx(0.2, rel=0.13)
        assert h.quantile(0.0) >= 0.2
        assert h.quantile(1.0) == 55.0

    def test_extreme_values_land_in_clamp_buckets(self):
        h = Histogram()
        h.observe(1e-12)
        h.observe(1e12)
        assert h.count == 2
        assert h.quantile(0.99) <= 1e12


class TestTimeSeries:
    def test_unbounded_below_cap(self):
        s = TimeSeries(max_points=100)
        for i in range(50):
            s.append(float(i), float(i))
        assert len(s) == 50
        assert s.to_dict()["t"][-1] == 49.0

    def test_stride_doubling_keeps_full_time_coverage(self):
        s = TimeSeries(max_points=64)
        for i in range(10_000):
            s.append(float(i), float(i))
        assert len(s) < 64
        d = s.to_dict()
        assert d["t"][0] == 0.0
        # Coverage reaches near the end despite the cap (no tail truncation).
        assert d["t"][-1] > 9000.0
        assert d["t"] == sorted(d["t"])


class TestMetricsRegistry:
    def test_counters_gauges_histograms_series(self):
        reg = MetricsRegistry()
        reg.inc("a")
        reg.inc("a", 2.0)
        reg.set_gauge("g", 7.0)
        reg.observe("h", 1.0)
        reg.sample("s", 0.0, 1.0)
        assert reg.counter("a") == 3.0
        assert reg.gauges["g"] == 7.0
        assert reg.histogram("h") is not None
        assert reg.series("s") is not None
        snap = reg.snapshot()
        assert set(snap) == {"counters", "gauges", "histograms", "series"}
        assert snap["histograms"]["h"]["count"] == 1

    def test_disabled_registry_records_nothing(self):
        reg = MetricsRegistry(enabled=False)
        reg.inc("a")
        reg.set_gauge("g", 1.0)
        reg.observe("h", 1.0)
        reg.sample("s", 0.0, 1.0)
        assert not reg.counters and not reg.gauges
        assert not reg.histograms and not reg.series_names()

    def test_series_names_prefix_filter(self):
        reg = MetricsRegistry()
        reg.sample("queue.depth.cpu", 0.0, 1.0)
        reg.sample("queue.depth.gpu", 0.0, 1.0)
        reg.sample("util.cpu", 0.0, 1.0)
        assert reg.series_names("queue.depth.") == [
            "queue.depth.cpu",
            "queue.depth.gpu",
        ]


class TestMergeFrom:
    def test_histogram_merge_exact_for_moments(self):
        a, b, ref = Histogram(), Histogram(), Histogram()
        for v in (0.5, 1.0, 8.0):
            a.observe(v)
            ref.observe(v)
        for v in (0.1, 200.0):
            b.observe(v)
            ref.observe(v)
        a.merge_from(b)
        assert a.count == ref.count
        assert a.mean == ref.mean
        assert a.min == ref.min and a.max == ref.max
        assert a.counts == ref.counts  # so quantiles match too

    def test_registry_merge_semantics(self):
        parent, child = MetricsRegistry(), MetricsRegistry()
        parent.inc("shared", 2.0)
        parent.set_gauge("g", 1.0)
        parent.sample("parent.series", 0.0, 1.0)
        child.inc("shared", 3.0)
        child.inc("child.only", 1.0)
        child.set_gauge("g", 9.0)
        child.observe("lat", 4.0)
        child.sample("child.series", 0.0, 1.0)
        parent.merge_from(child)
        # Counters add; gauges last-write-wins; histograms fold in.
        assert parent.counter("shared") == 5.0
        assert parent.counter("child.only") == 1.0
        assert parent.gauges["g"] == 9.0
        assert parent.histogram("lat").count == 1
        # Time series merge time-ordered (every run's sim clock starts at 0).
        assert parent.series("child.series") is not None
        assert parent.series("parent.series") is not None

    def test_series_merge_is_time_ordered_and_capped(self):
        a, b = TimeSeries(max_points=100), TimeSeries(max_points=100)
        for i in range(0, 10, 2):
            a.append(float(i), 1.0)
        for i in range(1, 10, 2):
            b.append(float(i), 2.0)
        a.merge_from(b)
        d = a.to_dict()
        assert d["t"] == sorted(d["t"])
        assert d["t"] == [float(i) for i in range(10)]
        assert d["v"] == [1.0, 2.0] * 5

    def test_series_merge_respects_max_points(self):
        a, b = TimeSeries(max_points=32), TimeSeries(max_points=32)
        for i in range(500):
            a.append(float(i), float(i))
            b.append(float(i) + 0.5, float(i))
        a.merge_from(b)
        assert len(a) <= 32
        d = a.to_dict()
        assert d["t"] == sorted(d["t"])
        # Full time coverage survives the cap (no tail truncation).
        assert d["t"][0] <= 1.0 and d["t"][-1] > 450.0

    def test_registry_series_merge_folds_same_name(self):
        parent, child = MetricsRegistry(), MetricsRegistry()
        parent.sample("util.cpu", 0.0, 0.1)
        parent.sample("util.cpu", 2.0, 0.3)
        child.sample("util.cpu", 1.0, 0.2)
        parent.merge_from(child)
        assert parent.series("util.cpu").to_dict() == {
            "t": [0.0, 1.0, 2.0],
            "v": [0.1, 0.2, 0.3],
        }

    def test_disabled_parent_merge_is_noop(self):
        parent = MetricsRegistry(enabled=False)
        child = MetricsRegistry()
        child.inc("a")
        parent.merge_from(child)
        assert parent.counter("a") == 0.0


class TestObservabilitySampling:
    def test_queue_depth_sampling_is_rate_limited(self):
        ob = Observability(sample_interval_s=1.0)
        ob.sample_queue_depths(0.0, {"cpu": 3})
        ob.sample_queue_depths(0.5, {"cpu": 9})   # within the interval: dropped
        ob.sample_queue_depths(1.5, {"cpu": 5})
        s = ob.metrics.series("queue.depth.cpu")
        assert s is not None and s.to_dict() == {"t": [0.0, 1.5], "v": [3.0, 5.0]}

    def test_callable_depths_not_invoked_when_rate_limited(self):
        ob = Observability(sample_interval_s=1.0)
        calls = []

        def depths():
            calls.append(1)
            return {"cpu": 1}

        ob.sample_queue_depths(0.0, depths)
        ob.sample_queue_depths(0.1, depths)  # skipped: callable must not run
        assert len(calls) == 1

    def test_disabled_observability_samples_nothing(self):
        ob = Observability(enabled=False)
        ob.sample_queue_depths(0.0, {"cpu": 1})
        ob.sample_utilization(0.0, {"cpu": 0.5})
        assert not ob.metrics.series_names()


class TestDispatchEngineCounters:
    """The incremental dispatch engine reports its bookkeeping through the
    registry: re-key pushes, memo hits, and dirty-set sizes per dispatch."""

    def test_dispatch_counters_exposed(self):
        from repro.spark.driver import Driver
        from repro.core.rupam import RupamScheduler
        from repro.simulate.engine import Simulator
        from tests.conftest import drain_app, hetero_cluster, make_ctx, simple_app

        sim = Simulator()
        ctx = make_ctx(hetero_cluster(sim))
        sched = RupamScheduler()
        drain_app(Driver(ctx, sched), simple_app(n_map=8, jobs=2))
        c = ctx.obs.metrics.counters
        assert c.get("dispatch.calls", 0) > 0
        # Every dispatch re-keys at least the nodes it launched on, so both
        # the requeue and dirty counters must have moved.
        assert c.get("dispatch.requeue_ops", 0) > 0
        assert c.get("dispatch.dirty_nodes", 0) > 0
        # The memo counter must be registered even if a tiny app never
        # re-reads an estimate within one dispatch.
        assert "dispatch.memo_hits" in c

    def test_counters_silent_when_disabled(self):
        from repro.spark.driver import Driver
        from repro.core.rupam import RupamScheduler
        from repro.simulate.engine import Simulator
        from tests.conftest import drain_app, hetero_cluster, make_ctx, simple_app

        sim = Simulator()
        ctx = make_ctx(hetero_cluster(sim))
        ctx.obs.enabled = False
        ctx.obs.metrics.enabled = False
        sched = RupamScheduler()
        drain_app(Driver(ctx, sched), simple_app(n_map=4))
        assert not ctx.obs.metrics.counters


class TestSimCounterExport:
    def test_record_sim_counters_deltas(self):
        """Repeated flushes add only the change since the previous flush."""

        class FakeSim:
            events_scheduled = 100
            events_cancelled = 10
            events_processed = 80
            heap_compactions = 2

        class FakeRes:
            refits = 7
            refits_coalesced = 3

        obs = Observability()
        sim, res = FakeSim(), FakeRes()
        obs.record_sim_counters(sim, [res])
        c = obs.metrics.counters
        assert c["sim.events_scheduled"] == 100
        assert c["sim.events_cancelled"] == 10
        assert c["sim.events_fired"] == 80
        assert c["sim.heap_compactions"] == 2
        assert c["fluid.refits"] == 7
        assert c["fluid.refits_coalesced"] == 3
        # No movement -> no double counting.
        obs.record_sim_counters(sim, [res])
        assert c["sim.events_scheduled"] == 100
        # Movement -> only the delta lands.
        sim.events_scheduled = 130
        res.refits = 9
        obs.record_sim_counters(sim, [res])
        assert c["sim.events_scheduled"] == 130
        assert c["fluid.refits"] == 9

    def test_record_sim_counters_disabled_noop(self):
        obs = Observability(enabled=False)
        obs.metrics.enabled = False

        class FakeSim:
            events_scheduled = 5
            events_cancelled = 0
            events_processed = 5
            heap_compactions = 0

        obs.record_sim_counters(FakeSim(), [])
        assert not obs.metrics.counters

    def test_sim_counters_exposed_end_to_end(self):
        """A driver run surfaces the sim-core counters in its metrics (and
        therefore in `repro metrics` reports)."""
        from repro.spark.driver import Driver
        from repro.core.rupam import RupamScheduler
        from repro.simulate.engine import Simulator
        from tests.conftest import drain_app, hetero_cluster, make_ctx, simple_app

        sim = Simulator()
        ctx = make_ctx(hetero_cluster(sim))
        sched = RupamScheduler()
        drain_app(Driver(ctx, sched), simple_app(n_map=8, jobs=2))
        c = ctx.obs.metrics.counters
        assert c.get("sim.events_scheduled", 0) > 0
        assert c.get("sim.events_fired", 0) > 0
        assert c.get("fluid.refits", 0) > 0
        assert c.get("fluid.refits_coalesced", 0) > 0
        # Registered even when the run never tripped them.
        assert "sim.heap_compactions" in c
        assert "sim.events_cancelled" in c
        # Coalescing must actually be kicking in on a real run.
        assert c["fluid.refits_coalesced"] > 0
        # Flushed totals match the live objects exactly (delta protocol).
        assert c["sim.events_scheduled"] == sim.events_scheduled
