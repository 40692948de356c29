"""Unit tests for SparkConf validation and helpers."""

from __future__ import annotations

import pytest

from repro.spark.conf import SparkConf


class TestSparkConf:
    def test_defaults_mirror_spark(self):
        conf = SparkConf()
        assert conf.locality_wait_s == 3.0
        assert conf.speculation_quantile == 0.75
        assert conf.speculation_multiplier == 1.5
        assert conf.task_cpus == 1
        assert conf.executor_memory_mb == 14 * 1024.0  # the paper's setting

    def test_with_overrides_is_functional(self):
        base = SparkConf()
        derived = base.with_overrides(locality_wait_s=0.0)
        assert base.locality_wait_s == 3.0
        assert derived.locality_wait_s == 0.0

    def test_usable_heap(self):
        conf = SparkConf()
        assert conf.usable_heap_mb() == pytest.approx(14 * 1024.0 * 0.6)
        assert conf.usable_heap_mb(10_000.0) == pytest.approx(6000.0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"executor_memory_mb": 0.0},
            {"task_cpus": 0},
            {"memory_fraction": 0.0},
            {"memory_fraction": 1.5},
            {"storage_fraction": -0.1},
            {"speculation_quantile": 0.0},
            {"speculation_multiplier": 0.5},
            # Cluster-dynamics knobs are validated at construction too.
            {"preemption_warning_s": -1.0},
            {"decommission_drain_s": -0.5},
            {"provision_delay_s": -1.0},
            {"autoscale_interval_s": 0.0},
            {"autoscale_up_pending_per_slot": 0.0},
            {"autoscale_down_idle_s": -1.0},
            {"autoscale_min_nodes": -1},
            {"autoscale_min_nodes": 5, "autoscale_max_nodes": 2},
        ],
    )
    def test_invalid_values_rejected(self, kwargs):
        with pytest.raises(ValueError):
            SparkConf(**kwargs)

    @pytest.mark.parametrize(
        "field", ["sim_shards", "shard_window_s", "vec_min_flows", "batch_dispatch"]
    )
    def test_removed_fields_rejected(self, field):
        with pytest.raises(TypeError):
            SparkConf(**{field: 2})

    def test_dynamics_defaults(self):
        conf = SparkConf()
        assert conf.preemption_warning_s == 2.0
        assert conf.decommission_drain_s == 60.0
        assert conf.provision_delay_s == 10.0
        assert conf.autoscale_max_nodes >= conf.autoscale_min_nodes

    def test_dynamics_overrides_roundtrip(self):
        conf = SparkConf().with_overrides(
            preemption_warning_s=0.0, autoscale_max_nodes=8
        )
        assert conf.preemption_warning_s == 0.0
        assert conf.autoscale_max_nodes == 8


class TestMetricsHelpers:
    def test_breakdown_keys_stable(self):
        from repro.spark.locality import Locality
        from repro.spark.metrics import TaskMetrics

        m = TaskMetrics(task_key="k", stage_id=0, index=0, attempt=0)
        assert set(m.breakdown()) == {
            "compute", "gc", "shuffle_net", "shuffle_disk", "scheduler_delay",
        }
        assert set(m.breakdown_fig3()) == {
            "compute", "shuffle", "serialization", "scheduler_delay",
        }

    def test_run_time_excludes_dispatch(self):
        from repro.spark.metrics import TaskMetrics

        m = TaskMetrics(task_key="k", stage_id=0, index=0, attempt=0)
        m.launch_time, m.finish_time, m.scheduler_delay = 1.0, 11.0, 0.5
        assert m.duration == 10.0
        assert m.run_time == 9.5

    def test_compute_with_ser(self):
        from repro.spark.metrics import TaskMetrics

        m = TaskMetrics(task_key="k", stage_id=0, index=0, attempt=0)
        m.compute_time, m.ser_time = 3.0, 1.0
        assert m.compute_with_ser == 4.0
