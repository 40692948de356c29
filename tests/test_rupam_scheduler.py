"""Integration tests for the RUPAM scheduler."""

from __future__ import annotations

import pytest

from repro.core.config import RupamConfig
from repro.core.nodeinfo import ResourceKind
from repro.core.rupam import RupamScheduler
from repro.core.taskdb import TaskCharDB
from repro.simulate.engine import Simulator
from repro.spark.conf import SparkConf
from repro.spark.default_scheduler import DefaultScheduler
from repro.spark.driver import Driver
from tests.conftest import drain_app, hetero_cluster, make_ctx, simple_app


def run_rupam(app, cluster_fn=hetero_cluster, conf=None, cfg=None, db=None, seed=1):
    sim = Simulator()
    cluster = cluster_fn(sim)
    ctx = make_ctx(cluster, conf=conf, seed=seed)
    sched = RupamScheduler(cfg=cfg, db=db)
    driver = Driver(ctx, sched)
    res = drain_app(driver, app)
    return res, sched, ctx


class TestBasics:
    def test_completes_simple_app(self):
        res, sched, ctx = run_rupam(simple_app())
        assert not res.aborted
        assert len(res.successful_metrics()) == 8

    def test_dynamic_executor_sizing(self):
        res, sched, ctx = run_rupam(simple_app())
        heaps = {
            e["node"]: e["heap_mb"] for e in ctx.trace.of_kind("executor_up")
        }
        # bigmem node (64 GB) gets a much larger executor than fast (8 GB).
        assert heaps["bigmem"] > heaps["fast"]
        cfg = RupamConfig()
        assert heaps["bigmem"] == pytest.approx(
            64 * 1024 - cfg.executor_memory_headroom_mb
        )

    def test_overlap_slots_exceed_cores(self):
        res, sched, ctx = run_rupam(simple_app())
        slots = {e["node"]: e["slots"] for e in ctx.trace.of_kind("executor_up")}
        assert slots["fast"] == 4 + RupamConfig().overlap_extra_slots

    def test_db_learns_task_records(self):
        res, sched, ctx = run_rupam(simple_app(jobs=2))
        snap = sched.db.snapshot()
        assert len(snap) > 0
        rec = next(iter(snap.values()))
        assert rec.runs >= 1 and rec.best_node is not None

    def test_db_shared_across_runs(self):
        db = TaskCharDB()
        app1 = simple_app(template="shared")
        res1, _, _ = run_rupam(app1, db=db)
        first_size = len(db.snapshot())
        app2 = simple_app(template="shared")
        res2, _, _ = run_rupam(app2, db=db)
        # Same templates: no new keys, but more runs recorded.
        assert len(db.snapshot()) == first_size
        assert any(r.runs >= 2 for r in db.snapshot().values())

    def test_extra_dispatch_delay_applied(self):
        res, sched, ctx = run_rupam(simple_app())
        cfg = RupamConfig()
        conf = SparkConf()
        for m in res.successful_metrics():
            assert m.scheduler_delay == pytest.approx(
                conf.scheduler_delay_s + cfg.extra_dispatch_delay_s
            )

    def test_heartbeats_stop_at_app_end(self):
        res, sched, ctx = run_rupam(simple_app())
        # Simulation drained: no immortal heartbeat loop.
        assert ctx.sim.peek_time() is None


class TestHeterogeneityAwareness:
    def test_cpu_tasks_prefer_fast_node_after_learning(self):
        # 4 jobs of CPU-heavy maps; iterations 2+ should concentrate on
        # the fast node (4x core rate).
        app = simple_app(n_map=4, compute=16.0, jobs=4, cache=False)
        res, sched, ctx = run_rupam(app)
        late = [
            m
            for m in res.successful_metrics()
            if m.task_key.startswith("t:map") and m.launch_time > res.runtime_s * 0.4
        ]
        on_fast = sum(1 for m in late if m.node == "fast")
        assert on_fast >= len(late) * 0.6

    def test_gpu_stage_marking(self):
        app = simple_app(n_map=6, compute=12.0, jobs=3, gpu=True)
        res, sched, ctx = run_rupam(app)
        assert "t:map" in sched.tm.gpu_stages
        assert any(m.used_gpu for m in res.successful_metrics())

    def test_memory_fit_respected_for_known_tasks(self):
        # Tasks too big for the small node's executor must avoid it once
        # their peak memory is known.
        conf = SparkConf().with_overrides(jitter_sigma=0.0)
        app = simple_app(n_map=6, compute=8.0, peak_mb=4000.0, jobs=3)
        res, sched, ctx = run_rupam(app, conf=conf)
        late = [
            m
            for m in res.successful_metrics()
            if m.task_key.startswith("t:map") and m.launch_time > res.runtime_s * 0.5
        ]
        # fast node heap: 8 GB - headroom = ~6 GB, usable 3.6 GB < 4 GB peak
        assert all(m.node != "fast" for m in late)

    def test_beats_spark_on_iterative_heterogeneous_app(self):
        app_spark = simple_app(n_map=8, compute=24.0, jobs=4, template="cmp1")
        sim = Simulator()
        cluster = hetero_cluster(sim)
        ctx = make_ctx(cluster, seed=3)
        spark_res = drain_app(Driver(ctx, DefaultScheduler()), app_spark)

        app_rupam = simple_app(n_map=8, compute=24.0, jobs=4, template="cmp2")
        rupam_res, _, _ = run_rupam(app_rupam, seed=3)
        assert rupam_res.runtime_s < spark_res.runtime_s


class TestStragglerHandling:
    def test_memory_straggler_kill_requeues(self):
        cfg = RupamConfig().with_overrides(
            memory_straggler_cooldown_s=0.5, default_task_memory_mb=64.0
        )
        conf = SparkConf().with_overrides(jitter_sigma=0.0, oom_check=False)
        # Unknown first-run tasks with big footprints pile onto nodes.
        app = simple_app(n_map=10, compute=20.0, peak_mb=2500.0)
        res, sched, ctx = run_rupam(app, conf=conf, cfg=cfg)
        assert not res.aborted
        # Either the straggler handler fired or placement avoided the danger.
        assert sched.mem_straggler is not None

    def test_gpu_race_launches_cpu_copy(self):
        cfg = RupamConfig().with_overrides(gpu_wait_before_cpu_s=0.1)
        # 8 GPU tasks, one single-GPU node: most must run (or race) on CPUs.
        app = simple_app(n_map=8, compute=24.0, jobs=2, gpu=True)
        res, sched, ctx = run_rupam(app, cfg=cfg)
        assert not res.aborted
        nodes = {m.node for m in res.successful_metrics() if m.task_key.startswith("t:map")}
        assert nodes - {"gpu"}  # not everything waited for the GPU node


class TestAblationKnobs:
    def test_stage_learning_can_be_disabled(self):
        cfg = RupamConfig().with_overrides(stage_learning=False)
        res, sched, ctx = run_rupam(simple_app(jobs=2), cfg=cfg)
        assert not res.aborted
        assert sched.tm.stage_majority("t:map") is None

    def test_gpu_race_can_be_disabled(self):
        cfg = RupamConfig().with_overrides(gpu_race_enabled=False)
        res, sched, ctx = run_rupam(simple_app(gpu=True), cfg=cfg)
        assert not res.aborted
        assert sched.dispatcher is not None
        assert sched.dispatcher.gpu_cpu_races == 0

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            RupamConfig(res_factor=0.5)
        with pytest.raises(ValueError):
            RupamConfig(mem_bound_fraction=0.0)
        with pytest.raises(ValueError):
            RupamConfig(lock_after_runs=0)
