"""Unit tests for RUPAM's ResourceMonitor and the Dispatcher's scheduling
rules (Algorithm 2)."""

from __future__ import annotations

import pytest

from repro.api import Session
from repro.core.config import RupamConfig
from repro.core.nodeinfo import ResourceKind
from repro.core.resource_monitor import ResourceMonitor
from repro.core.rupam import RupamScheduler
from repro.core.task_manager import TaskManager
from repro.simulate.engine import Simulator
from repro.spark.conf import SparkConf
from repro.spark.driver import Driver
from repro.spark.executor import Executor
from repro.spark.stage import Stage, StageKind
from repro.spark.task import TaskSpec
from repro.spark.taskset import TaskSetManager
from tests.conftest import drain_app, hetero_cluster, make_ctx, tiny_cluster


class TestResourceMonitor:
    def _setup(self):
        sim = Simulator()
        cluster = tiny_cluster(sim)
        ctx = make_ctx(cluster)
        executors = [
            Executor(ctx, n, heap_mb=4096, slots=4) for n in cluster
        ]
        rm = ResourceMonitor(ctx, executors=lambda: executors)
        return sim, ctx, executors, rm

    def test_collect_now_populates_metrics(self):
        sim, ctx, executors, rm = self._setup()
        rm.collect_now()
        assert set(rm.executor_data) == {"n1", "n2", "n3"}
        m = rm.metrics_for("n1")
        assert m is not None and m.cores == 4

    def test_dead_executor_skipped(self):
        sim, ctx, executors, rm = self._setup()
        executors[0].kill()
        rm.collect_now()
        assert rm.metrics_for("n1") is None

    def test_low_memory_requires_overcommit(self):
        sim, ctx, executors, rm = self._setup()
        ex = executors[0]
        # Nearly full but within capacity: not flagged.
        ex.memory.reserve_execution(0.95 * ex.memory.usable_mb)
        rm.collect_now()
        assert "n1" not in rm.low_memory_nodes
        # Overcommitted: flagged.
        ex.memory.reserve_execution(0.2 * ex.memory.usable_mb)
        rm.collect_now()
        assert "n1" in rm.low_memory_nodes

    def test_heartbeat_loop_stops(self):
        sim, ctx, executors, rm = self._setup()
        rm.start()
        sim.at(3.5, rm.stop)
        sim.run()
        assert rm.beats == 4  # t=0,1,2,3
        assert sim.peek_time() is None

    def test_forget(self):
        sim, ctx, executors, rm = self._setup()
        rm.collect_now()
        rm.forget("n1")
        assert rm.metrics_for("n1") is None

    def test_collect_now_matches_scalar_reference(self):
        """The heartbeat collection is bit-identical to the scalar reference
        collector."""
        s = Session(cluster="multirack", scheduler="rupam", seed=3)
        s.submit("lr", size_gb=2.0)
        s.sim.run(until=20.0)  # mid-flight: real utilization everywhere
        rm = s.scheduler.rm
        assert rm is not None
        rm.collect_now(force=True)
        live = [ex for ex in rm._executors() if ex.alive]
        assert live
        for ex in live:
            name = ex.node.name
            assert rm.executor_data[name] == rm._collect(ex), name


class TestDispatcherRules:
    """Drive the full RUPAM scheduler on crafted apps and verify Algorithm 2
    decisions through placement outcomes."""

    def _run(self, app, cfg=None, conf=None, seed=1):
        sim = Simulator()
        cluster = hetero_cluster(sim)
        ctx = make_ctx(cluster, conf=conf, seed=seed)
        sched = RupamScheduler(cfg=cfg)
        driver = Driver(ctx, sched)
        res = drain_app(driver, app)
        return res, sched

    def test_memory_check_skips_small_nodes(self):
        from tests.conftest import simple_app

        conf = SparkConf().with_overrides(jitter_sigma=0.0)
        # 3 jobs so the DB knows the peaks from job 1 onwards.
        app = simple_app(n_map=4, compute=4.0, peak_mb=4000.0, jobs=3)
        res, sched = self._run(app, conf=conf)
        rec = next(iter(sched.db.snapshot().values()))
        assert rec.peak_memory_mb > 3000.0
        late_maps = [
            m for m in res.successful_metrics()
            if m.task_key.startswith("t:map") and m.launch_time > res.runtime_s * 0.5
        ]
        # fast node usable heap ~3.6 GB < 4 GB: excluded once known.
        assert late_maps and all(m.node != "fast" for m in late_maps)

    def test_round_robin_no_starvation(self):
        """CPU-heavy and NET-heavy stages run concurrently; both classes
        must be served."""
        from repro.spark.application import Application, Job

        cpu_tasks = [
            TaskSpec(index=i, compute_gigacycles=8.0, peak_memory_mb=100)
            for i in range(6)
        ]
        net_tasks = [
            TaskSpec(index=i, shuffle_read_mb=100.0, peak_memory_mb=100, output_mb=1)
            for i in range(6)
        ]
        s1 = Stage("rr:cpu", StageKind.SHUFFLE_MAP, cpu_tasks)
        s2 = Stage("rr:net", StageKind.RESULT, net_tasks)
        # Independent stages in one job run concurrently.
        s3 = Stage(
            "rr:sink",
            StageKind.RESULT,
            [TaskSpec(index=0, shuffle_read_mb=1.0, peak_memory_mb=64)],
            parents=(s1,),
        )
        app = Application("rr", [Job([s1, s2, s3])])
        res, sched = self._run(app)
        assert len(res.successful_metrics()) == 13

    def test_locked_task_fast_path(self):
        from tests.conftest import simple_app

        cfg = RupamConfig().with_overrides(lock_after_runs=2)
        app = simple_app(n_map=2, compute=16.0, jobs=5)
        res, sched = self._run(app, cfg=cfg)
        recs = sched.db.snapshot()
        locked = [r for r in recs.values() if r.runs >= 3 and r.best_node]
        assert locked  # learning happened
        assert not res.aborted

    def test_unknown_map_tasks_enter_all_queues(self):
        sim = Simulator()
        cluster = hetero_cluster(sim)
        ctx = make_ctx(cluster)
        tm = TaskManager(ctx, RupamConfig())
        tasks = [TaskSpec(index=0, compute_gigacycles=1.0)]
        stage = Stage("uq:map", StageKind.SHUFFLE_MAP, tasks)
        ts = TaskSetManager(ctx, stage)
        assert tm.admit(ts, tasks[0]) is None  # all queues
        assert tm.queues.total_pending() == 1

    def test_unknown_reduce_tasks_enter_net_queue(self):
        sim = Simulator()
        cluster = hetero_cluster(sim)
        ctx = make_ctx(cluster)
        tm = TaskManager(ctx, RupamConfig())
        tasks = [TaskSpec(index=0, shuffle_read_mb=10.0)]
        map_stage = Stage("uq2:map", StageKind.SHUFFLE_MAP, [TaskSpec(index=0)])
        stage = Stage("uq2:red", StageKind.RESULT, tasks, parents=(map_stage,))
        ts = TaskSetManager(ctx, stage)
        assert tm.admit(ts, tasks[0]) is ResourceKind.NET

    def test_stage_majority_reclassification(self):
        sim = Simulator()
        cluster = hetero_cluster(sim)
        ctx = make_ctx(cluster)
        cfg = RupamConfig().with_overrides(stage_learn_threshold=2)
        tm = TaskManager(ctx, cfg)
        tasks = [TaskSpec(index=i, compute_gigacycles=1.0) for i in range(6)]
        stage = Stage("sm:map", StageKind.SHUFFLE_MAP, tasks)
        ts = TaskSetManager(ctx, stage)
        tm.admit_taskset(ts)
        assert tm.stage_majority("sm:map") is None
        # Simulate two CPU-bound completions.
        for i in range(2):
            tm._stage_vote("sm:map", ResourceKind.CPU)
        assert tm.stage_majority("sm:map") is ResourceKind.CPU
        # Pending siblings now live only in the CPU queue.
        cpu_entries = list(tm.queues.entries(ResourceKind.CPU))
        net_entries = list(tm.queues.entries(ResourceKind.NET))
        assert len(cpu_entries) == 6
        assert len(net_entries) == 0
