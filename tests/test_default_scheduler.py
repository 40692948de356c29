"""Unit tests for the stock scheduler's offer loop and revive logic."""

from __future__ import annotations

import pytest

from repro.simulate.engine import Simulator
from repro.spark.application import Application, Job
from repro.spark.conf import SparkConf
from repro.spark.default_scheduler import DefaultScheduler
from repro.spark.driver import Driver
from repro.spark.locality import Locality
from repro.spark.stage import Stage, StageKind
from repro.spark.task import TaskSpec
from tests.conftest import drain_app, make_ctx, simple_app, tiny_cluster


def build_driver(conf=None, seed=1, n_nodes=3):
    sim = Simulator()
    cluster = tiny_cluster(sim, n=n_nodes)
    ctx = make_ctx(cluster, conf=conf, seed=seed)
    sched = DefaultScheduler()
    driver = Driver(ctx, sched)
    return sim, ctx, sched, driver


class TestOfferLoop:
    def test_fills_all_slots_when_tasks_abound(self):
        sim, ctx, sched, driver = build_driver(
            conf=SparkConf().with_overrides(speculation=False)
        )
        app = simple_app(n_map=30, compute=50.0, n_reduce=1)
        driver.submit(app)
        # 3 nodes x 4 cores = 12 slots, all filled immediately.
        running = sum(len(ex.running) for ex in driver.executors.values())
        assert running == 12

    def test_one_task_per_slot(self):
        sim, ctx, sched, driver = build_driver()
        app = simple_app(n_map=30, compute=50.0)
        driver.submit(app)
        for ex in driver.executors.values():
            assert len(ex.running) <= ex.slots

    def test_fifo_between_tasksets(self):
        """Tasks of the first-submitted stage launch before a later stage's
        when both are pending (independent stages in one job)."""
        sim, ctx, sched, driver = build_driver(
            conf=SparkConf().with_overrides(speculation=False)
        )
        s1 = Stage("f:one", StageKind.SHUFFLE_MAP,
                   [TaskSpec(index=i, compute_gigacycles=30.0) for i in range(12)])
        s2 = Stage("f:two", StageKind.SHUFFLE_MAP,
                   [TaskSpec(index=i, compute_gigacycles=30.0) for i in range(12)])
        sink = Stage("f:sink", StageKind.RESULT,
                     [TaskSpec(index=0, compute_gigacycles=0.1)], parents=(s1, s2))
        app = Application("f", [Job([s1, s2, sink])])
        driver.submit(app)
        launched = [r.task.stage.template_id for r in driver.all_runs]
        # All 12 slots go to the first stage.
        assert launched.count("f:one") == 12
        assert launched.count("f:two") == 0

    def test_escalation_revive_scheduled(self):
        conf = SparkConf().with_overrides(locality_wait_s=3.0, speculation=False)
        sim, ctx, sched, driver = build_driver(conf=conf)
        # Task whose only replica is on n1, but n1 is out of slots.
        ctx.blocks.put_block("b", ["n1"])
        stage = Stage(
            "e:map",
            StageKind.SHUFFLE_MAP,
            [TaskSpec(index=0, input_mb=10, input_blocks=("b",), compute_gigacycles=1.0)],
        )
        sink = Stage("e:sink", StageKind.RESULT,
                     [TaskSpec(index=0, compute_gigacycles=0.1)], parents=(stage,))
        blocker = Stage(
            "e:blocker",
            StageKind.SHUFFLE_MAP,
            [TaskSpec(index=i, compute_gigacycles=100.0) for i in range(12)],
        )
        blocker_sink = Stage("e:bsink", StageKind.RESULT,
                             [TaskSpec(index=0, compute_gigacycles=0.1)],
                             parents=(blocker,))
        app = Application("e", [Job([blocker, blocker_sink], name="warm"),
                                Job([stage, sink], name="target")])
        driver.submit(app)
        res_pending = sim.pending_count
        assert res_pending > 0  # work scheduled
        sim.run()
        assert driver._app_done

    def test_executor_removal_stops_offers(self):
        sim, ctx, sched, driver = build_driver()
        for node in ctx.cluster:
            driver._launch_executor(node.name)
        ex = driver.executors["n1"]
        sched.on_executor_removed(ex)
        assert ex not in sched.executors

    def test_offer_order_randomized_but_deterministic(self):
        sim1, ctx1, sched1, d1 = build_driver(seed=9)
        for node in ctx1.cluster:
            d1._launch_executor(node.name)
        order1 = [e.node.name for e in sched1._offer_order()]
        sim2, ctx2, sched2, d2 = build_driver(seed=9)
        for node in ctx2.cluster:
            d2._launch_executor(node.name)
        order2 = [e.node.name for e in sched2._offer_order()]
        assert order1 == order2  # same seed, same shuffle


class TestSpeculationLoop:
    def test_loop_respects_disable(self):
        conf = SparkConf().with_overrides(speculation=False)
        sim, ctx, sched, driver = build_driver(conf=conf)
        res = drain_app(driver, simple_app())
        assert all(not m.speculative for m in res.task_metrics)

    def test_total_marked_counted(self):
        from repro.spark.speculation import SpeculationLoop

        sim, ctx, sched, driver = build_driver()
        res = drain_app(driver, simple_app(n_map=12, compute=30.0))
        assert driver._speculation.total_marked >= 0  # loop ran and stopped
        assert sim.peek_time() is None  # no immortal tick
