"""Failure-injection tests: executor death, shuffle survival, recovery paths.

Failures are injected through the public lifecycle API —
``Session.inject(ExecutorFailure(node=...), at=...)``.
"""

from __future__ import annotations

import pytest

from repro.api import Session
from repro.cluster.dynamics import ExecutorFailure
from repro.spark.conf import SparkConf
from tests.conftest import hetero_cluster, simple_app, tiny_cluster


def make_session(conf=None, cluster=tiny_cluster, scheduler="spark") -> Session:
    return Session(
        cluster=cluster,
        scheduler=scheduler,
        seed=1,
        conf=conf or SparkConf().with_overrides(jitter_sigma=0.0),
        monitor_interval=None,
    )


class TestExecutorDeath:
    def test_kill_mid_run_recovers_and_completes(self):
        s = make_session(
            conf=SparkConf().with_overrides(jitter_sigma=0.0, executor_recovery_s=2.0)
        )
        s.submit(simple_app(n_map=9, compute=8.0))
        # Kill one executor shortly after launch.
        s.inject(ExecutorFailure(node="n1"), at=0.5)
        s.run_until_idle()
        assert s.driver._app_done
        assert s.driver.executor_kills == 1
        # The executor came back and the node was reused.
        assert "n1" in s.driver.executors

    def test_shuffle_output_survives_executor_death(self):
        """External-shuffle-service semantics: map outputs on local disk
        outlive the JVM."""
        s = make_session()
        app = simple_app(n_map=4, compute=1.0, shuffle_mb=25.0)
        map_stage = next(st for st in app.jobs[0].stages if st.is_map)
        s.submit(app)

        def kill_after_maps():
            if s.ctx.shuffle.total_output_mb(map_stage.shuffle_id) > 0:
                s.inject(ExecutorFailure(node="n2"))
            else:
                s.sim.after(0.5, kill_after_maps)

        s.sim.after(0.5, kill_after_maps)
        s.run_until_idle()
        assert s.driver._app_done
        assert s.ctx.shuffle.total_output_mb(map_stage.shuffle_id) == pytest.approx(
            100.0, rel=0.3
        )

    def test_cached_blocks_lost_on_death(self):
        s = make_session()
        for node in s.cluster:
            s.driver._launch_executor(node.name)
        s.driver.executors["n1"].cache_partition("k1", 50.0)
        s.inject(ExecutorFailure(node="n1"))
        s.sim.run()
        assert s.blocks.cached_location("k1") is None

    def test_double_kill_is_idempotent(self):
        s = make_session()
        for node in s.cluster:
            s.driver._launch_executor(node.name)
        s.inject(ExecutorFailure(node="n1"))
        s.inject(ExecutorFailure(node="n1"))
        s.sim.run()
        assert s.driver.executor_kills == 1

    def test_no_relaunch_after_app_done(self):
        s = make_session(
            conf=SparkConf().with_overrides(jitter_sigma=0.0, executor_recovery_s=500.0)
        )
        s.submit(simple_app(n_map=2, compute=0.5))
        s.run_until_idle()
        assert s.driver._app_done
        # Kill after completion: no recovery event should keep the sim alive.
        victim = next(iter(s.driver.executors))
        s.inject(ExecutorFailure(node=victim))
        s.sim.run()
        assert s.sim.peek_time() is None


class TestRupamUnderFailures:
    def test_rupam_survives_executor_kill(self):
        s = make_session(
            conf=SparkConf().with_overrides(jitter_sigma=0.0, executor_recovery_s=2.0),
            cluster=hetero_cluster,
            scheduler="rupam",
        )
        s.submit(simple_app(n_map=9, compute=8.0, jobs=2))
        s.inject(ExecutorFailure(node="fast"), at=0.5)
        s.run_until_idle()
        assert s.driver._app_done

    def test_aborted_app_reports_aborted(self):
        s = make_session(
            conf=SparkConf().with_overrides(
                jitter_sigma=0.0, max_task_failures=2, executor_memory_mb=1500.0,
                oom_kill_overcommit=99.0,
            )
        )
        # A task that cannot fit anywhere: certain OOM, quick abort.
        handle = s.submit(simple_app(n_map=2, compute=2.0, peak_mb=5000.0))
        s.run_until_idle()
        res = handle.result()
        assert res.aborted
        assert res.oom_task_failures >= 2
        # No dangling work after abort.
        for ex in s.driver.executors.values():
            assert not ex.running
