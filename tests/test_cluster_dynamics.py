"""Cluster dynamics: churn determinism, drain/preempt semantics, autoscaling.

Covers the `Session(events=...)` / `Session.inject(...)` lifecycle API: the
declarative timeline, spot preemption landing mid-shuffle, graceful
decommission draining ahead of its deadline, correlated rack failure,
queue-depth autoscaling (up and down), a node joining an idle reclamation-
mode driver, and the parity guarantee that dynamics-free sessions are
untouched by the subsystem existing.
"""

from __future__ import annotations

import pytest

from repro.api import Session
from repro.cluster.dynamics import (
    AutoscalePolicy,
    ClusterTimeline,
    ExecutorFailure,
    NodeDecommission,
    NodeJoin,
    RackFailure,
    SpotPreemption,
)
from repro.simulate.randomness import DYNAMICS_STREAM, RandomSource
from repro.spark.conf import SparkConf
from tests.conftest import simple_app, small_node, tiny_cluster

FLAT_CONF = SparkConf().with_overrides(jitter_sigma=0.0)


def run_fingerprint(session: Session) -> list:
    """Byte-comparable signature of one finished run."""
    applied = (
        [[at, name, sorted(attrs.items())]
         for at, name, attrs in session.dynamics.applied]
        if session.dynamics is not None
        else []
    )
    metrics = [
        [m.task_key, m.stage_id, m.attempt, m.node, m.launch_time,
         m.finish_time, m.succeeded, m.killed]
        for h in session.handles
        for m in h.result().task_metrics
    ]
    return [applied, sorted(n.name for n in session.cluster.nodes), metrics]


def churn_session(scheduler: str) -> Session:
    """A small session exercising every event type in one run."""
    timeline = ClusterTimeline(
        [
            (1.0, NodeJoin(small_node("n4"))),
            (2.0, SpotPreemption(node="n2")),
            (4.0, NodeDecommission(node="n3")),
            (6.0, ExecutorFailure(node="n4")),
        ]
    )
    s = Session(
        cluster=lambda sim: tiny_cluster(sim, n=3),
        scheduler=scheduler,
        seed=7,
        conf=FLAT_CONF,
        monitor_interval=None,
        events=timeline,
    )
    s.submit(simple_app(n_map=12, n_reduce=4, compute=6.0, shuffle_mb=16.0))
    return s


class TestChurnDeterminism:
    @pytest.mark.parametrize("scheduler", ["spark", "rupam"])
    def test_same_seed_same_events_same_outcome(self, scheduler):
        first = churn_session(scheduler)
        first.run_until_idle()
        second = churn_session(scheduler)
        second.run_until_idle()
        assert run_fingerprint(first) == run_fingerprint(second)
        # Every scripted event actually fired.
        assert [name for _, name, _ in first.dynamics.applied] == [
            "NodeJoin", "SpotPreemption", "NodeDecommission", "ExecutorFailure",
        ]

    @pytest.mark.parametrize("scheduler", ["spark", "rupam"])
    def test_dynamics_off_parity(self, scheduler):
        """An empty timeline builds the machinery but changes nothing."""

        def build(events):
            s = Session(
                cluster=lambda sim: tiny_cluster(sim, n=3),
                scheduler=scheduler,
                seed=7,
                conf=FLAT_CONF,
                monitor_interval=None,
                events=events,
            )
            s.submit(simple_app(n_map=9, n_reduce=3, compute=4.0))
            s.run_until_idle()
            return s

        bare = build(None)
        empty = build(ClusterTimeline())
        assert bare.dynamics is None
        assert empty.dynamics is not None and empty.dynamics.applied == []
        fp_bare, fp_empty = run_fingerprint(bare), run_fingerprint(empty)
        # Same tasks, placements, and times — byte-identical modulo the
        # (empty) applied log.
        assert fp_bare[1:] == fp_empty[1:]

    def test_dynamics_stream_is_isolated(self):
        """Drawing churn randomness does not perturb any other stream."""
        a, b = RandomSource(42), RandomSource(42)
        before = b.stream("spark-offers").random(8).tolist()
        a.stream(DYNAMICS_STREAM).random(1000)  # heavy dynamics usage
        after = a.stream("spark-offers").random(8).tolist()
        assert before == after

    def test_seeded_churn_is_pure_function_of_seed(self):
        nodes = [f"n{i}" for i in range(1, 6)]
        one = ClusterTimeline.seeded_churn(3, nodes, horizon_s=60.0)
        two = ClusterTimeline.seeded_churn(3, nodes, horizon_s=60.0)
        assert [(at, repr(e)) for at, e in one] == [(at, repr(e)) for at, e in two]
        other = ClusterTimeline.seeded_churn(4, nodes, horizon_s=60.0)
        assert [(at, repr(e)) for at, e in one] != [
            (at, repr(e)) for at, e in other
        ]


class TestPreemption:
    @pytest.mark.parametrize("scheduler", ["spark", "rupam"])
    def test_preemption_mid_shuffle_recovers(self, scheduler):
        """Losing a map node between map and reduce re-runs the lost maps."""
        s = Session(
            cluster=lambda sim: tiny_cluster(sim, n=3),
            scheduler=scheduler,
            seed=7,
            conf=FLAT_CONF,
            monitor_interval=None,
        )
        app = simple_app(n_map=6, n_reduce=3, compute=2.0, shuffle_mb=30.0)
        map_stage = next(st for st in app.jobs[0].stages if st.is_map)
        s.submit(app)

        def preempt_when_shuffling():
            if s.ctx.shuffle.total_output_mb(map_stage.shuffle_id) > 0:
                s.inject(SpotPreemption(node="n2", warning_s=1.0))
            else:
                s.sim.after(0.25, preempt_when_shuffling)

        s.sim.after(0.25, preempt_when_shuffling)
        results = s.run_until_idle()
        assert not results[0].aborted
        assert not s.cluster.has_node("n2")
        # The shuffle is whole again even though n2's outputs left with it.
        assert s.ctx.shuffle.total_output_mb(map_stage.shuffle_id) == pytest.approx(
            180.0, rel=0.3
        )

    def test_warning_window_drains_but_deadline_holds(self):
        """During the warning the executor takes no new tasks; the node is
        removed at the deadline regardless of remaining work."""
        s = Session(
            cluster=lambda sim: tiny_cluster(sim, n=2),
            scheduler="spark",
            seed=7,
            conf=FLAT_CONF,
            monitor_interval=None,
        )
        s.submit(simple_app(n_map=8, n_reduce=2, compute=20.0))
        s.inject(SpotPreemption(node="n2", warning_s=3.0), at=1.0)

        removal_times = []
        orig = s.driver.remove_node

        def spy(name, reason="failure"):
            removal_times.append((s.sim.now, name, reason))
            return orig(name, reason)

        s.driver.remove_node = spy
        s.run_until_idle()
        assert removal_times == [(4.0, "n2", "preemption")]


class TestDecommission:
    def test_drain_finishes_tasks_then_leaves_early(self):
        """A draining node leaves as soon as its tasks finish — well before
        the drain deadline — and those attempts are not wasted."""
        s = Session(
            cluster=lambda sim: tiny_cluster(sim, n=2),
            scheduler="spark",
            seed=7,
            conf=SparkConf().with_overrides(
                jitter_sigma=0.0, decommission_drain_s=500.0
            ),
            monitor_interval=None,
        )
        s.submit(simple_app(n_map=4, n_reduce=2, compute=10.0, shuffle_mb=0.1))
        s.inject(NodeDecommission(node="n2"), at=1.0)
        results = s.run_until_idle()
        assert not s.cluster.has_node("n2")
        # Removal happened at task-drain time, not at the 501s deadline.
        assert s.sim.now < 400.0
        n2_attempts = [m for m in results[0].task_metrics if m.node == "n2"]
        assert n2_attempts and all(m.succeeded for m in n2_attempts)

    def test_departure_validation(self):
        s = Session(
            cluster=lambda sim: tiny_cluster(sim, n=3),
            scheduler="spark",
            seed=7,
            conf=FLAT_CONF,
            monitor_interval=None,
        )
        with pytest.raises(KeyError):
            s.driver.decommission_node("ghost")
        # The driver's own node hosts the master and the result sink.
        with pytest.raises(ValueError, match="driver node"):
            s.driver.decommission_node("n1")
        s.driver.preempt_node("n2", warning_s=10.0)
        with pytest.raises(ValueError, match="already"):
            s.driver.decommission_node("n2")
        # An idle node has nothing to drain: decommission removes it now.
        s.driver.decommission_node("n3")
        assert not s.cluster.has_node("n3")


class TestRackFailure:
    def test_rack_failure_spares_driver_node(self):
        s = Session(cluster="multirack", scheduler="rupam", seed=7,
                    monitor_interval=None)
        s.submit(simple_app(n_map=12, n_reduce=4, compute=4.0, shuffle_mb=8.0))
        # rack0 hosts the driver (r0-stack1): everything else in it dies.
        s.inject(RackFailure(rack="rack0"), at=2.0)
        results = s.run_until_idle()
        assert not results[0].aborted
        assert s.cluster.has_node("r0-stack1")
        for name in ("r0-thor1", "r0-thor2", "r0-hulk1", "r0-hulk2"):
            assert not s.cluster.has_node(name)

    def test_unknown_rack_is_a_noop(self):
        s = Session(cluster="multirack", scheduler="spark", seed=7,
                    monitor_interval=None)
        s.submit(simple_app(n_map=4, n_reduce=2, compute=1.0))
        s.inject(RackFailure(rack="nonexistent"), at=1.0)
        s.run_until_idle()
        assert len(s.cluster.nodes) == 15


class TestAutoscale:
    def test_scale_up_and_down(self):
        timeline = ClusterTimeline(
            autoscale=AutoscalePolicy(template=small_node("burst", cores=8))
        )
        s = Session(
            cluster=lambda sim: tiny_cluster(sim, n=2),
            scheduler="spark",
            seed=7,
            conf=SparkConf().with_overrides(
                jitter_sigma=0.0,
                autoscale_interval_s=1.0,
                autoscale_up_pending_per_slot=1.0,
                autoscale_down_idle_s=4.0,
                autoscale_max_nodes=2,
                provision_delay_s=2.0,
            ),
            monitor_interval=None,
            events=timeline,
        )
        s.submit(simple_app(n_map=40, n_reduce=4, compute=12.0))
        # A second app keeps services (and the control loop) alive while the
        # burst nodes idle out.
        s.submit(simple_app(n_map=2, n_reduce=1, compute=30.0), at=30.0)
        s.run_until_idle()
        names = [n for _, kind, a in s.dynamics.applied
                 if kind == "NodeJoin" for n in [a["node"]]]
        assert names, "queue depth never triggered a scale-up"
        assert all(n.startswith("scale-") for n in names)
        releases = [a["node"] for _, kind, a in s.dynamics.applied
                    if kind == "NodeDecommission"]
        assert releases, "idle burst nodes were never released"
        # At least one idle burst node was handed back, the cap was
        # respected, and the bookkeeping matches the cluster's reality.
        joined = set(names)
        assert len(joined) <= 2  # autoscale_max_nodes
        remaining = {n.name for n in s.cluster.nodes}
        assert {"n1", "n2"} <= remaining
        assert remaining - {"n1", "n2"} == set(s.dynamics.autoscaled_nodes)
        assert set(releases) <= joined

    def test_idle_driver_schedules_no_ticks(self):
        """With services down the control loop is parked: the event queue
        drains (a self-rescheduling tick would keep the sim alive forever)."""
        timeline = ClusterTimeline(
            autoscale=AutoscalePolicy(template=small_node("burst"))
        )
        s = Session(
            cluster=lambda sim: tiny_cluster(sim, n=2),
            scheduler="spark",
            seed=7,
            conf=FLAT_CONF,
            monitor_interval=None,
            events=timeline,
        )
        s.submit(simple_app(n_map=2, n_reduce=1, compute=1.0))
        s.run_until_idle()
        assert s.sim.peek_time() is None


class TestJoinDuringIdle:
    def test_join_lands_while_driver_idle_under_reclamation(self):
        """Service mode: the cluster sleeps between apps; a node joining the
        idle cluster gets its executor at the next wake."""
        s = Session(
            cluster=lambda sim: tiny_cluster(sim, n=2),
            scheduler="rupam",
            seed=7,
            conf=FLAT_CONF,
            monitor_interval=None,
        )
        s.driver.enable_reclamation()
        h1 = s.driver.submit(simple_app(n_map=4, n_reduce=2, compute=2.0))
        s.sim.run()
        assert h1.done and not s.driver._services_running
        # Join while everything sleeps, then wake with a second app.
        idle_t = s.sim.now
        s.inject(NodeJoin(small_node("n9")), at=idle_t + 5.0)
        h2 = s.driver.submit(
            simple_app(n_map=6, n_reduce=2, compute=2.0), at=idle_t + 10.0
        )
        s.sim.run()
        assert h2.done
        assert s.cluster.has_node("n9")
        # The wake loop launched an executor for the newcomer.
        assert "n9" in s.driver.executors

    def test_join_mid_run_gets_executor_immediately(self):
        s = Session(
            cluster=lambda sim: tiny_cluster(sim, n=2),
            scheduler="spark",
            seed=7,
            conf=FLAT_CONF,
            monitor_interval=None,
        )
        s.submit(simple_app(n_map=12, n_reduce=2, compute=10.0))
        s.inject(NodeJoin(small_node("n9")), at=1.0)
        results = s.run_until_idle()
        assert s.cluster.has_node("n9")
        # The newcomer actually ran work.
        assert any(m.node == "n9" for m in results[0].task_metrics)


class TestTimelineValidation:
    def test_rejects_non_events_and_negative_times(self):
        with pytest.raises(TypeError, match="not a cluster event"):
            ClusterTimeline([(1.0, "kaboom")])
        with pytest.raises(ValueError, match=">= 0"):
            ClusterTimeline([(-1.0, NodeDecommission(node="n1"))])

    def test_inject_rejects_past_times(self):
        s = Session(
            cluster=lambda sim: tiny_cluster(sim, n=2),
            scheduler="spark",
            seed=7,
            conf=FLAT_CONF,
            monitor_interval=None,
        )
        s.submit(simple_app(n_map=2, n_reduce=1, compute=1.0))
        s.run_until_idle()
        assert s.sim.now > 0
        with pytest.raises(ValueError, match="past"):
            s.inject(ExecutorFailure(node="n1"), at=0.5)
        with pytest.raises(TypeError):
            s.inject(object())


class TestLockInvalidation:
    def test_departed_node_locks_break_immediately(self):
        """RUPAM optExecutor locks pinned to a departed node are cleared so
        tasks don't sit out lock_break_wait_s against a ghost."""
        s = Session(
            cluster=lambda sim: tiny_cluster(sim, n=3),
            scheduler="rupam",
            seed=7,
            conf=FLAT_CONF,
            monitor_interval=None,
        )
        s.submit(simple_app(n_map=4, n_reduce=2, compute=1.0))
        s.run_until_idle()
        tm = s.scheduler.tm
        tm._locked["ghost-task"] = "n2"
        s.driver.remove_node("n2", reason="failure")
        assert "ghost-task" not in tm._locked
