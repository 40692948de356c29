"""Tests for dispatch-decision tracing and reason codes."""

from __future__ import annotations

from repro.core.rupam import RupamScheduler
from repro.core.taskdb import TaskCharDB, TaskRecord
from repro.obs import decision as obs
from repro.obs.decision import DecisionTrace, DispatchDecision, Observability
from repro.obs.metrics import MetricsRegistry
from repro.simulate.engine import Simulator
from repro.spark.default_scheduler import DefaultScheduler
from repro.spark.driver import Driver
from tests.conftest import drain_app, hetero_cluster, make_ctx, simple_app

LAUNCH_REASONS = {
    obs.LAUNCH_LOCKED,
    obs.LAUNCH_MEM_OVERRIDE,
    obs.LAUNCH_PROCESS_LOCAL,
    obs.LAUNCH_BEST_LOCALITY,
    obs.LAUNCH_DELAY_SCHED,
    obs.LAUNCH_SPECULATIVE,
    obs.LAUNCH_GPU_ON_CPU,
    obs.LAUNCH_GPU_RACE,
}


def _run(app, sched, seed=3):
    sim = Simulator()
    ctx = make_ctx(hetero_cluster(sim), seed=seed)
    res = drain_app(Driver(ctx, sched), app)
    assert not res.aborted
    assert res.obs is ctx.obs
    return res


class TestForcedNoFitMemory:
    def test_oversized_task_records_no_fit_rejection(self):
        """A task whose known peak exceeds a node's heap is skipped there,
        and the skip is recorded with the no-fit-memory reason code."""
        app = simple_app(n_map=4, compute=6.0)
        # Pre-characterize every map task at 20 GB: too big for the 8 GB
        # "fast" node, fine on the 64 GB "bigmem" node.
        db = TaskCharDB()
        for i in range(4):
            db.enqueue_update(TaskRecord(key=f"t:map#{i}", peak_memory_mb=20_000.0))
        res = _run(app, RupamScheduler(db=db))

        trace = res.obs.decisions
        assert trace.reason_counts.get(obs.NO_FIT_MEMORY, 0) > 0
        assert res.obs.metrics.counter(f"dispatch.reject.{obs.NO_FIT_MEMORY}") > 0

        # The rejection history names the node and carries the fit numbers.
        rejected = [
            r
            for key in trace.task_keys()
            for r in trace.explain(key).rejections
            if r.reason == obs.NO_FIT_MEMORY
        ]
        assert rejected
        for r in rejected:
            assert r.node is not None
            assert r.detail["est_mb"] > r.detail["free_mb"]

        # The oversized tasks still ran — on nodes where they fit.
        for i in range(4):
            exp = trace.explain(f"t:map#{i}")
            assert exp.decisions, f"t:map#{i} never launched"
            assert all(d.node != "fast" for d in exp.decisions)


class TestRupamDecisions:
    def test_every_launch_is_explainable(self):
        res = _run(simple_app(n_map=6, jobs=2), RupamScheduler())
        trace = res.obs.decisions
        assert trace.decisions
        for d in trace.decisions:
            assert d.reason in LAUNCH_REASONS
            exp = trace.explain(d.task_key)
            assert d in exp.decisions
            assert exp.queues, f"{d.task_key} has no admission history"
        # As many launch decisions as task attempts.
        assert len(trace.decisions) == len(res.task_metrics)

    def test_decisions_carry_queue_and_utilization(self):
        res = _run(simple_app(n_map=6), RupamScheduler())
        d = res.obs.decisions.decisions[0]
        assert d.queue in {"cpu", "mem", "disk", "net", "gpu"}
        assert set(d.node_utilization) == {"cpu", "mem", "disk", "net", "gpu"}

    def test_admissions_recorded_per_queue(self):
        res = _run(simple_app(n_map=4), RupamScheduler())
        trace = res.obs.decisions
        exp = trace.explain("t:map#0")
        assert exp.queues and all(isinstance(q, str) for _, q in exp.queues)


class TestDefaultSchedulerDecisions:
    def test_stock_spark_launches_use_delay_scheduling_reason(self):
        res = _run(simple_app(n_map=6), DefaultScheduler())
        trace = res.obs.decisions
        assert trace.decisions
        reasons = {d.reason for d in trace.decisions}
        assert reasons <= {obs.LAUNCH_DELAY_SCHED, obs.LAUNCH_SPECULATIVE}
        assert (
            res.obs.metrics.counter(f"dispatch.launch.{obs.LAUNCH_DELAY_SCHED}") > 0
        )
        for d in trace.decisions:
            assert d.wait_s is not None and d.wait_s >= 0.0
        # Utilization vector shape matches the RUPAM dispatcher's decisions.
        assert set(trace.decisions[0].node_utilization) == {
            "cpu", "mem", "disk", "net", "gpu",
        }


class TestDecisionTraceUnit:
    def _trace(self, **kw) -> DecisionTrace:
        return DecisionTrace(MetricsRegistry(), **kw)

    def _decision(self, key="a#0", t=1.0) -> DispatchDecision:
        return DispatchDecision(
            time=t, task_key=key, attempt=1, node="n1", queue="cpu",
            locality="NODE_LOCAL", reason=obs.LAUNCH_BEST_LOCALITY, wait_s=0.5,
        )

    def test_rejection_ring_bounds_memory(self):
        trace = self._trace(max_rejections_per_task=4)
        for i in range(10):
            trace.record_rejection(float(i), obs.NODE_BUSY, task_key="a#0", node="n1")
        exp = trace.explain("a#0")
        assert len(exp.rejections) == 4
        assert exp.rejections_dropped == 6
        # The ring keeps the most recent rejections.
        assert [r.time for r in exp.rejections] == [6.0, 7.0, 8.0, 9.0]
        # The aggregate tally is not bounded by the ring.
        assert trace.reason_counts[obs.NODE_BUSY] == 10

    def test_disabled_trace_records_nothing(self):
        trace = DecisionTrace(MetricsRegistry(), enabled=False)
        trace.record_enqueue(0.0, "a#0", "cpu")
        trace.record_launch(self._decision())
        trace.record_rejection(0.0, obs.QUEUE_EMPTY, task_key="a#0")
        assert not trace.decisions and not trace.task_keys()
        assert not trace.reason_counts

    def test_launch_updates_latency_histogram(self):
        trace = self._trace()
        trace.record_launch(self._decision())
        h = trace.metrics.histogram("dispatch.latency_s")
        assert h is not None and h.count == 1

    def test_matching_keys_exact_beats_substring(self):
        trace = self._trace()
        trace.record_enqueue(0.0, "t:map#1", "cpu")
        trace.record_enqueue(0.0, "t:map#11", "cpu")
        assert trace.matching_keys("t:map#1") == ["t:map#1"]
        assert trace.matching_keys("map#1") == ["t:map#1", "t:map#11"]
        assert trace.matching_keys("nope") == []

    def _multi_tenant_trace(self) -> DecisionTrace:
        """Two apps of the same workload: task keys collide across apps."""
        trace = self._trace()
        for i, app in enumerate(("lr@1", "lr@2", "pr@3")):
            d = DispatchDecision(
                time=float(i), task_key="lr:gradient#3" if app != "pr@3"
                else "pr:contrib#0",
                attempt=0, node=f"n{i}", queue="cpu",
                locality="NODE_LOCAL", reason=obs.LAUNCH_BEST_LOCALITY,
                app=app,
            )
            trace.record_launch(d)
        return trace

    def test_app_filter_on_task_keys_and_explain(self):
        trace = self._multi_tenant_trace()
        assert trace.apps() == ["lr@1", "lr@2", "pr@3"]
        # Unfiltered: the shared key appears once (keys are not app-prefixed).
        assert trace.task_keys() == ["lr:gradient#3", "pr:contrib#0"]
        assert trace.task_keys(app="pr@3") == ["pr:contrib#0"]
        # Exact app id narrows the decision list; the bare name matches any
        # instance of that workload.
        assert len(trace.explain("lr:gradient#3").decisions) == 2
        assert len(trace.explain("lr:gradient#3", app="lr@1").decisions) == 1
        assert len(trace.explain("lr:gradient#3", app="lr").decisions) == 2

    def test_matching_keys_normalizes_app_slash_key_queries(self):
        trace = self._multi_tenant_trace()
        # "app/key" form resolves the prefix as an app filter.
        assert trace.matching_keys("lr@1/lr:gradient#3") == ["lr:gradient#3"]
        assert trace.matching_keys("lr@1/gradient") == ["lr:gradient#3"]
        assert trace.matching_keys("lr@1/pr:contrib#0") == []
        # A prefix that names no known app stays part of the query.
        assert trace.matching_keys("zz@9/lr:gradient#3") == []
        # Explicit app argument wins over normalization.
        assert trace.matching_keys("gradient", app="lr@2") == ["lr:gradient#3"]

    def test_explanation_render_mentions_reasons(self):
        trace = self._trace()
        trace.record_enqueue(0.0, "a#0", "cpu")
        trace.record_rejection(
            0.5, obs.NO_FIT_MEMORY, task_key="a#0", node="n1",
            est_mb=900.0, free_mb=100.0,
        )
        trace.record_launch(self._decision())
        text = trace.explain("a#0").render()
        assert obs.NO_FIT_MEMORY in text
        assert "attempt 1 -> n1" in text
        assert "est_mb=900.0" in text


class TestObservabilityOffByDefaultPath:
    def test_disabled_run_still_completes(self):
        app = simple_app(n_map=4)
        sim = Simulator()
        ctx = make_ctx(hetero_cluster(sim), seed=3)
        ctx.obs = Observability(enabled=False)
        res = drain_app(Driver(ctx, RupamScheduler()), app)
        assert not res.aborted
        assert not res.obs.decisions.decisions
        assert not res.obs.metrics.counters
