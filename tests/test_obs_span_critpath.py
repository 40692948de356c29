"""Tests for causal spans and critical-path blame (repro.obs.span/critpath)."""

from __future__ import annotations

import pytest

from repro.core.rupam import RupamScheduler
from repro.obs.critpath import (
    BLAME_CATEGORIES,
    blame_delta,
    critical_path,
    render_blame,
    render_critical_path,
)
from repro.obs.span import APP, JOB, STAGE, TASK, Span, SpanRecorder
from repro.simulate.engine import Simulator
from repro.spark.default_scheduler import DefaultScheduler
from repro.spark.driver import Driver
from tests.conftest import drain_app, hetero_cluster, make_ctx, simple_app


class TestSpan:
    def test_dict_round_trip(self):
        s = Span(
            span_id="task:a@0/s1/t:map#0#a0",
            kind=TASK,
            name="t:map#0",
            start=1.0,
            end=4.5,
            parent_id="stage:a@0/1",
            phases=(("queued", 0.5), ("compute", 3.0)),
            attrs={"app": "a@0", "node": "n1"},
        )
        d = s.to_dict()
        assert d["type"] == "span" and d["t0"] == 1.0 and d["t1"] == 4.5
        assert Span.from_dict(d) == s

    def test_duration_and_phase_lookup(self):
        s = Span("x", TASK, "t", 2.0, 5.0, phases=(("compute", 2.0), ("gc", 0.5)))
        assert s.duration == 3.0
        assert s.phase("compute") == 2.0
        assert s.phase("fetch") == 0.0


class TestSpanRecorder:
    def _span(self, i: int, app: str = "a@0") -> Span:
        return Span(f"task:{app}/s0/t#{i}#a0", TASK, f"t#{i}", 0.0, float(i),
                    attrs={"app": app})

    def test_ring_drops_oldest_and_counts(self):
        rec = SpanRecorder(max_spans=3)
        for i in range(5):
            rec.record(self._span(i))
        assert len(rec) == 3 and rec.dropped == 2
        assert [s.name for s in rec] == ["t#2", "t#3", "t#4"]

    def test_disabled_records_nothing(self):
        rec = SpanRecorder(enabled=False)
        rec.record(self._span(0))
        assert len(rec) == 0

    def test_find_latest_wins(self):
        rec = SpanRecorder()
        rec.record(Span("dup", TASK, "t", 0.0, 1.0))
        rec.record(Span("dup", TASK, "t", 0.0, 2.0))
        assert rec.find("dup").end == 2.0
        assert rec.find("missing") is None

    def test_of_app_and_app_ids(self):
        rec = SpanRecorder()
        rec.record(self._span(0, app="a@0"))
        rec.record(self._span(1, app="b@1"))
        rec.record(Span("app:a@0", APP, "a", 0.0, 9.0, attrs={"app": "a@0"}))
        assert len(rec.of_app("a@0")) == 2
        assert rec.of_app("a@0", kind=APP)[0].kind == APP
        assert rec.app_ids() == ["a@0"]


def _run(scheduler, app=None, **app_kw):
    sim = Simulator()
    ctx = make_ctx(hetero_cluster(sim), trace=True)
    return ctx, drain_app(Driver(ctx, scheduler), app or simple_app(**app_kw))


class TestDriverSpanEmission:
    def test_all_kinds_emitted_with_parent_links(self):
        ctx, res = _run(RupamScheduler(), n_map=6, jobs=2)
        spans = res.obs.spans
        by_kind = {k: list(spans.of_kind(k)) for k in (TASK, STAGE, JOB, APP)}
        assert len(by_kind[APP]) == 1
        assert len(by_kind[JOB]) == 2
        assert len(by_kind[STAGE]) == 4          # map+reduce per job
        assert len(by_kind[TASK]) == len(res.task_metrics)
        app_span = by_kind[APP][0]
        job_ids = {s.span_id for s in by_kind[JOB]}
        stage_ids = {s.span_id for s in by_kind[STAGE]}
        assert all(s.parent_id == app_span.span_id for s in by_kind[JOB])
        assert all(s.parent_id in job_ids for s in by_kind[STAGE])
        assert all(s.parent_id in stage_ids for s in by_kind[TASK])

    def test_task_phases_cover_span_duration(self):
        ctx, res = _run(DefaultScheduler(), n_map=6)
        for s in res.obs.spans.of_kind(TASK):
            if s.attrs["status"] != "succeeded":
                continue
            phase_sum = sum(v for _, v in s.phases)
            assert phase_sum == pytest.approx(s.duration, rel=1e-6, abs=1e-6)

    def test_reduce_stage_span_carries_dag_parents(self):
        ctx, res = _run(RupamScheduler(), n_map=4)
        stages = list(res.obs.spans.of_kind(STAGE))
        parents = {s.name: s.attrs["parents"] for s in stages}
        assert parents["t:map"] == []
        assert len(parents["t:reduce"]) == 1

    def test_spans_mirrored_into_trace_recorder(self):
        ctx, res = _run(RupamScheduler(), n_map=4)
        mirrored = [e for e in ctx.trace.events if e.kind == "span"]
        assert len(mirrored) == len(res.obs.spans)
        rec = mirrored[0].data
        assert {"span_kind", "span_id", "t0", "t1", "phases"} <= set(rec)
        assert "type" not in rec

    def test_disabled_obs_emits_no_spans(self):
        sim = Simulator()
        ctx = make_ctx(hetero_cluster(sim))
        ctx.obs.enabled = False
        ctx.obs.metrics.enabled = False
        ctx.obs.spans.enabled = False
        ctx.obs.windows.enabled = False
        res = drain_app(Driver(ctx, RupamScheduler()), simple_app(n_map=4))
        assert not res.aborted
        assert len(ctx.obs.spans) == 0


class TestCriticalPathOnRuns:
    def test_fractions_sum_to_at_most_one(self):
        for sched in (DefaultScheduler(), RupamScheduler()):
            _, res = _run(sched, n_map=8, jobs=2)
            cp = critical_path(res.obs)
            fr = cp.fractions()
            assert set(fr) == set(BLAME_CATEGORIES) | {"unattributed"}
            assert sum(fr.values()) <= 1.0 + 1e-6
            assert all(v >= 0.0 for v in fr.values())
            assert cp.attributed <= cp.makespan + 1e-6

    def test_chain_is_backwards_contiguous(self):
        _, res = _run(RupamScheduler(), n_map=8, jobs=3)
        cp = critical_path(res.obs)
        assert cp.chain, "chain must not be empty"
        # Walk order is finish -> start; the first link ends the makespan.
        assert cp.chain[0].span.end == pytest.approx(cp.end)
        ends = [link.span.end for link in cp.chain]
        assert ends == sorted(ends, reverse=True)

    def test_accepts_result_obs_and_recorder(self):
        _, res = _run(RupamScheduler(), n_map=4)
        a = critical_path(res).blame
        b = critical_path(res.obs).blame
        c = critical_path(res.obs.spans).blame
        assert a == b == c
        with pytest.raises(ValueError, match="SpanRecorder"):
            critical_path(42)

    def test_renderers_mention_chain_and_categories(self):
        _, res = _run(RupamScheduler(), n_map=4)
        cp = critical_path(res.obs)
        text = render_critical_path(cp, max_links=2)
        assert "critical path" in text and "makespan" in text
        blame_text = render_blame(cp, label="rupam")
        for cat in BLAME_CATEGORIES:
            assert cat in blame_text


def _task(span_id, name, start, end, *, stage, first_start=None, rate=1.0,
          phases=(), status="succeeded", app="a@0"):
    return Span(
        span_id=span_id, kind=TASK, name=name, start=start, end=end,
        parent_id=f"stage:{app}/{stage}",
        phases=tuple(phases),
        attrs={
            "app": app, "status": status, "stage_id": stage,
            "core_rate": rate,
            "first_start": first_start if first_start is not None else start,
            "node": "n1",
        },
    )


class TestBlameSynthetic:
    """Hand-built span sets pin down the blame arithmetic exactly."""

    def test_hetero_blame_charges_slow_node_excess(self):
        rec = SpanRecorder()
        rec.record(Span("app:a@0", APP, "a", 0.0, 10.0, attrs={"app": "a@0"}))
        # One task on a half-speed node: 10s of compute, of which 5s is the
        # heterogeneity penalty relative to the best observed rate (2.0).
        rec.record(_task("t1", "w#0", 0.0, 10.0, stage=0, rate=1.0,
                         phases=(("compute", 10.0),)))
        rec.record(_task("t0", "fast#0", 0.0, 1.0, stage=1, rate=2.0,
                         phases=(("compute", 1.0),)))
        cp = critical_path(rec)
        assert cp.blame["hetero"] == pytest.approx(5.0)
        assert cp.blame["compute"] == pytest.approx(5.0)

    def test_speculation_relaunch_does_not_double_count(self):
        rec = SpanRecorder()
        rec.record(Span("app:a@0", APP, "a", 0.0, 10.0, attrs={"app": "a@0"}))
        # The original straggler attempt (killed) and the speculative winner
        # that started at t=6 after the task first launched at t=0.
        rec.record(_task("t:a@0/s0/w#0#a0", "w#0", 0.0, 9.0, stage=0,
                         status="killed", phases=(("compute", 9.0),)))
        rec.record(_task("t:a@0/s0/w#0#a1", "w#0", 6.0, 10.0, stage=0,
                         first_start=0.0, phases=(("compute", 4.0),)))
        cp = critical_path(rec)
        # Only the winning attempt is a chain link...
        assert len([l for l in cp.chain if l.covered > 0]) == 1
        assert cp.chain[0].span.span_id.endswith("#a1")
        # ...and it covers the whole makespan: 4s of compute plus 6s charged
        # to the straggling first attempt, never both attempts' compute.
        assert cp.attributed == pytest.approx(10.0)
        assert cp.blame["straggler"] == pytest.approx(6.0)
        assert cp.blame["compute"] == pytest.approx(4.0)
        assert sum(cp.fractions().values()) <= 1.0 + 1e-9

    def test_duplicate_span_ids_keep_latest(self):
        rec = SpanRecorder()
        rec.record(Span("app:a@0", APP, "a", 0.0, 5.0, attrs={"app": "a@0"}))
        rec.record(_task("t", "w#0", 0.0, 4.0, stage=0,
                         phases=(("compute", 4.0),)))
        rec.record(_task("t", "w#0", 0.0, 5.0, stage=0,
                         phases=(("compute", 5.0),)))
        cp = critical_path(rec)
        assert len(cp.chain) == 1
        assert cp.chain[0].span.end == 5.0

    def test_multi_app_requires_app_id(self):
        rec = SpanRecorder()
        for app in ("a@0", "b@1"):
            rec.record(Span(f"app:{app}", APP, app[0], 0.0, 5.0,
                            attrs={"app": app}))
            rec.record(_task(f"t:{app}", "w#0", 0.0, 5.0, stage=0, app=app,
                             phases=(("compute", 5.0),)))
        with pytest.raises(ValueError, match="app_id is required"):
            critical_path(rec)
        cp = critical_path(rec, app_id="b@1")
        assert cp.app_id == "b@1"
        # Name-prefix resolution works when unambiguous.
        assert critical_path(rec, app_id="a").app_id == "a@0"

    def test_empty_recorder_raises(self):
        with pytest.raises(ValueError):
            critical_path(SpanRecorder())

    def test_blame_delta_is_fraction_difference(self):
        def one(compute, queued):
            rec = SpanRecorder()
            rec.record(Span("app:a@0", APP, "a", 0.0, compute + queued,
                            attrs={"app": "a@0"}))
            rec.record(_task("t", "w#0", 0.0, compute + queued, stage=0,
                             phases=(("queued", queued),
                                     ("compute", compute))))
            return critical_path(rec)

        d = blame_delta(one(5.0, 5.0), one(10.0, 0.0))
        assert d["queueing"] == pytest.approx(0.5)
        assert d["compute"] == pytest.approx(-0.5)


class TestSpeculationEndToEnd:
    def test_lr_speculation_run_keeps_fractions_valid(self):
        """The fig5 LR run actually speculates; blame must stay coherent."""
        from repro.experiments.runner import RunSpec, run_once

        res = run_once(
            RunSpec(workload="lr", scheduler="rupam", seed=7,
                    monitor_interval=None)
        )
        launched = {d.reason for d in res.obs.decisions.decisions}
        assert "speculative-straggler" in launched
        cp = critical_path(res.obs)
        assert sum(cp.fractions().values()) <= 1.0 + 1e-6
        # Every chain link is a distinct (stage, task) — re-launched attempts
        # of the same task never appear twice.
        seen = {(l.span.attrs["stage_id"], l.span.name) for l in cp.chain}
        assert len(seen) == len(cp.chain)
