"""Tests for the exporters: JSONL logs, run reports, bench artifacts,
Chrome-trace decision interleaving, and the trace ring buffer."""

from __future__ import annotations

import json

import pytest

from repro.analysis.timeline import to_chrome_trace
from repro.core.rupam import RupamScheduler
from repro.core.taskdb import TaskCharDB, TaskRecord
from repro.obs.export import (
    bench_payload,
    events,
    read_jsonl,
    write_bench_json,
    write_jsonl,
)
from repro.obs.report import build_run_report
from repro.simulate.engine import Simulator
from repro.simulate.trace import TraceRecorder
from repro.spark.driver import Driver
from tests.conftest import drain_app, hetero_cluster, make_ctx, simple_app


@pytest.fixture(scope="module")
def rupam_result():
    sim = Simulator()
    ctx = make_ctx(hetero_cluster(sim), seed=3)
    # Pre-characterize one task as too big for the small node so the run is
    # guaranteed to contain at least one task-keyed rejection record.
    db = TaskCharDB()
    db.enqueue_update(TaskRecord(key="t:map#0", peak_memory_mb=20_000.0))
    res = drain_app(Driver(ctx, RupamScheduler(db=db)), simple_app(n_map=6, jobs=2))
    assert not res.aborted
    return res


class TestJsonl:
    def test_round_trip(self, rupam_result, tmp_path):
        path = tmp_path / "nested" / "dir" / "events.jsonl"  # parents created
        n = write_jsonl(rupam_result.obs, path)
        recs = read_jsonl(path)
        assert len(recs) == n
        assert recs == events(rupam_result.obs)

    def test_record_types_and_ordering(self, rupam_result, tmp_path):
        path = tmp_path / "events.jsonl"
        write_jsonl(rupam_result.obs, path)
        recs = read_jsonl(path)
        types = {r["type"] for r in recs}
        assert types == {"decision", "rejection", "span", "series", "counters"}
        timed = [
            r["t"]
            for r in recs
            if r["type"] in ("decision", "rejection", "span")
        ]
        assert timed == sorted(timed)
        counters = [r for r in recs if r["type"] == "counters"]
        assert len(counters) == 1
        assert counters[0]["counters"]["tasks.launched"] > 0

    def test_decision_records_are_complete(self, rupam_result, tmp_path):
        path = tmp_path / "events.jsonl"
        write_jsonl(rupam_result.obs, path)
        decisions = [r for r in read_jsonl(path) if r["type"] == "decision"]
        assert decisions
        for d in decisions:
            assert {"task", "node", "queue", "locality", "reason",
                    "node_utilization"} <= set(d)


class TestRunReport:
    def test_build_and_serialize(self, rupam_result):
        report = build_run_report(rupam_result)
        assert report.scheduler_name == "rupam"
        assert report.task_attempts == len(rupam_result.task_metrics)
        assert report.launch_reasons
        assert sum(report.launch_reasons.values()) == len(
            rupam_result.obs.decisions.decisions
        )
        d = report.to_dict()
        assert json.loads(json.dumps(d)) == d
        assert {"p50", "p95", "p99"} <= set(d["dispatch_latency_s"])

    def test_requires_observability(self, rupam_result):
        import dataclasses

        bare = dataclasses.replace(rupam_result, obs=None)
        with pytest.raises(ValueError, match="observability"):
            build_run_report(bare)

    def test_render_mentions_reasons(self, rupam_result):
        text = build_run_report(rupam_result).render()
        assert "run report" in text
        assert "launch reason" in text
        assert "dispatch latency" in text


class TestBenchArtifact:
    def test_payload_and_file(self, rupam_result, tmp_path):
        payload = bench_payload("unit", rupam_result, extra={"rows": 7})
        assert payload["bench"] == "unit" and payload["rows"] == 7
        out = write_bench_json("unit", payload, tmp_path / "sub")
        assert out.name == "BENCH_unit.json"
        assert json.loads(out.read_text())["report"]["scheduler"] == "rupam"


class TestChromeTraceDecisions:
    def test_trace_interleaves_decisions_and_creates_parents(
        self, rupam_result, tmp_path
    ):
        path = tmp_path / "deep" / "trace.json"
        n = to_chrome_trace(rupam_result, path)
        assert n > 0
        evs = json.loads(path.read_text())["traceEvents"]
        phases = {e["ph"] for e in evs}
        assert {"X", "M", "i", "C"} <= phases
        instants = [e for e in evs if e["ph"] == "i"]
        assert instants and all("reason" in e["args"] for e in instants)
        # Task spans carry locality and attempt for the tooltip.
        spans = [e for e in evs if e["ph"] == "X"]
        assert spans and all(
            "locality" in e["args"] and "attempt" in e["args"] for e in spans
        )

    def test_decisions_can_be_excluded(self, rupam_result, tmp_path):
        path = tmp_path / "trace.json"
        to_chrome_trace(rupam_result, path, include_decisions=False)
        evs = json.loads(path.read_text())["traceEvents"]
        assert not [e for e in evs if e["ph"] == "i"]


class TestTraceRecorderRing:
    def test_unbounded_by_default(self):
        rec = TraceRecorder()
        for i in range(100):
            rec.record(0.0, "sched", idx=i)
        assert len(rec.events) == 100 and rec.dropped == 0

    def test_ring_drops_oldest_and_counts(self):
        rec = TraceRecorder(max_events=5)
        for i in range(8):
            rec.record(float(i), "sched", idx=i)
        assert len(rec.events) == 5
        assert rec.dropped == 3
        assert [e["idx"] for e in rec.events] == [3, 4, 5, 6, 7]

    def test_clear_resets_dropped(self):
        rec = TraceRecorder(max_events=2)
        for i in range(4):
            rec.record(float(i), "sched", idx=i)
        rec.clear()
        assert not rec.events and rec.dropped == 0

    def test_invalid_capacity_rejected(self):
        with pytest.raises(ValueError):
            TraceRecorder(max_events=0)
