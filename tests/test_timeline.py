"""Tests for the Chrome-trace timeline exporter."""

from __future__ import annotations

import json

import pytest

from repro.analysis.timeline import summarize_lanes, timeline_events, to_chrome_trace
from repro.simulate.engine import Simulator
from repro.spark.default_scheduler import DefaultScheduler
from repro.spark.driver import AppResult, Driver
from repro.spark.locality import Locality
from repro.spark.metrics import TaskMetrics
from tests.conftest import drain_app, make_ctx, simple_app, tiny_cluster


def metric(node="n1", launch=0.0, finish=1.0, ok=True, killed=False, oom=False,
           key="s#0", spec=False):
    m = TaskMetrics(task_key=key, stage_id=0, index=0, attempt=0, node=node,
                    locality=Locality.ANY, speculative=spec)
    m.launch_time, m.finish_time = launch, finish
    m.succeeded, m.killed, m.failed_oom = ok, killed, oom
    return m


def result(metrics):
    return AppResult(app_name="t", scheduler_name="s", runtime_s=10.0,
                     task_metrics=metrics)


class TestTimelineEvents:
    def test_one_event_per_attempt_plus_metadata(self):
        events = timeline_events(result([metric(), metric(node="n2")]))
        tasks = [e for e in events if e["ph"] == "X"]
        meta = [e for e in events if e["ph"] == "M"]
        assert len(tasks) == 2 and len(meta) == 2

    def test_lane_assignment_no_overlap(self):
        ms = [
            metric(launch=0.0, finish=5.0, key="a#0"),
            metric(launch=1.0, finish=2.0, key="a#1"),  # overlaps -> lane 1
            metric(launch=6.0, finish=7.0, key="a#2"),  # fits lane 0
        ]
        tasks = [e for e in timeline_events(result(ms)) if e["ph"] == "X"]
        by_name = {e["name"]: e["tid"] for e in tasks}
        assert by_name["a#0"] == 0
        assert by_name["a#1"] == 1
        assert by_name["a#2"] == 0

    def test_outcome_categories(self):
        ms = [
            metric(ok=True, key="ok#0"),
            metric(ok=False, oom=True, key="oom#0"),
            metric(ok=False, killed=True, key="kill#0"),
        ]
        tasks = {e["name"]: e["cat"] for e in timeline_events(result(ms)) if e["ph"] == "X"}
        assert tasks["ok#0"] == "ok"
        assert tasks["oom#0"] == "oom"
        assert tasks["kill#0"] == "killed"

    def test_speculative_flagged_in_name(self):
        tasks = [
            e for e in timeline_events(result([metric(spec=True)])) if e["ph"] == "X"
        ]
        assert "(spec)" in tasks[0]["name"]

    def test_microsecond_units(self):
        tasks = [
            e
            for e in timeline_events(result([metric(launch=2.0, finish=3.5)]))
            if e["ph"] == "X"
        ]
        assert tasks[0]["ts"] == pytest.approx(2_000_000)
        assert tasks[0]["dur"] == pytest.approx(1_500_000)


class TestFileExport:
    def test_write_and_parse(self, tmp_path):
        sim = Simulator()
        cluster = tiny_cluster(sim)
        ctx = make_ctx(cluster)
        res = drain_app(Driver(ctx, DefaultScheduler()), simple_app())
        path = tmp_path / "trace.json"
        n = to_chrome_trace(res, path)
        assert n == len(res.task_metrics)
        payload = json.loads(path.read_text())
        assert "traceEvents" in payload
        assert len(payload["traceEvents"]) >= n

    def test_summarize_lanes(self):
        ms = [
            metric(launch=0.0, finish=5.0, key="a#0"),
            metric(launch=1.0, finish=2.0, key="a#1"),
            metric(node="n2", launch=0.0, finish=1.0, key="a#2"),
        ]
        peaks = summarize_lanes(result(ms))
        assert peaks == {"n1": 2, "n2": 1}
