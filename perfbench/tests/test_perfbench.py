"""The benchmark's own checks: determinism, transparent tracing, failure
accounting, and refusal to run without the program's sources."""

from __future__ import annotations

import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

from repro.cluster.cluster import Cluster
from repro.cluster.presets import multirack_node_specs
from repro.simulate.engine import Simulator

from perfbench.harness import run_session
from perfbench.layers import TARGETS, LayerTracer
from perfbench.workloads import SessionPlan, Submission

ROOT = Path(__file__).resolve().parents[2]


def two_thor_nodes(sim: Simulator) -> Cluster:
    return Cluster(sim, multirack_node_specs(1)[:2])


SMALL = SessionPlan(
    label="small",
    seed=3,
    cluster=two_thor_nodes,
    submissions=(
        Submission("terasort", overrides={"size_gb": 0.25, "partitions": 16, "reducers": 8}),
    ),
)

# Two apps on 16 cores: the first keeps every slot busy for a minute, so the
# second's map tasks starve at node-local level and stock Spark's escalation
# revive re-arms 1 us ahead forever (the tenants-churn storm, in small).
CONTENDED = SessionPlan(
    label="contended",
    seed=3,
    cluster=two_thor_nodes,
    monitor_interval=None,
    submissions=(
        Submission("terasort", at=0.0, overrides={"size_gb": 4.0, "partitions": 64, "reducers": 8}),
        Submission("terasort", at=1.0, overrides={"size_gb": 0.125, "partitions": 8, "reducers": 4}),
    ),
)


def test_signatures_repeat_per_seed():
    for scheduler in ("spark", "rupam"):
        first = run_session(SMALL, scheduler, event_cap=50_000)
        again = run_session(SMALL, scheduler, event_cap=50_000)
        other = run_session(replace(SMALL, seed=4), scheduler, event_cap=50_000)
        assert first.apps_failed == 0 and first.tasks_ok > 0
        assert first.signature == again.signature
        assert first.signature != other.signature


def test_wrappers_are_transparent():
    originals = {(owner, attr): owner.__dict__[attr] for owner, attr, _, _ in TARGETS}
    untraced = {s: run_session(SMALL, s, event_cap=50_000) for s in ("spark", "rupam")}
    tracer = LayerTracer(run_id="test")
    tracer.install()
    try:
        traced = {
            s: run_session(SMALL, s, event_cap=50_000, tracer=tracer)
            for s in ("spark", "rupam")
        }
    finally:
        tracer.uninstall()
    for (owner, attr), fn in originals.items():
        assert owner.__dict__[attr] is fn
    for s in ("spark", "rupam"):
        assert traced[s].signature == untraced[s].signature
        layers = traced[s].layers
        assert layers["driver.launch_task"][0] == traced[s].launches
        assert layers["engine.run"][0] == 1
        calls, inclusive, self_s = layers["engine.run"]
        assert 0 < self_s <= inclusive
    assert traced["rupam"].layers["dispatcher.dispatch"][0] > 0
    assert traced["spark"].layers["default_scheduler.revive"][0] > 0
    # Coarse spans: one session span per session, each with setup and drain.
    names = [span["name"] for span in tracer.spans]
    assert names == ["session", "setup", "drain"] * 2
    assert all(span["run"] == "test" and span["end"] >= span["start"] for span in tracer.spans)


def test_contended_spark_storm_is_counted_as_failed_operations():
    cap = 5_000
    spark = run_session(CONTENDED, "spark", event_cap=cap)
    assert spark.overran and spark.events == cap
    assert spark.apps_failed == spark.apps == 2
    assert spark.hot_callback == "DefaultScheduler.revive"
    rupam = run_session(CONTENDED, "rupam", event_cap=cap)
    assert not rupam.overran and rupam.apps_failed == 0


def test_refuses_to_run_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__")
    )
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fig5-hydra", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
