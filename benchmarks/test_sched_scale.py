"""Dispatch-engine scale benchmarks: incremental vs legacy.

Two suites, both driven by the shared harness in
:mod:`repro.experiments.schedbench` (also reachable as ``repro bench scale``):

* ``test_dispatch_scale`` sweeps a (nodes x tasks) grid and times one
  dispatch call per engine on identical synthetic worlds: the frozen
  pre-rewrite copy in :mod:`benchmarks._legacy_sched` and the incremental
  engine.  The harness isolates pure scheduling cost: tasks never actually
  run, so every timed microsecond is queue maintenance, ranking, and task
  selection.
* ``test_fig5_decision_parity`` proves the rewrites are behavior-preserving
  by replaying the fig5 RUPAM trials and comparing every launch decision
  against the golden trace captured before the rewrite
  (``benchmarks/golden/fig5_decisions.json``).

``RUPAM_BENCH_SCALE=paper`` runs the historical paper grid; the default
smoke tier now includes the 1000 x 10k acceptance point.
"""

from __future__ import annotations

from benchmarks._legacy_sched import LegacyDispatcher, LegacyTaskQueues
from benchmarks.conftest import emit
from repro.experiments.schedbench import format_table, run_grid

_LEGACY = (LegacyDispatcher, LegacyTaskQueues)


def test_dispatch_scale(bench_scale, bench_artifact):
    rows = run_grid(bench_scale, repeats=3, legacy=_LEGACY)
    bench_artifact.name = "sched_scale"
    bench_artifact.attach({"scale": bench_scale, "grid": rows})
    emit(format_table(rows))
    top = rows[-1]
    if bench_scale == "paper":
        # The PR-2 acceptance point: 1000 nodes x 10k pending tasks.
        assert top["speedup"] >= 5.0, f"expected >=5x at scale, got {top['speedup']}x"
    else:
        # Smoke tier: small grids are noisier; just require no regression.
        assert top["speedup"] >= 1.0, f"regression at smoke scale: {top['speedup']}x"


def test_fig5_decision_parity(bench_artifact):
    """The rewritten engines make the exact decisions the old one did."""
    from repro.experiments.parity import (
        capture_fig5_signature,
        diff_signatures,
        load_signature,
    )

    golden = load_signature("benchmarks/golden/fig5_decisions.json")
    fresh = capture_fig5_signature(scale=str(golden.get("scale", "smoke")))
    problems = diff_signatures(golden, fresh)
    assert not problems, "decision divergence vs golden:\n" + "\n".join(problems[:20])
    total = sum(len(t["decisions"]) for wl in fresh["workloads"].values() for t in wl)
    runtimes_equal = all(
        g["runtime_s"] == n["runtime_s"]
        for wl in golden["workloads"]
        for g, n in zip(golden["workloads"][wl], fresh["workloads"][wl])
    )
    assert runtimes_equal, "decision parity held but simulated runtimes moved"
    bench_artifact.name = "sched_scale_parity"
    bench_artifact.attach(
        {
            "workloads": len(fresh["workloads"]),
            "decisions": total,
            "runtimes_identical": runtimes_equal,
        }
    )
    emit(f"fig5 parity: {total} decisions identical across "
         f"{len(fresh['workloads'])} workloads")
