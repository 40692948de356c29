#!/usr/bin/env python
"""How RUPAM's task-characteristics database learns across iterations.

Runs Logistic Regression with a growing number of iterations (the paper's
Figure 6 experiment) and, for one run, dumps what DB_task_char learned: each
task's classified bottleneck, best-observed node, and peak memory.

Usage::

    python examples/iterative_learning.py
"""

from __future__ import annotations

from collections import Counter

from repro.api import Session
from repro.core.characterize import classify_record
from repro.core.config import RupamConfig
from repro.experiments.fig6 import run_fig6
from repro.experiments.report import render_table


def main() -> None:
    print("Figure 6 sweep: LR speedup vs iteration count")
    fig6 = run_fig6(scale="smoke")
    print(fig6.render())
    print()

    print("What DB_task_char learned in one 4-iteration LR run:")
    s = Session(cluster="hydra", scheduler="rupam", seed=7, monitor_interval=None)
    s.submit("lr", iterations=4)
    (result,) = s.run_until_idle()
    scheduler, ctx = s.scheduler, s.ctx
    print(f"  runtime: {result.runtime_s:.1f}s")

    cfg = RupamConfig()
    records = scheduler.db.snapshot()
    ref_heap = ctx.conf.usable_heap_mb()
    rows = []
    for key in sorted(records)[:10]:
        rec = records[key]
        kind = classify_record(rec, cfg, ref_heap)
        rows.append(
            (key, rec.runs, kind.value, rec.best_node,
             f"{rec.best_runtime:.1f}", f"{rec.peak_memory_mb:.0f}")
        )
    print(render_table(
        ["task", "runs", "bottleneck", "best node", "best (s)", "peak MB"], rows
    ))

    kinds = Counter(
        classify_record(r, cfg, ref_heap).value for r in records.values()
    )
    best_groups = Counter(
        (r.best_node or "?")[:4] for r in records.values() if r.runs >= 2
    )
    print(f"\n  bottleneck mix: {dict(kinds)}")
    print(f"  best-node groups (tasks with 2+ runs): {dict(best_groups)}")
    print("  -> CPU-bound gradient tasks gravitate to the fast 'thor' class.")


if __name__ == "__main__":
    main()
